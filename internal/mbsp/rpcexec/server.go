package rpcexec

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"diststream/internal/mbsp"
	"diststream/internal/wire"
)

var registerOnce sync.Once

// Fault is an injected worker failure mode, used to exercise the driver's
// fault-tolerance paths in-process (tests and demos).
type Fault int

// Fault kinds.
const (
	// FaultNone runs the task normally.
	FaultNone Fault = iota
	// FaultStall sleeps for the returned duration before serving the task
	// (a network or GC stall: the driver's call deadline fires).
	FaultStall
	// FaultDrop closes the serving connection without responding (a
	// transient connection failure: the worker process survives, so the
	// driver's reconnect succeeds and cached broadcasts are replayed).
	FaultDrop
	// FaultCrash kills the whole worker — listener and all connections —
	// without responding (a process death: reconnects fail and the driver
	// re-dispatches onto the survivors).
	FaultCrash
)

// FaultFunc decides the fault for one task request. It runs on the worker
// before the task body.
type FaultFunc func(stage string, taskID int) (Fault, time.Duration)

// Worker is one remote executor node: it serves task and broadcast
// requests from a driver over TCP. Each accepted connection is served by
// its own goroutine; broadcast state is shared across connections.
type Worker struct {
	id       int
	registry *mbsp.Registry
	ln       net.Listener

	broadcasts *workerStore

	mu             sync.Mutex
	closed         bool
	fault          FaultFunc
	broadcastDelay time.Duration
	conns          map[net.Conn]struct{}
	wg             sync.WaitGroup
}

// workerStore adapts the broadcast map to the mbsp broadcast interface.
type workerStore struct {
	mu sync.RWMutex
	m  map[string]mbsp.Item
}

var _ mbsp.BroadcastStore = (*workerStore)(nil)

// Get implements mbsp.BroadcastStore.
func (s *workerStore) Get(id string) (mbsp.Item, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.m[id]
	return v, ok
}

func (s *workerStore) put(id string, v mbsp.Item) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[id] = v
}

// NewWorker starts a worker listening on addr (use "127.0.0.1:0" for an
// ephemeral port). The returned worker serves until Close.
func NewWorker(id int, addr string, registry *mbsp.Registry) (*Worker, error) {
	if registry == nil {
		return nil, errors.New("rpcexec: registry is required")
	}
	registerOnce.Do(registerBuiltins)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rpcexec: listen %s: %w", addr, err)
	}
	w := &Worker{
		id:         id,
		registry:   registry,
		ln:         ln,
		broadcasts: &workerStore{m: make(map[string]mbsp.Item)},
		conns:      make(map[net.Conn]struct{}),
	}
	w.wg.Add(1)
	go w.acceptLoop()
	return w, nil
}

// Addr returns the worker's listen address.
func (w *Worker) Addr() string { return w.ln.Addr().String() }

// SetFault installs (or, with nil, removes) a fault-injection hook
// consulted before every task. Test-only machinery: it lets worker-crash
// and network-stall scenarios run in-process, deterministically.
func (w *Worker) SetFault(f FaultFunc) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.fault = f
}

func (w *Worker) currentFault() FaultFunc {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.fault
}

// SetBroadcastDelay makes the worker sleep before serving each broadcast
// request. Test-only machinery: it makes the driver's parallel broadcast
// fan-out observable (n workers × d delay must complete in ~d, not n×d).
func (w *Worker) SetBroadcastDelay(d time.Duration) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.broadcastDelay = d
}

func (w *Worker) currentBroadcastDelay() time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.broadcastDelay
}

// Close stops the worker — listener and every open connection, like a
// process death — and waits for connection goroutines to exit.
func (w *Worker) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	conns := make([]net.Conn, 0, len(w.conns))
	for c := range w.conns {
		conns = append(conns, c)
	}
	w.mu.Unlock()
	err := w.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	w.wg.Wait()
	return err
}

func (w *Worker) acceptLoop() {
	defer w.wg.Done()
	for {
		conn, err := w.ln.Accept()
		if err != nil {
			return // listener closed
		}
		w.mu.Lock()
		if w.closed {
			w.mu.Unlock()
			_ = conn.Close()
			return
		}
		w.conns[conn] = struct{}{}
		w.mu.Unlock()
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			defer func() {
				_ = conn.Close()
				w.mu.Lock()
				delete(w.conns, conn)
				w.mu.Unlock()
			}()
			w.serve(conn)
		}()
	}
}

// serve handles one driver connection in request/response lockstep.
func (w *Worker) serve(conn net.Conn) {
	c := newFrameCodec(conn)
	defer c.release()
	for {
		var req request
		if err := c.recv(&req); err != nil {
			return // EOF or broken connection: driver went away
		}
		switch req.Kind {
		case kindBroadcast:
			if d := w.currentBroadcastDelay(); d > 0 {
				time.Sleep(d)
			}
			if err := c.send(w.applyBroadcast(req)); err != nil {
				return
			}
		case kindTask:
			if f := w.currentFault(); f != nil {
				switch kind, d := f(req.Stage, req.TaskID); kind {
				case FaultStall:
					time.Sleep(d)
				case FaultDrop:
					return // drop just this connection; worker survives
				case FaultCrash:
					// Close runs elsewhere: it waits for this very
					// goroutine, which exits right away.
					go func() { _ = w.Close() }()
					return
				}
			}
			resp := w.runTask(req)
			if err := c.send(resp); err != nil {
				return
			}
		case kindPing:
			if err := c.send(response{TaskID: -1}); err != nil {
				return
			}
		case kindShutdown:
			_ = c.send(response{})
			return
		default:
			_ = c.send(response{Err: fmt.Sprintf("rpcexec: unknown request kind %d", req.Kind)})
		}
	}
}

// applyBroadcast installs one broadcast value, decoding a model frame
// and applying any mbsp.BroadcastDelta — a model frame always is one —
// onto the worker's current value for the id, or onto none. Failures
// come back as response errors on a healthy connection: the driver
// reacts to a rejected delta by resending the full value.
func (w *Worker) applyBroadcast(req request) response {
	value := req.BroadcastValue
	if len(req.BroadcastCols) > 0 {
		d, err := wire.DecodeModel(req.BroadcastCols)
		if err != nil {
			return response{Err: err.Error()}
		}
		value = d
	}
	if delta, ok := value.(mbsp.BroadcastDelta); ok {
		base, _ := w.broadcasts.Get(req.BroadcastID)
		applied, err := delta.ApplyDelta(base)
		if err != nil {
			return response{Err: err.Error()}
		}
		value = applied
	}
	w.broadcasts.put(req.BroadcastID, value)
	return response{}
}

func (w *Worker) runTask(req request) response {
	fn, err := w.registry.Lookup(req.Op)
	if err != nil {
		return response{TaskID: req.TaskID, Err: err.Error()}
	}
	input := req.Input
	if len(req.InputCols) > 0 {
		p, err := wire.DecodePartition(req.InputCols)
		if err != nil {
			return response{TaskID: req.TaskID, Err: err.Error()}
		}
		input = p
	}
	ctx := mbsp.NewTaskContext(req.Stage, req.TaskID, w.id, w.broadcasts)
	// SafeCall contains panics: a poisonous record fails this one task
	// (the error string, stack included, travels back to the driver's
	// retry/abort machinery) instead of killing the worker process.
	out, err := mbsp.SafeCall(fn, ctx, input)
	if err != nil {
		return response{TaskID: req.TaskID, Err: err.Error()}
	}
	resp := response{TaskID: req.TaskID}
	if cols, ok := wire.EncodePartition(out); ok {
		resp.OutputCols = cols
	} else {
		resp.Output = out
	}
	return resp
}
