package rpcexec

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"diststream/internal/backoff"
	"diststream/internal/mbsp"
	"diststream/internal/membership"
	"diststream/internal/wire"
)

// Default fault-tolerance parameters, used by Dial and wherever a Config
// field is left zero.
const (
	// DefaultDialTimeout bounds one TCP connection attempt to a worker.
	DefaultDialTimeout = 5 * time.Second
	// DefaultCallTimeout bounds one request/response round trip. A worker
	// that stalls past it is treated as failed for that attempt.
	DefaultCallTimeout = 30 * time.Second
	// DefaultMaxRetries is how many extra attempts (with reconnect) a
	// single call gets before its worker is declared lost.
	DefaultMaxRetries = 2
	// DefaultBackoff is the sleep before the first retry; it doubles on
	// each subsequent one.
	DefaultBackoff = 50 * time.Millisecond
	// DefaultJoinBarrier bounds how long one batch boundary spends
	// catching up join candidates before dispatch proceeds without them.
	DefaultJoinBarrier = 2 * time.Second
)

// Config tunes the TCP executor's fault tolerance. The zero value of any
// field selects its default; CallTimeout can be set negative to disable
// the per-call deadline entirely (useful under a debugger).
type Config struct {
	// DialTimeout bounds each connection attempt. Default 5s.
	DialTimeout time.Duration
	// CallTimeout bounds each request/response round trip; on expiry the
	// connection is torn down and the call retried. Default 30s; negative
	// disables.
	CallTimeout time.Duration
	// MaxRetries is the number of extra attempts per call, each preceded
	// by a reconnect, before the worker is declared lost and its tasks
	// re-dispatched. Default 2.
	MaxRetries int
	// Backoff is the sleep before the first retry, doubling each attempt.
	// Default 50ms.
	Backoff time.Duration
	// Speculation, when set, enables speculative re-execution of
	// straggling tasks: workers that drain their queue run backup copies
	// of tasks exceeding the configured multiple of the stage's median
	// duration, the first result wins, and the loser's in-flight call is
	// cancelled so the stage barrier does not wait out the straggler.
	// Duplicate copies need the cancellable per-call path, so with
	// speculation on a dispatched stage publishes its broadcast as a
	// barrier instead of fusing it into task delivery.
	Speculation *mbsp.SpeculationConfig
	// DeltaBroadcast enables delta model broadcast: workers known to hold
	// the previous version of a broadcast value receive only the diff the
	// caller provides alongside the full value. Any doubt about what a
	// worker holds — reconnect, version gap, failed or rejected apply —
	// silently falls back to the full snapshot, so the worker-visible
	// value is always identical to the delta-off configuration.
	DeltaBroadcast bool
	// Membership, when set, makes the worker set elastic: the executor
	// feeds detected losses into the registry, installs its health probe,
	// and — via ReconcileMembership, called by the driver between batches
	// — retires departed workers and admits announced joiners into the
	// vacant stride slots. The slot count stays fixed at the initial
	// address count, so partitioning (and output) is unchanged by churn.
	Membership *membership.Registry
	// JoinBarrier bounds how long one reconciliation spends dialing and
	// catching up join candidates before giving up until the next batch
	// boundary. Default 2s.
	JoinBarrier time.Duration
}

func (c Config) withDefaults() Config {
	if c.DialTimeout == 0 {
		c.DialTimeout = DefaultDialTimeout
	}
	if c.CallTimeout == 0 {
		c.CallTimeout = DefaultCallTimeout
	}
	if c.CallTimeout < 0 {
		c.CallTimeout = 0
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = DefaultMaxRetries
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.Backoff == 0 {
		c.Backoff = DefaultBackoff
	}
	if c.JoinBarrier <= 0 {
		c.JoinBarrier = DefaultJoinBarrier
	}
	return c
}

// retryPolicy is the jittered exponential schedule behind call retries,
// derived from the configured base backoff.
func (c Config) retryPolicy() backoff.Policy {
	return backoff.Policy{Base: c.Backoff}
}

// Fault-tolerance errors.
var (
	// ErrWorkerLost marks a worker that failed a call even after retries
	// and reconnects. Its pending tasks are re-dispatched onto survivors.
	ErrWorkerLost = errors.New("rpcexec: worker lost")
	// ErrAllWorkersLost is returned when no worker survives to run the
	// remaining tasks.
	ErrAllWorkersLost = errors.New("rpcexec: all workers lost")
)

// Executor is the driver-side TCP executor: it holds one connection per
// remote worker and implements mbsp.Executor. Task i of a stage initially
// runs on worker i % p; requests on one connection are serialized (each
// paper worker owns one physical core, so per-worker serialization is
// faithful), while different workers run concurrently.
//
// Unlike Spark, which leans on the cluster manager, fault tolerance is
// built in: calls carry deadlines, failed connections are redialed with
// exponential backoff (replaying broadcast state onto the fresh
// connection), and when a worker is lost for good its tasks are
// re-dispatched onto the survivors in task-index order, preserving the
// order-aware guarantee. The run degrades gracefully until no worker is
// left.
type Executor struct {
	cfg   Config
	conns []*workerConn

	mu     sync.Mutex
	closed bool

	// Membership bookkeeping, touched only from ReconcileMembership
	// (driver goroutine, between batches). counted marks addresses whose
	// departure has already been reported in a MembershipDelta; the
	// retired counters carry the traffic of replaced connections so
	// NetworkBytes stays cumulative.
	counted      map[string]bool
	retiredSent  atomic.Int64
	retiredRecvd atomic.Int64

	// bmu guards the driver-side broadcast cache replayed on reconnect.
	bmu    sync.Mutex
	border []string
	bcast  map[string]*bcastEntry

	// Broadcast-path counters (see BroadcastStats).
	bFulls  atomic.Int64
	bDeltas atomic.Int64
	bBytes  atomic.Int64
}

var _ mbsp.Executor = (*Executor)(nil)
var _ mbsp.DeltaBroadcaster = (*Executor)(nil)

// encodeValue is the broadcast value encoder (a variable so tests can
// count encodes).
var encodeValue = wire.EncodeValue

// bcastEntry is one cached broadcast: the latest full value, its
// driver-side version (1 on first publication, +1 per republication) and
// its full frame. The frame is encoded on first use and shared by every
// worker that needs the full value — fresh, redialed, lagging or
// delta-rejecting — so a version is encoded at most once, and not at all
// when every worker takes the delta.
type bcastEntry struct {
	id      string
	value   mbsp.Item
	version uint64

	once sync.Once
	req  request
	err  error
}

// fullRequest returns the entry's full broadcast frame.
func (b *bcastEntry) fullRequest() (request, error) {
	b.once.Do(func() { b.req, b.err = broadcastRequest(b.id, b.version, b.value) })
	return b.req, b.err
}

// broadcastRequest builds a broadcast frame: a wire model frame for model
// values, the gob-typed value otherwise.
func broadcastRequest(id string, version uint64, v mbsp.Item) (request, error) {
	req := request{Kind: kindBroadcast, BroadcastID: id, BroadcastVersion: version}
	cols, ok, err := encodeValue(v)
	if ok {
		req.BroadcastCols = cols
	} else {
		req.BroadcastValue = v
	}
	return req, err
}

// workerConn is one driver→worker connection with lockstep framing and
// automatic reconnection.
type workerConn struct {
	addr   string
	cfg    Config
	retry  backoff.Policy
	replay func(c *frameCodec) (map[string]uint64, error)

	// sent and recvd count bytes through the live connection (see
	// countingConn); they accumulate across redials.
	sent  atomic.Int64
	recvd atomic.Int64

	mu    sync.Mutex
	conn  net.Conn
	codec *frameCodec
	dead  bool
	// lastErr is the transport failure that killed this connection, kept
	// so cluster-death errors can name each worker's cause.
	lastErr error
	// acked maps broadcast id → the version this worker is known to hold,
	// the ground truth for whether a delta may be shipped. Entries are
	// written on acknowledged broadcasts and replays, and deleted whenever
	// a broadcast outcome is unknown.
	acked map[string]uint64
}

// alive reports whether the worker has not been declared lost.
func (w *workerConn) alive() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return !w.dead
}

// lastError returns the transport failure recorded when the worker was
// declared lost (nil while alive or after a clean retire).
func (w *workerConn) lastError() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastErr
}

// retire marks the worker dead without an error — a clean drain — and
// closes its connection.
func (w *workerConn) retire() {
	w.mu.Lock()
	w.dead = true
	w.teardown()
	w.mu.Unlock()
}

// teardown closes and forgets the current connection (the gob stream is
// unusable after any transport error).
func (w *workerConn) teardown() {
	if w.conn != nil {
		_ = w.conn.Close()
	}
	if w.codec != nil {
		w.codec.release()
	}
	w.conn, w.codec = nil, nil
}

// redial establishes a fresh connection and replays cached broadcast
// state so the worker (whose process may have kept running across a
// transient network failure) sees a complete environment. The replay runs
// under the per-call deadline: a worker that accepts the connection but
// never answers (e.g. a stopped process whose kernel still completes the
// TCP handshake) must not hang the reconnect.
func (w *workerConn) redial(ctx context.Context) error {
	d := net.Dialer{Timeout: w.cfg.DialTimeout}
	raw, err := d.DialContext(ctx, "tcp", w.addr)
	if err != nil {
		return fmt.Errorf("rpcexec: dial %s: %w", w.addr, err)
	}
	conn := &countingConn{Conn: raw, sent: &w.sent, recvd: &w.recvd}
	w.conn = conn
	w.codec = newFrameCodec(conn)
	// A fresh connection may front a worker process that lost its
	// broadcast state (or never had it): until the replay acknowledges,
	// nothing is known to be held.
	w.acked = make(map[string]uint64)
	if w.replay != nil {
		_ = conn.SetDeadline(w.callDeadline(ctx))
		stop := context.AfterFunc(ctx, func() {
			_ = conn.SetDeadline(time.Unix(1, 0))
		})
		vers, err := w.replay(w.codec)
		stop()
		if err != nil {
			w.teardown()
			return fmt.Errorf("rpcexec: replay broadcasts to %s: %w", w.addr, err)
		}
		_ = conn.SetDeadline(time.Time{})
		for id, v := range vers {
			w.acked[id] = v
		}
	}
	return nil
}

// callDeadline computes the connection deadline for one round trip: the
// per-call timeout, capped by the context deadline plus a grace period so
// the context timer fires first and failures report ctx.Err.
func (w *workerConn) callDeadline(ctx context.Context) time.Time {
	deadline := time.Time{}
	if w.cfg.CallTimeout > 0 {
		deadline = time.Now().Add(w.cfg.CallTimeout)
	}
	if d, ok := ctx.Deadline(); ok {
		if d = d.Add(100 * time.Millisecond); deadline.IsZero() || d.Before(deadline) {
			deadline = d
		}
	}
	return deadline
}

// exchange performs one round trip on the current connection under the
// per-call deadline, optionally pipelined with a second request: both
// frames go out back-to-back — each flushed on its own, so the byte
// counter read between the flushes attributes the first frame's bytes
// exactly — and only then are the responses read, in order. The worker
// serves a connection strictly in order, so response order matches
// request order by construction. Context cancellation interrupts the
// exchange in flight by expiring the connection deadline; any error
// leaves the gob streams desynchronized, and the caller must tear the
// connection down. Caller holds w.mu and has checked w.conn != nil.
func (w *workerConn) exchange(ctx context.Context, req request, next *request) (resp, nextResp response, reqBytes int64, err error) {
	conn := w.conn
	_ = conn.SetDeadline(w.callDeadline(ctx))
	// SetDeadline is safe to call concurrently with I/O in flight, so a
	// context cancellation can interrupt a blocked Encode/Decode.
	stop := context.AfterFunc(ctx, func() {
		_ = conn.SetDeadline(time.Unix(1, 0))
	})
	defer stop()
	sentBefore := w.sent.Load()
	if err = w.codec.send(req); err != nil {
		return resp, nextResp, 0, fmt.Errorf("rpcexec: send: %w", err)
	}
	reqBytes = w.sent.Load() - sentBefore
	if next != nil {
		if err = w.codec.send(*next); err != nil {
			return resp, nextResp, reqBytes, fmt.Errorf("rpcexec: send pipelined: %w", err)
		}
	}
	if err = w.codec.recv(&resp); err != nil {
		return resp, nextResp, reqBytes, fmt.Errorf("rpcexec: recv: %w", err)
	}
	if next != nil {
		if err = w.codec.recv(&nextResp); err != nil {
			return resp, nextResp, reqBytes, fmt.Errorf("rpcexec: recv pipelined: %w", err)
		}
	}
	_ = conn.SetDeadline(time.Time{})
	return resp, nextResp, reqBytes, nil
}

// call sends one request with bounded retry: on a transport failure the
// connection is torn down, the call backs off, redials and tries again,
// up to cfg.MaxRetries extra attempts. When they are exhausted the worker
// is marked dead and ErrWorkerLost returned. The second return value is
// the number of retries consumed (for task metrics).
func (w *workerConn) call(ctx context.Context, req request) (response, int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.callLocked(ctx, req)
}

// callLocked is call's body; the caller holds w.mu.
func (w *workerConn) callLocked(ctx context.Context, req request) (response, int, error) {
	if w.dead {
		return response{}, 0, fmt.Errorf("%w: %s", ErrWorkerLost, w.addr)
	}
	var lastErr error
	for attempt := 0; attempt <= w.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(w.retry.Delay(attempt)):
			case <-ctx.Done():
				return response{}, attempt, ctx.Err()
			}
		}
		if err := ctx.Err(); err != nil {
			return response{}, attempt, err
		}
		if w.conn == nil {
			if err := w.redial(ctx); err != nil {
				lastErr = err
				continue
			}
		}
		resp, _, _, err := w.exchange(ctx, req, nil)
		if err == nil {
			return resp, attempt, nil
		}
		lastErr = err
		w.teardown()
		if err := ctx.Err(); err != nil {
			return response{}, attempt, err
		}
	}
	w.dead = true
	w.lastErr = lastErr
	w.teardown()
	return response{}, w.cfg.MaxRetries, fmt.Errorf("%w: %s: %v", ErrWorkerLost, w.addr, lastErr)
}

// Dial connects to the given worker addresses with default fault
// tolerance (see the Default* constants).
func Dial(addrs []string) (*Executor, error) {
	return DialConfig(addrs, Config{})
}

// DialConfig connects to the given worker addresses with explicit
// fault-tolerance settings. Zero-valued Config fields take defaults.
func DialConfig(addrs []string, cfg Config) (*Executor, error) {
	if len(addrs) == 0 {
		return nil, errors.New("rpcexec: no worker addresses")
	}
	registerOnce.Do(registerBuiltins)
	cfg = cfg.withDefaults()
	if cfg.Speculation != nil {
		validated, err := cfg.Speculation.WithDefaults()
		if err != nil {
			return nil, err
		}
		cfg.Speculation = &validated
	}
	e := &Executor{
		cfg:     cfg,
		conns:   make([]*workerConn, 0, len(addrs)),
		bcast:   make(map[string]*bcastEntry),
		counted: make(map[string]bool),
	}
	for _, addr := range addrs {
		wc := e.newWorkerConn(addr)
		if err := wc.redial(context.Background()); err != nil {
			_ = e.Close()
			return nil, err
		}
		e.conns = append(e.conns, wc)
	}
	if reg := cfg.Membership; reg != nil {
		// Seed the initial fixed set (it never says Hello) and install the
		// health probe so the registry can suspect/kill/resurrect members.
		for _, addr := range addrs {
			reg.Track(addr)
		}
		reg.SetProber(func(ctx context.Context, addr string) error {
			return Ping(ctx, addr, cfg.DialTimeout)
		})
	}
	return e, nil
}

// newWorkerConn builds an undialed connection wired into the executor's
// broadcast replay and retry policy.
func (e *Executor) newWorkerConn(addr string) *workerConn {
	return &workerConn{addr: addr, cfg: e.cfg, retry: e.cfg.retryPolicy(), replay: e.replayBroadcasts}
}

// allWorkersLost builds the cluster-death error: ErrAllWorkersLost plus
// each worker's last transport failure (via errors.Join), so operators
// see why the cluster died, not just that it did. stranded < 0 omits the
// task count (broadcast-phase deaths).
func (e *Executor) allWorkersLost(stage string, stranded int) error {
	var head error
	if stranded >= 0 {
		head = fmt.Errorf("%w (stage %q, %d tasks stranded)", ErrAllWorkersLost, stage, stranded)
	} else {
		head = fmt.Errorf("%w (stage %q)", ErrAllWorkersLost, stage)
	}
	errs := []error{head}
	for _, wc := range e.conns {
		if err := wc.lastError(); err != nil {
			errs = append(errs, fmt.Errorf("worker %s: %w", wc.addr, err))
		}
	}
	return errors.Join(errs...)
}

// replayBroadcasts re-sends every cached broadcast on a fresh connection,
// in first-publication order, always as full values. It returns the
// versions the worker now holds, which redial merges into the
// connection's ack map so delta shipping can resume immediately.
func (e *Executor) replayBroadcasts(c *frameCodec) (map[string]uint64, error) {
	e.bmu.Lock()
	entries := make([]*bcastEntry, 0, len(e.border))
	vers := make(map[string]uint64, len(e.border))
	for _, id := range e.border {
		entries = append(entries, e.bcast[id])
		vers[id] = e.bcast[id].version
	}
	e.bmu.Unlock()
	for _, entry := range entries {
		req, err := entry.fullRequest()
		if err != nil {
			return nil, err
		}
		if err := c.send(req); err != nil {
			return nil, err
		}
		var resp response
		if err := c.recv(&resp); err != nil {
			return nil, err
		}
		if resp.Err != "" {
			return nil, errors.New(resp.Err)
		}
	}
	return vers, nil
}

// Parallelism implements mbsp.Executor. It reports the configured worker
// count even after losses, so partitioning stays stable across a run.
func (e *Executor) Parallelism() int { return len(e.conns) }

// AliveWorkers returns how many workers have not been declared lost.
func (e *Executor) AliveWorkers() int {
	n := 0
	for _, wc := range e.conns {
		if wc.alive() {
			n++
		}
	}
	return n
}

// Broadcast implements mbsp.Executor: the value is cached driver-side
// (for replay on reconnect) and replicated to every live worker
// synchronously, fanning out in parallel across workers. A worker that
// fails the broadcast even after retries is declared lost — its state
// would otherwise go stale — and the broadcast succeeds as long as at
// least one worker holds the value.
func (e *Executor) Broadcast(ctx context.Context, id string, value mbsp.Item) error {
	return e.broadcastValue(ctx, id, value, nil)
}

// BroadcastDelta implements mbsp.DeltaBroadcaster: workers whose last
// acknowledged version of id is exactly the previous one receive delta;
// everyone else — fresh connections, workers that missed a version,
// workers whose apply failed — receives the full value.
func (e *Executor) BroadcastDelta(ctx context.Context, id string, full, delta mbsp.Item) error {
	return e.broadcastValue(ctx, id, full, delta)
}

// DeltaBroadcastEnabled implements mbsp.DeltaBroadcaster.
func (e *Executor) DeltaBroadcastEnabled() bool { return e.cfg.DeltaBroadcast }

// BroadcastStats reports how many per-worker broadcast deliveries went
// out as full values vs deltas, and the bytes the broadcast path pushed
// onto the wire (columnar or gob, excluding replays and task traffic).
type BroadcastStats struct {
	Fulls  int64
	Deltas int64
	Bytes  int64
}

// BroadcastStats returns the executor's cumulative broadcast counters.
func (e *Executor) BroadcastStats() BroadcastStats {
	return BroadcastStats{
		Fulls:  e.bFulls.Load(),
		Deltas: e.bDeltas.Load(),
		Bytes:  e.bBytes.Load(),
	}
}

// NetworkBytes returns the total bytes sent to and received from all
// workers over the executor's lifetime, including redials.
func (e *Executor) NetworkBytes() (sent, recvd int64) {
	sent, recvd = e.retiredSent.Load(), e.retiredRecvd.Load()
	for _, wc := range e.conns {
		sent += wc.sent.Load()
		recvd += wc.recvd.Load()
	}
	return sent, recvd
}

// broadcastFrames is one versioned publication of a broadcast value: the
// cache entry with the full frame every worker can take, and the delta
// frame for workers known to hold the previous version (nil when no
// delta applies).
type broadcastFrames struct {
	*bcastEntry
	delta *request
}

// newBroadcast caches value driver-side under the next version of id —
// redials replay it, and the version bump decides delta eligibility per
// worker — and builds the delta frame. delta is dropped when delta
// broadcast is disabled or id has no previous version.
func (e *Executor) newBroadcast(id string, value, delta mbsp.Item) (*broadcastFrames, error) {
	if e.isClosed() {
		return nil, mbsp.ErrClosed
	}
	if id == "" {
		return nil, errors.New("rpcexec: empty broadcast id")
	}
	e.bmu.Lock()
	var version uint64 = 1
	if prev, seen := e.bcast[id]; seen {
		version = prev.version + 1
	} else {
		e.border = append(e.border, id)
	}
	entry := &bcastEntry{id: id, value: value, version: version}
	e.bcast[id] = entry
	e.bmu.Unlock()

	b := &broadcastFrames{bcastEntry: entry}
	if delta != nil && version > 1 && e.cfg.DeltaBroadcast {
		rd, err := broadcastRequest(id, version, delta)
		if err != nil {
			return nil, err
		}
		b.delta = &rd
	}
	return b, nil
}

// broadcastValue publishes value under id to every live worker in
// parallel, delta-first where eligible: the path behind Broadcast,
// BroadcastDelta and a speculative stage's broadcast barrier.
func (e *Executor) broadcastValue(ctx context.Context, id string, value, delta mbsp.Item) error {
	b, err := e.newBroadcast(id, value, delta)
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	errs := make([]error, len(e.conns))
	for i, wc := range e.conns {
		if !wc.alive() {
			continue
		}
		i, wc := i, wc
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, errs[i] = e.broadcastToWorker(ctx, wc, b, nil)
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	var fatal []error
	for _, err := range errs {
		switch {
		case err == nil:
		case errors.Is(err, ErrWorkerLost):
			// Degraded but consistent: the lost worker receives no more
			// tasks, so its stale state cannot surface.
		default:
			fatal = append(fatal, err)
		}
	}
	if len(fatal) > 0 {
		return errors.Join(fatal...)
	}
	if e.AliveWorkers() == 0 {
		return ErrAllWorkersLost
	}
	return nil
}

// broadcastToWorker delivers one broadcast to one worker, delta-first
// when eligible, optionally carrying a task frame right behind it (the
// fused round-1 prologue of a dispatched stage). The first attempt — the
// delta, or the full value when a task rides along — goes out exactly
// once, on the current live connection only, never through the
// retry/redial machinery: a redial replays the new full value, and a
// delta applied on top of it would double-apply. Any failure of that
// attempt (transport, or a worker-side reject of a delta: missing base,
// checksum mismatch, apply error) falls back to the full value through
// the normal retried path, so delta mode can only ever cost a resend,
// not correctness. A worker-side reject of the full value is fatal.
//
// The worker serves its connection strictly in order, so a task that
// rode behind a rejected broadcast ran against the stale value: its
// response is discarded. broadcastToWorker returns the task's response
// only when the broadcast in front of it landed; sentTask reports that a
// task frame went out, so the caller can count the discarded run.
func (e *Executor) broadcastToWorker(ctx context.Context, w *workerConn, b *broadcastFrames, task *request) (tresp *response, sentTask bool, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.dead {
		return nil, false, fmt.Errorf("%w: %s", ErrWorkerLost, w.addr)
	}
	useDelta := b.delta != nil && w.acked[b.id] == b.version-1
	var bytes int64
	if w.conn != nil && (useDelta || task != nil) {
		var breq request
		if useDelta {
			breq = *b.delta
		} else if breq, err = b.fullRequest(); err != nil {
			return nil, false, err
		}
		bresp, resp, n, err := w.exchange(ctx, breq, task)
		bytes += n
		sentTask = task != nil
		switch {
		case err == nil && bresp.Err == "":
			w.acked[b.id] = b.version
			if useDelta {
				e.bDeltas.Add(1)
			} else {
				e.bFulls.Add(1)
			}
			e.bBytes.Add(bytes)
			if task == nil {
				return nil, false, nil
			}
			return &resp, true, nil
		case err != nil:
			// Transport failure: the outcome of every frame is unknown, so
			// the connection (and the gob stream riding it) is unusable.
			// Tear it down; the full path below redials and replays.
			w.teardown()
		case !useDelta:
			delete(w.acked, b.id)
			return nil, sentTask, errors.New(bresp.Err)
		}
		// A worker-side reject leaves the connection healthy; either way
		// the worker's version is now unknown until the full lands.
		delete(w.acked, b.id)
	}
	full, err := b.fullRequest()
	if err != nil {
		return nil, sentTask, err
	}
	sentBefore := w.sent.Load()
	resp, _, err := w.callLocked(ctx, full)
	if err == nil && resp.Err != "" {
		err = errors.New(resp.Err)
	}
	if err != nil {
		delete(w.acked, b.id)
		return nil, sentTask, err
	}
	w.acked[b.id] = b.version
	e.bFulls.Add(1)
	e.bBytes.Add(bytes + w.sent.Load() - sentBefore)
	return nil, sentTask, nil
}

// Close implements mbsp.Executor: it sends a shutdown frame to each live
// worker connection and closes the sockets. The workers themselves stay
// up to serve other drivers; use Worker.Close to stop them.
func (e *Executor) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	var errs []error
	for _, wc := range e.conns {
		wc.mu.Lock()
		if wc.conn != nil {
			_ = wc.conn.SetDeadline(time.Now().Add(time.Second))
			if err := wc.codec.send(request{Kind: kindShutdown}); err == nil {
				var resp response
				_ = wc.codec.recv(&resp)
			}
			if err := wc.conn.Close(); err != nil {
				errs = append(errs, err)
			}
			wc.codec.release()
			wc.conn, wc.codec = nil, nil
		}
		wc.dead = true
		wc.mu.Unlock()
	}
	return errors.Join(errs...)
}

func (e *Executor) isClosed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.closed
}

// StartLocalCluster launches n workers on ephemeral localhost ports and
// returns them with their addresses — a convenience for tests and for
// single-machine demos of the TCP execution path.
func StartLocalCluster(n int, registry *mbsp.Registry) ([]*Worker, []string, error) {
	if n <= 0 {
		return nil, nil, fmt.Errorf("rpcexec: cluster size %d must be positive", n)
	}
	workers := make([]*Worker, 0, n)
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		w, err := NewWorker(i, "127.0.0.1:0", registry)
		if err != nil {
			for _, started := range workers {
				_ = started.Close()
			}
			return nil, nil, err
		}
		workers = append(workers, w)
		addrs = append(addrs, w.Addr())
	}
	return workers, addrs, nil
}
