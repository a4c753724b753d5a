package subscribe

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"diststream/internal/backoff"
	"diststream/internal/core"
	"diststream/internal/stream"
	"diststream/internal/vclock"
	"diststream/internal/vector"
	"diststream/internal/wire"
)

// Replica is one locally materialized model version: the subscriber-side
// equivalent of a serve.ModelVersion. It is immutable once installed;
// readers may retain it across updates.
type Replica struct {
	// Version and Checksum are the replica's cursor — presented to the
	// hub on reconnect to resume via deltas.
	Version  uint64
	Checksum uint64
	// Batch and Time mirror the publication header.
	Batch int
	Time  vclock.Time
	// Params is the algorithm configuration the model was built under.
	Params core.Params
	// MCs is the micro-cluster list in admission order, byte-identical
	// to the driver's published clones (checksum-enforced).
	MCs []core.MicroCluster
	// Search is the algorithm's own search snapshot over MCs — the
	// same structure the driver publishes, so local assigns answer
	// exactly what the server would.
	Search core.Snapshot
}

// ClientConfig configures a Client.
type ClientConfig struct {
	// Addr is the hub's TCP address. Required.
	Addr string
	// Algos resolves algorithm factories for delta application and
	// local search snapshots. Required.
	Algos *core.AlgorithmRegistry
	// DialTimeout bounds each connection attempt. 0 means 5s.
	DialTimeout time.Duration
	// Backoff paces reconnect attempts. Zero value = package defaults.
	Backoff backoff.Policy
	// OnUpdate, when set, runs after each replica installation (on the
	// client's receive goroutine — keep it fast).
	OnUpdate func(*Replica)
	// Drain makes the client protocol-complete but model-free: it reads
	// every frame, tracks its cursor from the model header (so reconnect
	// resume still works and the hub sees a real subscriber) but never
	// decodes or applies the delta body. Replicas then carry only the
	// header fields — MCs and Search stay nil and Assign/Clusters return
	// errors. Use it in load harnesses colocated with the driver, where a
	// full fleet's apply CPU would be charged to the machine under
	// measurement even though deployed subscribers run elsewhere.
	Drain bool
}

// ClientStats counts the client's protocol activity.
type ClientStats struct {
	// Connects is successful hellos (1 on a healthy client; more after
	// reconnects).
	Connects uint64
	// Deltas and Snapshots count applied model frames by kind.
	Deltas    uint64
	Snapshots uint64
	// Heartbeats counts heartbeat frames received.
	Heartbeats uint64
	// BytesRead is total frame bytes received, including framing.
	BytesRead uint64
	// Stale counts model frames skipped because they predate the
	// replica (overlap after a resume).
	Stale uint64
	// ApplyErrors counts model frames that failed to apply; each forces
	// a reconnect (and the hub then falls back to a full snapshot if
	// the cursor is suspect).
	ApplyErrors uint64
}

// Client subscribes to a hub and maintains a local replica. It owns one
// background goroutine that connects, applies frames and reconnects
// with backoff until Close.
type Client struct {
	cfg     ClientConfig
	replica atomic.Pointer[Replica]

	mu      sync.Mutex
	conn    net.Conn      // current connection, for Close to unblock reads
	updated chan struct{} // closed and replaced on each replica install
	algo    core.Algorithm
	algoKey string

	closed atomic.Bool
	quit   chan struct{} // closed by Close; unblocks backoff sleeps
	done   chan struct{} // closed when run exits

	connects    atomic.Uint64
	deltas      atomic.Uint64
	snapshots   atomic.Uint64
	heartbeats  atomic.Uint64
	bytesRead   atomic.Uint64
	stale       atomic.Uint64
	applyErrors atomic.Uint64
}

// ErrNoReplica is returned by local queries before the first model
// frame arrives.
var ErrNoReplica = errors.New("subscribe: no replica yet")

// Dial starts a client subscribed to cfg.Addr. It returns immediately;
// the connection is established (and re-established) in the background.
// Use WaitVersion to block until a replica is available.
func Dial(cfg ClientConfig) (*Client, error) {
	if cfg.Addr == "" {
		return nil, errors.New("subscribe: config needs an Addr")
	}
	if cfg.Algos == nil {
		return nil, errors.New("subscribe: config needs an algorithm registry")
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	c := &Client{
		cfg:     cfg,
		updated: make(chan struct{}),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go c.run()
	return c, nil
}

// Close stops the client and waits for its goroutine to exit. The last
// installed replica stays readable.
func (c *Client) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		<-c.done
		return nil
	}
	close(c.quit)
	c.mu.Lock()
	if c.conn != nil {
		c.conn.Close()
	}
	c.mu.Unlock()
	<-c.done
	return nil
}

// Replica returns the current local model, or nil before the first
// model frame.
func (c *Client) Replica() *Replica { return c.replica.Load() }

// Stats returns the client's activity counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		Connects:    c.connects.Load(),
		Deltas:      c.deltas.Load(),
		Snapshots:   c.snapshots.Load(),
		Heartbeats:  c.heartbeats.Load(),
		BytesRead:   c.bytesRead.Load(),
		Stale:       c.stale.Load(),
		ApplyErrors: c.applyErrors.Load(),
	}
}

// AssignResult is a local nearest-micro-cluster answer, mirroring the
// HTTP tier's AssignResponse.
type AssignResult struct {
	Version    uint64
	ID         uint64
	Distance   float64
	Absorbable bool
	Weight     float64
}

// Assign answers a nearest-micro-cluster query from the local replica —
// the same search structure and boundary rule the server uses, at zero
// server cost.
func (c *Client) Assign(point vector.Vector) (AssignResult, error) {
	r := c.replica.Load()
	if r == nil {
		return AssignResult{}, ErrNoReplica
	}
	if r.Search == nil {
		return AssignResult{}, errors.New("subscribe: drain-mode client holds no local model")
	}
	id, absorbable, ok := r.Search.Nearest(stream.Record{Values: point, Timestamp: r.Time})
	if !ok {
		return AssignResult{}, fmt.Errorf("subscribe: replica version %d is empty", r.Version)
	}
	res := AssignResult{Version: r.Version, ID: id, Absorbable: absorbable}
	if mc := r.Search.Get(id); mc != nil {
		res.Distance = vector.Distance(point, mc.Center())
		res.Weight = mc.Weight()
	}
	return res, nil
}

// Clusters returns the replica's micro-cluster list and its version.
// The list is immutable shared state — callers must not mutate the
// micro-clusters.
func (c *Client) Clusters() ([]core.MicroCluster, uint64, error) {
	r := c.replica.Load()
	if r == nil {
		return nil, 0, ErrNoReplica
	}
	if c.cfg.Drain {
		return nil, 0, errors.New("subscribe: drain-mode client holds no local model")
	}
	return r.MCs, r.Version, nil
}

// WaitVersion blocks until the replica reaches at least version v (or
// ctx is done, or the client is closed).
func (c *Client) WaitVersion(ctx context.Context, v uint64) error {
	for {
		c.mu.Lock()
		ch := c.updated
		c.mu.Unlock()
		if r := c.replica.Load(); r != nil && r.Version >= v {
			return nil
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		case <-c.done:
			return errors.New("subscribe: client closed")
		}
	}
}

// run is the client's connection loop: dial, hello, read frames, apply;
// on any failure back off and reconnect with the current cursor.
func (c *Client) run() {
	defer close(c.done)
	attempt := 0
	for !c.closed.Load() {
		conn, err := net.DialTimeout("tcp", c.cfg.Addr, c.cfg.DialTimeout)
		if err != nil {
			attempt++
			if !c.sleep(c.cfg.Backoff.Delay(attempt)) {
				return
			}
			continue
		}
		c.mu.Lock()
		c.conn = conn
		c.mu.Unlock()
		if c.closed.Load() {
			conn.Close()
			return
		}
		err = c.session(conn)
		conn.Close()
		c.mu.Lock()
		c.conn = nil
		c.mu.Unlock()
		if c.closed.Load() {
			return
		}
		// A session that made progress resets the backoff schedule; a
		// failed hello keeps escalating.
		if err == nil || c.replica.Load() != nil {
			attempt = 1
		} else {
			attempt++
		}
		if !c.sleep(c.cfg.Backoff.Delay(attempt)) {
			return
		}
	}
}

// sleep waits d unless the client closes first.
func (c *Client) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-c.quit:
		return false
	}
}

// session runs one connection: send hello with the current cursor, then
// apply frames until the stream ends.
func (c *Client) session(conn net.Conn) error {
	var hi hello
	if r := c.replica.Load(); r != nil {
		hi = hello{hasCursor: true, version: r.Version, checksum: r.Checksum}
	}
	conn.SetWriteDeadline(time.Now().Add(c.cfg.DialTimeout))
	if err := wire.WriteFrame(conn, encodeHello(hi)); err != nil {
		return err
	}
	conn.SetWriteDeadline(time.Time{})
	c.connects.Add(1)
	for {
		payload, err := wire.ReadFrame(conn, 0)
		if err != nil {
			return err
		}
		c.bytesRead.Add(uint64(4 + len(payload)))
		d := wire.NewDec(payload)
		switch kind := d.Byte(); kind {
		case kindModel:
			if c.cfg.Drain {
				hdr, err := decodeModelHeader(d)
				if err != nil {
					c.applyErrors.Add(1)
					return err
				}
				c.applyDrain(hdr)
				continue
			}
			f, err := decodeModelPayload(d)
			if err != nil {
				c.applyErrors.Add(1)
				return err
			}
			if err := c.apply(f); err != nil {
				c.applyErrors.Add(1)
				return err
			}
		case kindHeartbeat:
			c.heartbeats.Add(1)
		case kindGoodbye:
			return nil
		default:
			return fmt.Errorf("subscribe: unknown frame kind %d", kind)
		}
	}
}

// apply folds one model frame into the replica. Full snapshots
// (FromVersion == 0) apply against the empty model; deltas apply
// against the replica at exactly FromVersion. Both paths checksum the
// result, so a diverged replica can never be silently extended.
func (c *Client) apply(f modelFrame) error {
	cur := c.replica.Load()
	var base []core.MicroCluster
	if f.delta.FromVersion != 0 {
		if cur == nil || cur.Version != f.delta.FromVersion {
			have := uint64(0)
			if cur != nil {
				have = cur.Version
			}
			if f.version <= have {
				// Benign overlap: a resume replayed a version the
				// replica already holds.
				c.stale.Add(1)
				return nil
			}
			return fmt.Errorf("subscribe: delta %d→%d does not chain from replica %d",
				f.delta.FromVersion, f.version, have)
		}
		base = cur.MCs
	}
	algo, err := c.algoFor(f.delta.Params)
	if err != nil {
		return err
	}
	m, err := core.ApplySnapshotDelta(algo, base, f.delta)
	if err != nil {
		return err
	}
	r := &Replica{
		Version:  f.version,
		Checksum: f.checksum,
		Batch:    f.batch,
		Time:     f.time,
		Params:   m.Params,
		MCs:      m.MCs,
		Search:   m.Search,
	}
	// OnUpdate runs before the new replica becomes visible, so once
	// WaitVersion (or Replica) observes a version, the callback for it
	// has already completed.
	if c.cfg.OnUpdate != nil {
		c.cfg.OnUpdate(r)
	}
	c.replica.Store(r)
	if f.delta.FromVersion == 0 {
		c.snapshots.Add(1)
	} else {
		c.deltas.Add(1)
	}
	c.signalUpdated()
	return nil
}

// applyDrain advances the cursor from a model header without touching
// the delta body: the drain-mode subset of apply.
func (c *Client) applyDrain(h modelHeader) {
	if cur := c.replica.Load(); cur != nil && h.version <= cur.Version {
		c.stale.Add(1)
		return
	}
	r := &Replica{Version: h.version, Checksum: h.checksum, Batch: h.batch, Time: h.time}
	if c.cfg.OnUpdate != nil {
		c.cfg.OnUpdate(r)
	}
	c.replica.Store(r)
	if h.fromVersion == 0 {
		c.snapshots.Add(1)
	} else {
		c.deltas.Add(1)
	}
	c.signalUpdated()
}

// signalUpdated wakes every WaitVersion waiter.
func (c *Client) signalUpdated() {
	c.mu.Lock()
	close(c.updated)
	c.updated = make(chan struct{})
	c.mu.Unlock()
}

// algoFor caches the algorithm instance used for delta application and
// snapshot construction, rebuilt if the stream's params name changes.
func (c *Client) algoFor(p core.Params) (core.Algorithm, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.algo != nil && c.algoKey == p.Name {
		return c.algo, nil
	}
	algo, err := c.cfg.Algos.New(p)
	if err != nil {
		return nil, err
	}
	c.algo, c.algoKey = algo, p.Name
	return algo, nil
}
