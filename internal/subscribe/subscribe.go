// Package subscribe is the streaming read tier: a subscription hub that
// fans each published model version out to many concurrent subscribers
// as versioned snapshot deltas, and a client that maintains a local
// replica answering assign/clusters queries at zero server cost.
//
// The paper's online-offline split makes the model ideal for
// replication: the authoritative micro-cluster set changes only at
// batch boundaries, so one delta per batch — the same core.SnapshotDelta
// the TCP executor broadcasts to workers — fully describes each
// transition. The hub sits on the pipeline's OnPublish path (chained
// through the serve.Registry so HTTP queries and subscriptions see the
// same versions), encodes each delta once, and every subscriber ships
// the same shared bytes.
//
// Cursor semantics: a subscriber's position is the pair (modelVersion,
// checksum) of the last version it applied. On connect the hub resumes
// from the cursor by replaying retained deltas when (a) the version is
// still inside the registry's last-K retention window, (b) the checksum
// matches the hub's record of that version, and (c) the delta chain
// from cursor to latest is unbroken. On any doubt — evicted version,
// checksum mismatch, missing delta (the algorithm declined to diff,
// e.g. decay touched every micro-cluster) — it falls back to a
// checksummed full snapshot, mirroring the executor's "full snapshot on
// any doubt" rule. A full snapshot is itself a SnapshotDelta with
// FromVersion == 0 applied against the empty model, so both paths share
// one codec and one checksum validation.
//
// Shedding policy: subscribers are paced by their own TCP connections.
// A subscriber whose catch-up would replay more than MaxLag retained
// deltas is shed — its next transmission is a full snapshot of the
// latest version instead of the backlog of deltas, bounding both hub
// memory (no per-subscriber queues; only the shared retained window)
// and catch-up time. A subscriber whose connection cannot accept a
// frame within WriteTimeout is disconnected; its cursor remains valid,
// so a live client reconnects and resumes via deltas if it returns
// inside the retention window.
//
// Ingest protection: the hub shares the driver's machine, so two
// optional knobs bound what fan-out may take from the ingest path — the
// subscription-tier analog of the serve tier's admission control. The
// aggregate egress budget (EgressBytesPerSec) caps bandwidth and write
// CPU: under budget pressure subscribers lag, shed and resync at the
// bounded rate, and replicas stay correct at whatever versions they
// reach. Publication coalescing (MinPublishInterval) caps the retained
// publication rate itself: a fast ingest loop can publish hundreds of
// versions per second, but no monitoring tier needs model updates at
// that cadence, so the hub samples the published stream — at most one
// retained entry per interval — and each retained entry's delta spans
// the gap back to the previously retained version. Every version still
// reaches the serve registry; coalescing governs only the subscription
// tier.
package subscribe

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"diststream/internal/core"
	"diststream/internal/serve"
	"diststream/internal/vclock"
)

// HubConfig configures a Hub.
type HubConfig struct {
	// Registry is the serve-tier snapshot store the hub publishes
	// through and mirrors retention from. Required. The hub installs
	// the registry's OnEvict hook, so it must own it — construct the
	// hub before the first publication and do not set OnEvict yourself.
	Registry *serve.Registry
	// Algos resolves algorithm factories for delta computation.
	// Required.
	Algos *core.AlgorithmRegistry
	// MaxLag is how many retained publications a subscriber may fall
	// behind — the number of deltas a catch-up would have to replay —
	// before it is shed to a full-snapshot resync. 0 means the
	// registry's retention depth (a subscriber older than retention
	// could not be served deltas anyway).
	MaxLag int
	// WriteTimeout bounds each frame write to a subscriber; a
	// subscriber that cannot accept a frame in time is disconnected
	// with its cursor intact. 0 means 10s.
	WriteTimeout time.Duration
	// HeartbeatEvery is the idle interval between heartbeat frames.
	// 0 means 10s; negative disables heartbeats.
	HeartbeatEvery time.Duration
	// MinPublishInterval coalesces publications: the hub retains (and
	// fans out) at most one publication per interval, and each retained
	// entry's delta spans the gap back to the previously retained
	// version. This bounds the hub's preparation and wake-up work by
	// wall time instead of by ingest speed — a pipeline publishing
	// hundreds of versions per second would otherwise spend a core's
	// worth of cycles preparing fan-out state no subscriber needs at
	// that cadence. Skipped versions still reach the serve registry.
	// 0 retains every publication.
	MinPublishInterval time.Duration
	// EgressBytesPerSec caps the hub's aggregate model-frame egress — the
	// subscription-tier analog of the serve tier's admission control. The
	// hub shares the driver's machine, so unbounded fan-out is
	// work-conserving: a large fleet would eat every idle cycle (and the
	// ingest path's) writing frames. Under the cap, subscribers that
	// cannot be kept current within budget lag, shed and resync to the
	// latest snapshot at the bounded rate, trading replica freshness for
	// ingest protection. 0 means unlimited.
	EgressBytesPerSec int64
}

const (
	defaultWriteTimeout   = 10 * time.Second
	defaultHeartbeatEvery = 10 * time.Second
)

// entry is one retained publication: identity, the shared encoded delta
// frame from its predecessor (nil when unavailable), and enough state to
// build a full-snapshot frame on demand. checksum and deltaPayload are
// written by the encoder goroutine before the entry becomes ready
// (version <= encodedThrough); subscribers only ever see ready entries,
// so to them every field is immutable.
type entry struct {
	version uint64
	// fromVersion is the previously retained version at append time —
	// the delta base. With coalescing the window is sparse, so this is
	// not necessarily version-1; 0 means no predecessor was retained.
	fromVersion uint64
	batch       int
	time        vclock.Time
	params      core.Params
	mcs         []core.MicroCluster // the registry's published clones; immutable

	checksum uint64
	// deltaPayload is the encoded model frame carrying the delta from
	// version-1 to this version; nil when the algorithm declined to
	// diff or encoding failed. Shared by every subscriber.
	deltaPayload []byte
	// fullOnce guards the lazily built full-snapshot frame (FromVersion
	// == 0). It is built outside every hub lock — a 50KB encode on a
	// subscriber goroutine must not stall Publish — at most once, then
	// shared.
	fullOnce    sync.Once
	fullPayload []byte
	fullErr     error
}

// fullSnapshotPayload returns (building on first use) the encoded
// full-snapshot model frame for e: a delta from the empty model
// carrying every micro-cluster, checksummed like any other delta. Only
// call on ready entries.
func (e *entry) fullSnapshotPayload(h *Hub) ([]byte, error) {
	e.fullOnce.Do(func() {
		d := core.FullDelta(e.params, e.version, e.mcs)
		e.fullPayload, e.fullErr = encodeModelPayload(e.version, e.checksum, e.batch, e.time, d)
		if e.fullErr != nil {
			h.metrics.encodeErrors.Add(1)
		}
	})
	return e.fullPayload, e.fullErr
}

// Hub fans published model versions out to subscribers. One hub serves
// any number of listeners and connections; Publish (via Hook) is called
// by the pipeline, everything else by subscriber goroutines.
type Hub struct {
	cfg HubConfig

	mu     sync.Mutex
	window []*entry // ascending, contiguous versions; mirrors registry retention
	subs   map[*subscriber]struct{}
	closed bool
	// encodedThrough is the highest version the encoder goroutine has
	// prepared (checksum + delta payload). Subscribers are planned
	// against the encoded prefix of the window only.
	encodedThrough uint64
	// lastRetain is when the newest window entry was appended; the
	// coalescing clock.
	lastRetain time.Time

	encodeWake  chan struct{} // capacity 1; coalescing nudge to the encoder
	encoderStop chan struct{}
	encoderDone chan struct{}

	wg        sync.WaitGroup
	listeners []net.Listener
	egress    *egressLimiter // nil = unlimited
	metrics   hubMetrics
}

// egressLimiter is a token bucket over bytes shared by every subscriber
// goroutine, served by a single goroutine in FIFO order. The queue is
// the point: with a thousand contenders, a compare-and-debit bucket
// lets every waiter observe available credit in the same instant and
// collectively overshoot the budget by the whole backlog, and a herd of
// per-waiter retry timers thrashes the scheduler. One server, one
// timer, strict arrival order — the aggregate rate converges to the
// budget under any concurrency.
type egressLimiter struct {
	rate     float64 // bytes per second; burst is one second's budget
	req      chan egressReq
	stop     chan struct{}
	stopOnce sync.Once
}

type egressReq struct {
	n int
	// reply is buffered so the server never blocks on a waiter that
	// abandoned the queue (its grant is then simply unused).
	reply chan bool // true when the grant had to wait for refill
}

func newEgressLimiter(bytesPerSec int64) *egressLimiter {
	l := &egressLimiter{
		rate: float64(bytesPerSec),
		req:  make(chan egressReq),
		stop: make(chan struct{}),
	}
	go l.serve()
	return l
}

func (l *egressLimiter) serve() {
	tokens := l.rate // start with a full burst
	last := time.Now()
	refill := func() {
		now := time.Now()
		tokens += now.Sub(last).Seconds() * l.rate
		if tokens > l.rate {
			tokens = l.rate
		}
		last = now
	}
	for {
		select {
		case r := <-l.req:
			refill()
			waited := false
			// Frames larger than the burst are granted at a full bucket,
			// debiting below zero; the deficit pays itself off before the
			// next grant.
			if need := min(float64(r.n), l.rate); tokens < need {
				waited = true
				t := time.NewTimer(time.Duration((need - tokens) / l.rate * float64(time.Second)))
				select {
				case <-t.C:
				case <-l.stop:
					t.Stop()
					return
				}
				t.Stop()
				refill()
			}
			tokens -= float64(r.n)
			r.reply <- waited
		case <-l.stop:
			return
		}
	}
}

func (l *egressLimiter) close() { l.stopOnce.Do(func() { close(l.stop) }) }

// acquire blocks until n bytes of budget are granted or done closes.
// It reports whether the budget was granted and whether it had to wait.
func (l *egressLimiter) acquire(n int, done <-chan struct{}) (ok, waited bool) {
	select {
	case <-done:
		return false, false
	default:
	}
	r := egressReq{n: n, reply: make(chan bool, 1)}
	select {
	case l.req <- r:
	case <-done:
		return false, false
	case <-l.stop:
		return false, false
	}
	select {
	case waited = <-r.reply:
		return true, waited
	case <-done:
		return false, true
	case <-l.stop:
		return false, true
	}
}

// NewHub builds a hub over cfg and installs the registry eviction hook.
// Call before the first publication (OnEvict must be set before
// publishers run).
func NewHub(cfg HubConfig) (*Hub, error) {
	if cfg.Registry == nil {
		return nil, errors.New("subscribe: config needs a Registry")
	}
	if cfg.Algos == nil {
		return nil, errors.New("subscribe: config needs an algorithm registry")
	}
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = defaultWriteTimeout
	}
	if cfg.HeartbeatEvery == 0 {
		cfg.HeartbeatEvery = defaultHeartbeatEvery
	}
	h := &Hub{
		cfg:         cfg,
		subs:        make(map[*subscriber]struct{}),
		encodeWake:  make(chan struct{}, 1),
		encoderStop: make(chan struct{}),
		encoderDone: make(chan struct{}),
	}
	if cfg.EgressBytesPerSec > 0 {
		h.egress = newEgressLimiter(cfg.EgressBytesPerSec)
	}
	cfg.Registry.OnEvict(h.evict)
	go h.encoder()
	return h, nil
}

// Hook returns the pipeline publish hook: registry publication chained
// with hub fan-out. Wire this as OnSnapshot instead of Registry.Hook()
// so HTTP queries and subscribers see the same version numbers.
func (h *Hub) Hook() core.PublishHook {
	return func(pub core.Published) { h.Publish(pub) }
}

// Publish records pub in the registry, appends the retained entry and
// nudges the encoder. It runs synchronously on the pipeline's publish
// path, so it does the absolute minimum there: the checksum, diff and
// encode all happen on the encoder goroutine, off the ingest critical
// path — the mBSP barrier never waits on fan-out preparation.
func (h *Hub) Publish(pub core.Published) uint64 {
	// Registry publication fires h.evict (under the registry's publisher
	// lock) for every version aging out, pruning h.window before the new
	// entry is appended — so the window mirrors retention exactly.
	version := h.cfg.Registry.Publish(pub)

	h.mu.Lock()
	if h.cfg.MinPublishInterval > 0 && len(h.window) > 0 &&
		time.Since(h.lastRetain) < h.cfg.MinPublishInterval {
		h.mu.Unlock()
		h.metrics.coalesced.Add(1)
		return version
	}
	e := &entry{
		version: version,
		batch:   pub.Batch,
		time:    pub.Time,
		params:  pub.Params,
		mcs:     pub.MCs,
	}
	if n := len(h.window); n > 0 {
		e.fromVersion = h.window[n-1].version
	}
	h.lastRetain = time.Now()
	h.window = append(h.window, e)
	h.mu.Unlock()
	select {
	case h.encodeWake <- struct{}{}:
	default:
	}
	return version
}

// encoder is the hub's single background preparation goroutine: it walks
// the retained window in version order, computing each entry's checksum
// and shared delta payload outside every lock, then commits the entry as
// ready and wakes the subscribers. Keeping this off the publish path is
// what makes fan-out free for ingest — Publish appends and signals, and
// the encode burns idle cycles instead of barrier time.
func (h *Hub) encoder() {
	defer close(h.encoderDone)
	var (
		algo    core.Algorithm // cached diff instance, rebuilt when params change
		algoKey string
	)
	for {
		select {
		case <-h.encodeWake:
		case <-h.encoderStop:
			return
		}
		for {
			h.mu.Lock()
			var e, prev *entry
			// Entries evicted before they were encoded can never be
			// shipped, so the scan naturally skips past them: the next
			// entry to encode is the first unencoded one still retained.
			for i, cand := range h.window {
				if cand.version > h.encodedThrough {
					e = cand
					if i > 0 {
						prev = h.window[i-1]
					}
					break
				}
			}
			h.mu.Unlock()
			if e == nil {
				break
			}
			// Heavy work, outside the lock. The entry is not yet ready, so
			// no subscriber reads these fields; the commit below publishes
			// them under the lock that readers take.
			checksum := core.ChecksumMCs(e.mcs)
			var payload []byte
			if prev != nil && prev.version == e.fromVersion {
				if d, ok := h.diff(&algo, &algoKey, prev, e); ok {
					p, err := encodeModelPayload(e.version, checksum, e.batch, e.time, d)
					if err == nil {
						payload = p
					} else {
						h.metrics.encodeErrors.Add(1)
					}
				}
			}
			h.mu.Lock()
			e.checksum = checksum
			e.deltaPayload = payload
			if e.version > h.encodedThrough {
				h.encodedThrough = e.version
			}
			subs := make([]*subscriber, 0, len(h.subs))
			for s := range h.subs {
				subs = append(subs, s)
			}
			h.mu.Unlock()
			for _, s := range subs {
				s.wake()
			}
		}
	}
}

// evict is the registry's eviction hook: drop retained entries for
// versions that aged out. Runs under the registry publisher lock; takes
// only the hub lock (registry.mu → hub.mu is the one lock order — the
// hub never publishes while holding its own lock).
func (h *Hub) evict(version uint64) {
	h.mu.Lock()
	for len(h.window) > 0 && h.window[0].version <= version {
		h.window = h.window[1:]
	}
	h.mu.Unlock()
}

// diff computes the delta prev→next through the algorithm's
// SnapshotDiffer capability, caching the algorithm instance across calls
// via algo/algoKey (owned by the encoder goroutine). ok is false when
// the algorithm does not diff, declines (a delta would not beat the
// full snapshot), or cannot be constructed.
func (h *Hub) diff(algo *core.Algorithm, algoKey *string, prev, next *entry) (*core.SnapshotDelta, bool) {
	key := next.params.Name
	if *algo == nil || *algoKey != key {
		a, err := h.cfg.Algos.New(next.params)
		if err != nil {
			return nil, false
		}
		*algo, *algoKey = a, key
	}
	differ, ok := (*algo).(core.SnapshotDiffer)
	if !ok {
		return nil, false
	}
	d, ok := differ.DiffState(prev.mcs, next.mcs)
	if !ok {
		return nil, false
	}
	d.Params = next.params
	d.FromVersion = prev.version
	d.Version = next.version
	return d, true
}

// readyLocked returns the encoded prefix of the retained window — the
// entries whose checksum and delta payload the encoder has committed.
// Subscribers are planned against this prefix only, so a publication is
// never visible to fan-out until it is fully prepared.
func (h *Hub) readyLocked() []*entry {
	w := h.window
	for len(w) > 0 && w[len(w)-1].version > h.encodedThrough {
		w = w[:len(w)-1]
	}
	return w
}

// maxLagLocked resolves the effective shed threshold.
func (h *Hub) maxLagLocked() int {
	if h.cfg.MaxLag > 0 {
		return h.cfg.MaxLag
	}
	if n := len(h.window); n > 0 {
		return n
	}
	return 1
}

// sendPlan is one planning decision for a subscriber: either the shared
// delta payloads to write, in order, or (full) the entry whose snapshot
// frame to build and write, plus the version the subscriber is at after
// writing.
type sendPlan struct {
	payloads [][]byte
	fullOf   *entry // when full: snapshot this entry (frame built outside the lock)
	sent     uint64
	full     bool // the plan is a full snapshot rather than deltas
	shed     bool // full because the subscriber exceeded MaxLag
	lag      uint64
}

// planLocked decides what to send a subscriber positioned at sent. It
// returns ok=false when the subscriber is already current (or nothing
// ready was published yet). Resume rule, in order: current → nothing;
// within MaxLag with an unbroken delta chain rooted at sent → replay
// deltas; anything else → full snapshot of the latest version (shed
// when the subscriber held a live position and fell too far behind).
// The window may be sparse under coalescing, so the chain is linked by
// each entry's fromVersion rather than by version arithmetic.
func (h *Hub) planLocked(sent uint64) (sendPlan, bool) {
	ready := h.readyLocked()
	n := len(ready)
	if n == 0 {
		return sendPlan{}, false
	}
	latest := ready[n-1]
	if sent >= latest.version {
		return sendPlan{}, false
	}
	plan := sendPlan{sent: latest.version, lag: latest.version - sent}
	// chain = the retained entries past sent. Replay cost is its length
	// — under coalescing the version distance inflates across gaps, but
	// catching up still costs one delta per retained entry — so the shed
	// decision compares entries, not versions. The chain replays iff its
	// first delta is based exactly on sent and every link has a payload
	// (entries always diff from their retained predecessor, so the
	// interior links hold structurally).
	start := 0
	for start < n && ready[start].version <= sent {
		start++
	}
	chain := ready[start:]
	if len(chain) <= h.maxLagLocked() {
		intact := len(chain) > 0 && chain[0].fromVersion == sent
		for _, e := range chain {
			if e.deltaPayload == nil {
				intact = false
				break
			}
		}
		if intact {
			plan.payloads = make([][]byte, len(chain))
			for i, e := range chain {
				plan.payloads[i] = e.deltaPayload
			}
			return plan, true
		}
	}
	plan.fullOf = latest
	plan.full = true
	plan.shed = sent > 0
	return plan, true
}

// resolveCursor decides a connecting subscriber's starting position from
// its hello. It returns the version to resume from (0 = from scratch;
// the first plan then sends a full snapshot) and whether the cursor was
// honored.
func (h *Hub) resolveCursor(hi hello) (sent uint64, resumed bool) {
	if !hi.hasCursor || hi.version == 0 {
		return 0, false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	ready := h.readyLocked()
	if len(ready) == 0 {
		return 0, false // nothing ready yet — start from scratch
	}
	for _, e := range ready {
		if e.version == hi.version {
			if e.checksum != hi.checksum {
				return 0, false // diverged replica — full-snapshot fallback
			}
			return hi.version, true
		}
	}
	// The window root's delta base has no retained checksum to validate
	// against, but the chain rooted there is fully described by the
	// retained deltas, whose apply re-validates via checksums anyway.
	// If the client's base diverged, its apply fails and it reconnects
	// without a cursor.
	if hi.version == ready[0].fromVersion && hi.version > 0 {
		return hi.version, true
	}
	// Evicted from retention, a coalesced-away version, or a different
	// hub incarnation — full-snapshot fallback.
	return 0, false
}

// Serve accepts subscriber connections on ln until the listener closes
// or the hub shuts down. Run it on its own goroutine; one hub may serve
// several listeners.
func (h *Hub) Serve(ln net.Listener) error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		ln.Close()
		return errors.New("subscribe: hub is closed")
	}
	h.listeners = append(h.listeners, ln)
	h.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			h.mu.Lock()
			closed := h.closed
			h.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("subscribe: accept: %w", err)
		}
		h.wg.Add(1)
		go func() {
			defer h.wg.Done()
			h.handle(conn)
		}()
	}
}

// DisconnectAll abruptly closes every current subscriber connection
// (cursors stay valid; clients reconnect and resume). It exists for
// operational fencing and for churn tests that need a mid-stream kill.
func (h *Hub) DisconnectAll() {
	h.mu.Lock()
	subs := make([]*subscriber, 0, len(h.subs))
	for s := range h.subs {
		subs = append(subs, s)
	}
	h.mu.Unlock()
	for _, s := range subs {
		s.conn.Close()
		s.kick()
	}
}

// Close drains the hub: stop accepting, send goodbye to every
// subscriber, and wait for their goroutines to exit.
func (h *Hub) Close() error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil
	}
	h.closed = true
	listeners := h.listeners
	subs := make([]*subscriber, 0, len(h.subs))
	for s := range h.subs {
		subs = append(subs, s)
	}
	h.mu.Unlock()
	for _, ln := range listeners {
		ln.Close()
	}
	for _, s := range subs {
		s.stop()
	}
	h.wg.Wait()
	close(h.encoderStop)
	<-h.encoderDone
	if h.egress != nil {
		h.egress.close()
	}
	return nil
}
