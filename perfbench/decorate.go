package main

import (
	"context"
	"fmt"
	"sync"

	"diststream/internal/core"
	"diststream/internal/mbsp"
	"diststream/internal/stream"
	"diststream/internal/vclock"
)

// The decorators below time calls into each layer from outside: the
// program under test is built exactly as a user builds it, with each
// layer's value wrapped before it is handed on. A decorator must expose
// the same optional capabilities as the value it wraps — an executor
// that lost DeltaBroadcaster, or an algorithm that lost SnapshotDiffer,
// would silently run a different program — so each constructor refuses
// an inner value whose capability set it cannot mirror exactly.

// execStats collects what the executor decorator sees of each stage.
type execStats struct {
	mu      sync.Mutex
	skew    []float64 // max/mean task time per stage execution
	retries int
}

func (s *execStats) observe(tasks []mbsp.TaskMetrics) {
	var total, slowest float64
	for _, t := range tasks {
		d := float64(t.Duration)
		total += d
		slowest = max(slowest, d)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range tasks {
		s.retries += t.Retries
	}
	if len(tasks) > 0 && total > 0 {
		s.skew = append(s.skew, slowest/(total/float64(len(tasks))))
	}
}

// tracedExecutor decorates an executor with the capabilities every
// shipped executor has: Capable and StageDispatcher.
type tracedExecutor struct {
	inner    mbsp.Executor
	capable  mbsp.Capable
	dispatch mbsp.StageDispatcher
	tr       *recorder
	stats    *execStats
	// netBytes reads the inner executor's wire counters, when it has them.
	netBytes func() (sent, recvd int64)
}

// tracedRemoteExecutor adds the TCP executor's extra capabilities.
type tracedRemoteExecutor struct {
	*tracedExecutor
	delta   mbsp.DeltaBroadcaster
	members mbsp.MembershipReconciler
	alive   interface{ AliveWorkers() int }
}

var (
	_ mbsp.Capable              = (*tracedExecutor)(nil)
	_ mbsp.StageDispatcher      = (*tracedExecutor)(nil)
	_ mbsp.DeltaBroadcaster     = (*tracedRemoteExecutor)(nil)
	_ mbsp.MembershipReconciler = (*tracedRemoteExecutor)(nil)
)

// traceExecutor wraps inner. It accepts the two capability sets the
// shipped executors have (in-process: Capable + StageDispatcher; TCP:
// those plus DeltaBroadcaster, MembershipReconciler and AliveWorkers)
// and refuses anything else rather than drop or invent a capability.
func traceExecutor(inner mbsp.Executor, tr *recorder, stats *execStats) (mbsp.Executor, error) {
	capable, okC := inner.(mbsp.Capable)
	dispatch, okD := inner.(mbsp.StageDispatcher)
	if !okC || !okD {
		return nil, fmt.Errorf("perfbench: executor %T lacks Capable or StageDispatcher", inner)
	}
	base := &tracedExecutor{inner: inner, capable: capable, dispatch: dispatch, tr: tr, stats: stats}
	if nb, ok := inner.(interface{ NetworkBytes() (int64, int64) }); ok {
		base.netBytes = nb.NetworkBytes
	}
	delta, okDB := inner.(mbsp.DeltaBroadcaster)
	members, okM := inner.(mbsp.MembershipReconciler)
	alive, okA := inner.(interface{ AliveWorkers() int })
	switch {
	case !okDB && !okM && !okA:
		return base, nil
	case okDB && okM && okA:
		return &tracedRemoteExecutor{tracedExecutor: base, delta: delta, members: members, alive: alive}, nil
	}
	return nil, fmt.Errorf("perfbench: executor %T has a capability set the decorator cannot mirror", inner)
}

func (e *tracedExecutor) bytes() int64 {
	if e.netBytes == nil {
		return 0
	}
	s, r := e.netBytes()
	return s + r
}

// Parallelism implements mbsp.Executor.
func (e *tracedExecutor) Parallelism() int { return e.inner.Parallelism() }

// Close implements mbsp.Executor.
func (e *tracedExecutor) Close() error { return e.inner.Close() }

// Capabilities implements mbsp.Capable.
func (e *tracedExecutor) Capabilities() mbsp.Capabilities { return e.capable.Capabilities() }

// Broadcast implements mbsp.Executor.
func (e *tracedExecutor) Broadcast(ctx context.Context, id string, value mbsp.Item) error {
	return e.broadcast(func() error { return e.inner.Broadcast(ctx, id, value) })
}

func (e *tracedExecutor) broadcast(call func() error) error {
	b0, start := e.bytes(), e.tr.now()
	err := call()
	e.tr.driver("mbsp.broadcast", start, e.tr.now(), 0, e.bytes()-b0, "")
	return err
}

// stageSpan names the driver span of a stage and the gap that follows it.
func stageSpan(stage string) (name, next string) {
	switch stage {
	case "assign":
		return "mbsp.assign_stage", gapShuffle
	case "local-update":
		return "mbsp.local_stage", gapSort
	}
	return "mbsp." + stage, ""
}

// RunTasks implements mbsp.Executor.
func (e *tracedExecutor) RunTasks(ctx context.Context, stage, op string, inputs []mbsp.Partition) ([]mbsp.Partition, []mbsp.TaskMetrics, error) {
	name, next := stageSpan(stage)
	b0, start := e.bytes(), e.tr.now()
	out, tasks, err := e.inner.RunTasks(ctx, stage, op, inputs)
	e.tr.driver(name, start, e.tr.now(), len(inputs), e.bytes()-b0, next)
	e.stats.observe(tasks)
	return out, tasks, err
}

// DispatchStage implements mbsp.StageDispatcher (used by the pipelined
// schedule; the default BSP schedule runs RunTasks).
func (e *tracedExecutor) DispatchStage(ctx context.Context, spec mbsp.StageSpec) ([]mbsp.Partition, []mbsp.TaskMetrics, error) {
	name, next := stageSpan(spec.Stage)
	b0, start := e.bytes(), e.tr.now()
	out, tasks, err := e.dispatch.DispatchStage(ctx, spec)
	e.tr.driver(name, start, e.tr.now(), len(spec.Inputs), e.bytes()-b0, next)
	e.stats.observe(tasks)
	return out, tasks, err
}

// BroadcastDelta implements mbsp.DeltaBroadcaster.
func (e *tracedRemoteExecutor) BroadcastDelta(ctx context.Context, id string, full, delta mbsp.Item) error {
	return e.broadcast(func() error { return e.delta.BroadcastDelta(ctx, id, full, delta) })
}

// DeltaBroadcastEnabled implements mbsp.DeltaBroadcaster.
func (e *tracedRemoteExecutor) DeltaBroadcastEnabled() bool { return e.delta.DeltaBroadcastEnabled() }

// ReconcileMembership implements mbsp.MembershipReconciler.
func (e *tracedRemoteExecutor) ReconcileMembership(ctx context.Context) (mbsp.MembershipDelta, error) {
	return e.members.ReconcileMembership(ctx)
}

// AliveWorkers forwards the worker-loss count the engine reads.
func (e *tracedRemoteExecutor) AliveWorkers() int { return e.alive.AliveWorkers() }

// traceOps returns a registry holding every op of src wrapped in a
// worker-lane span: ops.assign_task, ops.local_task, or ops.<name>.
func traceOps(src *mbsp.Registry, tr *recorder) (*mbsp.Registry, error) {
	out := mbsp.NewRegistry()
	for _, name := range src.Names() {
		fn, err := src.Lookup(name)
		if err != nil {
			return nil, err
		}
		span := "ops." + name
		switch name {
		case core.OpAssign:
			span = "ops.assign_task"
		case core.OpLocalUpdate:
			span = "ops.local_task"
		}
		if err := out.Register(name, func(ctx *mbsp.TaskContext, in mbsp.Partition) (mbsp.Partition, error) {
			start := tr.now()
			res, err := fn(ctx, in)
			tr.record(span, laneWorker, start, tr.now(), len(in), 0)
			return res, err
		}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// side says where an algorithm instance runs, which names its spans.
type side int

const (
	sideDriver  side = iota // the pipeline's own instance
	sideWorker              // rebuilt from Params by ops and worker-side delta apply
	sideHub                 // the subscription hub's diff instance
	sideReplica             // the subscriber's apply instance
)

// algoCapabilities is the optional-interface set the algorithm decorator
// mirrors. Every shipped algorithm the benchmark runs has all three.
type algoCapabilities interface {
	core.Algorithm
	core.SnapshotDiffer
	core.StateCodec
	core.ShardedGlobalUpdater
}

// tracedAlgorithm decorates an algorithm, timing its model-wide calls.
// Per-record calls (Update, Create, AbsorbIntoNew) forward untimed.
type tracedAlgorithm struct {
	algoCapabilities
	tr   *recorder
	side side
}

func traceAlgorithm(inner core.Algorithm, tr *recorder, s side) (core.Algorithm, error) {
	full, ok := inner.(algoCapabilities)
	if !ok {
		return nil, fmt.Errorf("perfbench: algorithm %q lacks SnapshotDiffer, StateCodec or ShardedGlobalUpdater", inner.Name())
	}
	return &tracedAlgorithm{algoCapabilities: full, tr: tr, side: s}, nil
}

// traceAlgorithms returns a registry whose factories wrap src's: every
// algorithm a consumer rebuilds from Params is decorated for side s.
func traceAlgorithms(src *core.AlgorithmRegistry, tr *recorder, s side) (*core.AlgorithmRegistry, error) {
	out := core.NewAlgorithmRegistry()
	for _, name := range src.Names() {
		if err := out.Register(name, func(p core.Params) (core.Algorithm, error) {
			a, err := src.New(p)
			if err != nil {
				return nil, err
			}
			return traceAlgorithm(a, tr, s)
		}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Init implements core.Algorithm.
func (a *tracedAlgorithm) Init(records []stream.Record) ([]core.MicroCluster, error) {
	start := a.tr.now()
	mcs, err := a.algoCapabilities.Init(records)
	a.tr.driver("core.init", start, a.tr.now(), len(records), 0, "")
	return mcs, err
}

// NewSnapshot implements core.Algorithm.
func (a *tracedAlgorithm) NewSnapshot(mcs []core.MicroCluster) core.Snapshot {
	start := a.tr.now()
	snap := a.algoCapabilities.NewSnapshot(mcs)
	end := a.tr.now()
	switch a.side {
	case sideDriver:
		a.tr.driver("core.snapshot_build", start, end, len(mcs), 0, "")
	case sideWorker:
		a.tr.record("ops.worker_snapshot", laneWorker, start, end, len(mcs), 0)
	case sideReplica:
		a.tr.record("subscribe.replica_snapshot", laneAsync, start, end, len(mcs), 0)
	}
	return snap
}

// GlobalUpdate implements core.Algorithm.
func (a *tracedAlgorithm) GlobalUpdate(model *core.Model, updates []core.Update, now vclock.Time) error {
	start := a.tr.now()
	err := a.algoCapabilities.GlobalUpdate(model, updates, now)
	a.tr.driver("core.global_update", start, a.tr.now(), len(updates), 0, "")
	return err
}

// GlobalUpdateSharded implements core.ShardedGlobalUpdater.
func (a *tracedAlgorithm) GlobalUpdateSharded(model *core.Model, updates []core.Update, now vclock.Time, run *core.ShardedRun) error {
	start := a.tr.now()
	err := a.algoCapabilities.GlobalUpdateSharded(model, updates, now, run)
	a.tr.driver("core.global_update", start, a.tr.now(), len(updates), 0, "")
	return err
}

// DiffState implements core.SnapshotDiffer.
func (a *tracedAlgorithm) DiffState(old, next []core.MicroCluster) (*core.SnapshotDelta, bool) {
	start := a.tr.now()
	d, ok := a.algoCapabilities.DiffState(old, next)
	end := a.tr.now()
	switch a.side {
	case sideDriver:
		a.tr.driver("core.delta_diff", start, end, len(next), 0, "")
	case sideHub:
		a.tr.record("subscribe.hub_diff", laneAsync, start, end, len(next), 0)
	}
	return d, ok
}

// ApplyDelta implements core.SnapshotDiffer.
func (a *tracedAlgorithm) ApplyDelta(old []core.MicroCluster, d *core.SnapshotDelta) ([]core.MicroCluster, error) {
	start := a.tr.now()
	mcs, err := a.algoCapabilities.ApplyDelta(old, d)
	if a.side == sideReplica {
		a.tr.record("subscribe.replica_apply", laneAsync, start, a.tr.now(), len(mcs), 0)
	}
	return mcs, err
}

// EncodeState implements core.StateCodec.
func (a *tracedAlgorithm) EncodeState(m *core.Model) ([]byte, error) {
	start := a.tr.now()
	b, err := a.algoCapabilities.EncodeState(m)
	a.tr.driver("checkpoint.encode", start, a.tr.now(), m.Len(), int64(len(b)), gapTail)
	return b, err
}
