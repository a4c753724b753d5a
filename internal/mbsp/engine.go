package mbsp

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"
)

// Engine is the driver: it runs stages on an Executor, performs the
// shuffle between stages, and accumulates stage metrics. An Engine is not
// safe for concurrent use; the DistStream pipeline drives it from a
// single batch loop, exactly like a Spark Streaming driver.
type Engine struct {
	exec     Executor
	capable  Capable
	dispatch StageDispatcher
	metrics  []StageMetrics
}

// NewEngine wraps an executor. The engine's executor contract is
// Executor plus Capable (the executor reports its optional capabilities
// itself) plus StageDispatcher (the executor runs a whole StageSpec,
// fused broadcast and streamed completions included); an executor
// lacking either is rejected rather than emulated. Both shipped
// executors satisfy it.
func NewEngine(exec Executor) (*Engine, error) {
	if exec == nil {
		return nil, errors.New("mbsp: nil executor")
	}
	capable, ok := exec.(Capable)
	if !ok {
		return nil, fmt.Errorf("mbsp: executor %T does not implement Capable", exec)
	}
	dispatch, ok := exec.(StageDispatcher)
	if !ok {
		return nil, fmt.Errorf("mbsp: executor %T does not implement StageDispatcher", exec)
	}
	return &Engine{exec: exec, capable: capable, dispatch: dispatch}, nil
}

// Parallelism returns the executor's worker count.
func (e *Engine) Parallelism() int { return e.exec.Parallelism() }

// AliveWorkers returns how many workers are still serving tasks, for
// executors that track losses (the TCP executor); others report full
// strength.
func (e *Engine) AliveWorkers() int {
	if a, ok := e.exec.(interface{ AliveWorkers() int }); ok {
		return a.AliveWorkers()
	}
	return e.exec.Parallelism()
}

// Broadcast publishes a value to all workers under id.
func (e *Engine) Broadcast(ctx context.Context, id string, v Item) error {
	return e.exec.Broadcast(ctx, id, v)
}

// Capabilities reports the executor's optional capabilities.
func (e *Engine) Capabilities() Capabilities { return e.capable.Capabilities() }

// ReconcileMembership applies pending worker-set changes on executors
// with the ElasticMembership capability and reports what changed; for
// every other executor it is a no-op. Callers must invoke it only
// between batches (the executor swaps connections without stage-path
// locking at this quiescent point).
func (e *Engine) ReconcileMembership(ctx context.Context) (MembershipDelta, error) {
	if r, ok := e.exec.(MembershipReconciler); ok && e.Capabilities().ElasticMembership {
		return r.ReconcileMembership(ctx)
	}
	return MembershipDelta{}, nil
}

// DispatchStage runs one StageSpec on the executor — a parallel map
// optionally fused with a broadcast and streaming per-task completions —
// recording stage metrics exactly like MapStage.
func (e *Engine) DispatchStage(ctx context.Context, spec StageSpec) ([]Partition, error) {
	start := time.Now()
	outputs, taskMetrics, err := e.dispatch.DispatchStage(ctx, spec)
	return e.record(spec.Stage, start, outputs, taskMetrics, err)
}

// MapStage runs the named op over every input partition in parallel and
// returns the per-partition outputs, recording stage metrics. A failed
// stage still appends its metrics, marked Failed, so callers can account
// for partial work and retries before the error surfaced.
func (e *Engine) MapStage(ctx context.Context, stage, op string, inputs []Partition) ([]Partition, error) {
	start := time.Now()
	outputs, taskMetrics, err := e.exec.RunTasks(ctx, stage, op, inputs)
	return e.record(stage, start, outputs, taskMetrics, err)
}

// record appends one stage's metrics and passes its outputs through.
func (e *Engine) record(stage string, start time.Time, outputs []Partition, taskMetrics []TaskMetrics, err error) ([]Partition, error) {
	e.metrics = append(e.metrics, StageMetrics{
		Stage:  stage,
		Tasks:  taskMetrics,
		Wall:   time.Since(start),
		Failed: err != nil,
	})
	if err != nil {
		return nil, err
	}
	return outputs, nil
}

// ShuffleByKey regroups partitions of KeyedItem into numPartitions
// partitions of Group. Keys are routed with key % numPartitions; within a
// group, items keep emission order (source partition first, then
// position), which the order-aware local update then refines by record
// timestamp. Items that are not KeyedItem are rejected.
//
// The shuffle executes on the driver: with in-process workers the data is
// already in shared memory, and with the TCP executor task outputs have
// been collected anyway — semantically identical to (if less scalable
// than) Spark's distributed shuffle, which is acceptable because shuffle
// volume here is one (key, record) pair per input record.
func ShuffleByKey(inputs []Partition, numPartitions int) ([]Partition, error) {
	b := NewShuffleBuilder()
	for pi, part := range inputs {
		b.Count(pi, part)
	}
	return b.Finalize(inputs, numPartitions)
}

// ShuffleBuilder is the shuffle's counting pass made incremental, so a
// dispatched stage can absorb task outputs as they stream in (counting is
// commutative) and pay only the deterministic fill pass after the stage
// barrier. Count is safe for concurrent use; Finalize is not, and must
// run after every Count has returned. ShuffleByKey is exactly
// NewShuffleBuilder + one Count per partition + Finalize, so the two
// paths cannot diverge.
type ShuffleBuilder struct {
	mu    sync.Mutex
	slot  map[uint64]int // key -> count (counting), then -> group index (fill)
	total int
	err   error
}

// NewShuffleBuilder returns an empty builder.
func NewShuffleBuilder() *ShuffleBuilder {
	return &ShuffleBuilder{slot: make(map[uint64]int)}
}

// Count absorbs one source partition's keyed items into the per-key
// counts. partition is the partition's index, used only for error
// reporting. Each partition must be counted exactly once.
func (b *ShuffleBuilder) Count(partition int, part Partition) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for ii, item := range part {
		key, _, ok := keyedOf(item)
		if !ok {
			if b.err == nil {
				b.err = fmt.Errorf("mbsp: shuffle input partition %d item %d is %T, want KeyedItem", partition, ii, item)
			}
			return
		}
		b.slot[key]++
		b.total++
	}
}

// Finalize runs the fill pass over inputs — which must be the same
// partitions passed to Count, in partition order — and returns the
// grouped shuffle output. Within a group, items keep emission order
// (source partition first, then position); groups route to partitions by
// key % numPartitions with a sorted, deterministic group order.
func (b *ShuffleBuilder) Finalize(inputs []Partition, numPartitions int) ([]Partition, error) {
	if numPartitions <= 0 {
		return nil, fmt.Errorf("mbsp: numPartitions %d must be positive", numPartitions)
	}
	if b.err != nil {
		return nil, b.err
	}
	keys := make([]uint64, 0, len(b.slot))
	for key := range b.slot {
		keys = append(keys, key)
	}
	// Deterministic routing and a deterministic group order inside each
	// partition: sort keys, route by modulo.
	slices.Sort(keys)
	backing := make([]any, b.total)
	groups := make([]Group, len(keys))
	off := 0
	for i, key := range keys {
		n := b.slot[key]
		// Length 0, capacity exactly n: appends in the fill pass land in
		// place and cannot spill into the next group's slot.
		groups[i] = Group{Key: key, Items: backing[off : off : off+n]}
		b.slot[key] = i
		off += n
	}
	// Fill in emission order (source partition first, then position),
	// exactly the order the map-based shuffle appended in.
	for _, part := range inputs {
		for _, item := range part {
			key, v, _ := keyedOf(item)
			g := &groups[b.slot[key]]
			g.Items = append(g.Items, v)
		}
	}
	out := make([]Partition, numPartitions)
	for i := range groups {
		p := int(groups[i].Key % uint64(numPartitions))
		out[p] = append(out[p], groups[i])
	}
	return out, nil
}

// keyedOf extracts the shuffle key and payload from an item, accepting
// both the KeyedItem value form and the *KeyedItem pointer form the
// assign stage emits to avoid per-record interface boxing.
func keyedOf(item any) (uint64, any, bool) {
	switch ki := item.(type) {
	case KeyedItem:
		return ki.Key, ki.Item, true
	case *KeyedItem:
		return ki.Key, ki.Item, true
	}
	return 0, nil, false
}

// Collect concatenates all partitions into one slice at the driver, in
// partition order.
func Collect(parts []Partition) Partition {
	var n int
	for _, p := range parts {
		n += len(p)
	}
	out := make(Partition, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// RoundRobin deals items into p partitions preserving arrival order
// within each partition: item i goes to partition i%p. This is the
// record-distribution strategy of the assign step (§V-A: "assign incoming
// records with different timestamps into different tasks in a round-robin
// way").
func RoundRobin(items []Item, p int) ([]Partition, error) {
	if p <= 0 {
		return nil, fmt.Errorf("mbsp: partitions %d must be positive", p)
	}
	out := make([]Partition, p)
	per := (len(items) + p - 1) / p
	for i := range out {
		out[i] = make(Partition, 0, per)
	}
	for i, item := range items {
		out[i%p] = append(out[i%p], item)
	}
	return out, nil
}

// Chunk splits items into p contiguous ranges (range partitioning); used
// by the ablation that compares against model-based parallelism for the
// assign step.
func Chunk(items []Item, p int) ([]Partition, error) {
	if p <= 0 {
		return nil, fmt.Errorf("mbsp: partitions %d must be positive", p)
	}
	out := make([]Partition, p)
	n := len(items)
	for i := 0; i < p; i++ {
		lo, hi := i*n/p, (i+1)*n/p
		out[i] = append(Partition(nil), items[lo:hi]...)
	}
	return out, nil
}

// Metrics returns the stage metrics accumulated since the last Reset, in
// execution order. The returned slice is a copy.
func (e *Engine) Metrics() []StageMetrics {
	out := make([]StageMetrics, len(e.metrics))
	copy(out, e.metrics)
	return out
}

// ResetMetrics clears accumulated metrics.
func (e *Engine) ResetMetrics() { e.metrics = e.metrics[:0] }

// Close closes the underlying executor.
func (e *Engine) Close() error { return e.exec.Close() }
