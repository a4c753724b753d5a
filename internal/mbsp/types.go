// Package mbsp implements a mini-batch stream-processing engine — the
// substrate that substitutes for Spark Streaming in the paper. It provides
// exactly the dataflow pieces the DistStream pipeline needs:
//
//   - a driver that runs synchronous parallel stages over partitions,
//   - broadcast variables (the micro-cluster model is broadcast to every
//     task at the start of each batch, §V-A),
//   - a group-by-key shuffle between the assign and local-update stages,
//   - per-task metrics, from which straggler statistics (§VII-D2) and the
//     per-stage latency breakdown are derived,
//   - two executors: an in-process goroutine pool and a TCP executor
//     (package rpcexec) that ships tasks to worker processes with gob.
//
// Tasks are expressed as registered, named operations rather than
// closures so that the same pipeline code runs on both executors (a
// remote worker cannot receive a Go closure; it links the same operation
// registry instead — the moral equivalent of Spark shipping a jar).
package mbsp

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Item is one opaque element flowing through a stage.
type Item = any

// Partition is an ordered slice of items processed by one task.
type Partition []Item

// KeyedItem is an item tagged with a shuffle key. Stages that feed a
// group-by-key emit these.
type KeyedItem struct {
	Key  uint64
	Item Item
}

// Group is the result of grouping keyed items: all items that share a key,
// in the order they were emitted across source partitions (source
// partition index first, then position).
type Group struct {
	Key   uint64
	Items []Item
}

// TaskMetrics records the execution of one task.
type TaskMetrics struct {
	Stage    string
	TaskID   int
	WorkerID int
	// Duration is the task's wall-clock execution time, including any
	// injected straggler delay.
	Duration time.Duration
	// InItems and OutItems count the task's input and output sizes.
	InItems, OutItems int
	// Retries counts extra executions beyond the first attempt: op-level
	// re-runs on the local executor, transport retries and re-dispatches
	// after a worker loss on the TCP executor. 0 means the task succeeded
	// first try.
	Retries int
	// Speculative marks a task for which a backup copy was launched
	// because the primary exceeded the stage's straggler bound;
	// SpeculativeWin additionally marks that the backup's result was the
	// one committed.
	Speculative    bool
	SpeculativeWin bool
}

// StageMetrics aggregates one stage execution.
type StageMetrics struct {
	Stage string
	Tasks []TaskMetrics
	// Wall is the stage's end-to-end wall time (barrier to barrier).
	Wall time.Duration
	// Failed marks a stage whose execution returned an error. Task metrics
	// for the tasks that did complete are still present, so callers can
	// tell a failed stage from a successful one instead of inferring it
	// from a missing result.
	Failed bool
}

// Retries sums the per-task retry counts: how many extra task executions
// (beyond one per task) the stage needed to complete.
func (s StageMetrics) Retries() int {
	n := 0
	for _, t := range s.Tasks {
		n += t.Retries
	}
	return n
}

// SpeculativeLaunches counts tasks for which a backup copy was
// dispatched.
func (s StageMetrics) SpeculativeLaunches() int {
	n := 0
	for _, t := range s.Tasks {
		if t.Speculative {
			n++
		}
	}
	return n
}

// SpeculativeWins counts tasks whose committed result came from the
// backup copy rather than the original straggling attempt.
func (s StageMetrics) SpeculativeWins() int {
	n := 0
	for _, t := range s.Tasks {
		if t.SpeculativeWin {
			n++
		}
	}
	return n
}

// StragglerThreshold is the paper's straggler definition: a task is a
// straggler when its execution time exceeds 1.2x the stage average.
const StragglerThreshold = 1.2

// TotalTaskTime returns the sum of all task durations (the work the stage
// would cost a single core).
func (s StageMetrics) TotalTaskTime() time.Duration {
	var total time.Duration
	for _, t := range s.Tasks {
		total += t.Duration
	}
	return total
}

// MeanTaskTime returns the average task duration, or 0 with no tasks.
func (s StageMetrics) MeanTaskTime() time.Duration {
	if len(s.Tasks) == 0 {
		return 0
	}
	return s.TotalTaskTime() / time.Duration(len(s.Tasks))
}

// MaxTaskTime returns the slowest task's duration.
func (s StageMetrics) MaxTaskTime() time.Duration {
	var m time.Duration
	for _, t := range s.Tasks {
		if t.Duration > m {
			m = t.Duration
		}
	}
	return m
}

// Stragglers counts tasks slower than StragglerThreshold times the mean
// (the paper's definition: "tasks with execution time that exceed 1.2X of
// the average").
func (s StageMetrics) Stragglers() int {
	mean := s.MeanTaskTime()
	if mean == 0 {
		return 0
	}
	limit := time.Duration(float64(mean) * StragglerThreshold)
	n := 0
	for _, t := range s.Tasks {
		if t.Duration > limit {
			n++
		}
	}
	return n
}

// StragglerFraction returns Stragglers()/len(Tasks), or 0 with no tasks.
func (s StageMetrics) StragglerFraction() float64 {
	if len(s.Tasks) == 0 {
		return 0
	}
	return float64(s.Stragglers()) / float64(len(s.Tasks))
}

// Capabilities describes what an executor can do beyond the stage
// contract every executor meets, so the driver selects behavior without
// executor-specific type switches.
type Capabilities struct {
	// DeltaBroadcast reports that the executor ships broadcast deltas to
	// workers holding the previous value (the DeltaBroadcaster interface,
	// enabled in its configuration).
	DeltaBroadcast bool
	// ElasticMembership reports that the executor implements
	// MembershipReconciler: its worker set is a runtime quantity, and the
	// driver should reconcile membership at every batch boundary so
	// departed workers are retired and joiners admitted.
	ElasticMembership bool
}

// Capable is the capability-discovery interface. NewEngine requires it:
// an executor reports its optional capabilities itself.
type Capable interface {
	Capabilities() Capabilities
}

// StageSpec describes one dispatched stage: a parallel map over Inputs,
// optionally fused with a broadcast that every worker must observe before
// running any task of the stage, and an optional per-task completion
// callback that streams outputs to the caller as they arrive.
type StageSpec struct {
	// Stage and Op name the stage (metrics) and the registered operation.
	Stage string
	Op    string
	// Inputs are the task partitions; task i processes Inputs[i].
	Inputs []Partition
	// BroadcastID, when non-empty, fuses a broadcast into the dispatch:
	// BroadcastValue is published under the id to every live worker before
	// that worker runs any task of this stage. BroadcastDelta, when
	// non-nil, is offered to workers holding the previous version exactly
	// as in DeltaBroadcaster.BroadcastDelta.
	BroadcastID    string
	BroadcastValue Item
	BroadcastDelta Item
	// OnTaskDone, when set, is called exactly once per successful task
	// with its output partition, as soon as the task commits, and before
	// DispatchStage returns its outputs. Calls may come from concurrent
	// dispatch goroutines; the callback must be safe for concurrent use.
	// Failed, discarded, re-dispatched and losing speculative copies do
	// not fire it; the committed copy does.
	OnTaskDone func(task int, out Partition)
}

// StageDispatcher is the stage half of the executor contract NewEngine
// enforces: executing a whole StageSpec, with the broadcast fused into
// task delivery and outputs streamed through OnTaskDone. Outputs are
// still returned in input order, like RunTasks. An executor's RunTasks
// and DispatchStage run through one stage runner; RunTasks is the
// broadcast-free, callback-free special case.
type StageDispatcher interface {
	DispatchStage(ctx context.Context, spec StageSpec) ([]Partition, []TaskMetrics, error)
}

// MembershipDelta reports what one membership reconciliation changed:
// which workers entered the dispatch rotation and which left it. The
// slot count (Parallelism) never changes, so task partitioning — and
// therefore output — is unaffected by churn.
type MembershipDelta struct {
	// Joined lists worker addresses admitted (or readmitted) into the
	// rotation, already caught up via full broadcast replay.
	Joined []string
	// Departed lists worker addresses that left the rotation since the
	// previous reconciliation (crash, exhausted probes, or clean drain).
	Departed []string
}

// MembershipReconciler is an optional Executor capability (advertised
// through Capabilities().ElasticMembership): applying pending membership
// changes — retiring departed workers, admitting joiners into vacant
// slots — at a quiescent point. The driver must call it only between
// batches, never while a stage is in flight.
type MembershipReconciler interface {
	ReconcileMembership(ctx context.Context) (MembershipDelta, error)
}

// BroadcastError marks a dispatched stage that failed while publishing
// its fused broadcast (as opposed to a task failure), so callers can
// report the two phases distinctly.
type BroadcastError struct {
	ID  string
	Err error
}

// Error implements error.
func (e *BroadcastError) Error() string {
	return fmt.Sprintf("mbsp: broadcast %q: %v", e.ID, e.Err)
}

// Unwrap exposes the underlying failure.
func (e *BroadcastError) Unwrap() error { return e.Err }

// Executor runs the tasks of one stage in parallel. Implementations must
// return outputs in input-partition order (output[i] is the result of
// inputs[i]) regardless of scheduling. NewEngine additionally requires
// Capable and StageDispatcher; DeltaBroadcaster and MembershipReconciler
// stay optional, advertised through Capabilities.
type Executor interface {
	// Parallelism returns the number of workers (the paper's parallelism
	// degree p).
	Parallelism() int
	// Broadcast publishes a value under an id so that subsequent tasks can
	// read it via TaskContext.Broadcast. Re-broadcasting an id replaces
	// the value (the model is re-broadcast every batch). The context
	// bounds the publication; a canceled context aborts it.
	Broadcast(ctx context.Context, id string, value Item) error
	// RunTasks executes the named op over each input partition as one
	// task, in parallel, and returns per-partition outputs plus metrics.
	// Cancelling the context stops the stage between tasks (and, for
	// executors with in-flight network calls, interrupts those calls);
	// RunTasks then returns the context's error.
	RunTasks(ctx context.Context, stage, op string, inputs []Partition) ([]Partition, []TaskMetrics, error)
	// Close releases executor resources. The executor is unusable after.
	Close() error
}

// BroadcastDelta is implemented by broadcast values that are differences
// against the value previously published under the same id. An executor
// that ships deltas applies them against the receiver's current value,
// or against nil when it holds none; ApplyDelta must not mutate old
// (other tasks may still read it) and must fail — never guess — when old
// is not the base the delta was computed from, so the sender can fall
// back to publishing the full value.
type BroadcastDelta interface {
	ApplyDelta(old Item) (Item, error)
}

// DeltaBroadcaster is an optional Executor capability: publishing a
// broadcast as a small delta for receivers that are known to hold the
// previous value, with the full value as the universal fallback (fresh
// workers, reconnects, failed delta application). Executors without the
// capability — or with it disabled — receive the full value through the
// plain Broadcast path instead.
type DeltaBroadcaster interface {
	// BroadcastDelta publishes full under id, shipping delta (which must
	// implement BroadcastDelta) to receivers that hold the previous
	// version and full to everyone else. After it returns, every live
	// receiver observes a value identical to full.
	BroadcastDelta(ctx context.Context, id string, full, delta Item) error
	// DeltaBroadcastEnabled reports whether deltas are actually shipped;
	// callers can skip computing a delta when false.
	DeltaBroadcastEnabled() bool
}

// Common engine errors.
var (
	// ErrUnknownOp is returned when a task references an op name that is
	// not in the registry.
	ErrUnknownOp = errors.New("mbsp: unknown op")
	// ErrClosed is returned when using a closed executor.
	ErrClosed = errors.New("mbsp: executor closed")
	// ErrNoBroadcast is returned by TaskContext.Broadcast for missing ids.
	ErrNoBroadcast = errors.New("mbsp: broadcast id not found")
)

// TaskError wraps a failure of a single task with its location.
type TaskError struct {
	Stage  string
	TaskID int
	Err    error
}

// Error implements error.
func (e *TaskError) Error() string {
	return fmt.Sprintf("mbsp: stage %q task %d: %v", e.Stage, e.TaskID, e.Err)
}

// Unwrap exposes the underlying task failure.
func (e *TaskError) Unwrap() error { return e.Err }

// PanicError is a panic inside an op, caught at the task boundary and
// converted into an ordinary task error so one bad record cannot take
// down an executor. It flows through the same retry/abort path as any
// other task failure.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("mbsp: op panicked: %v\n%s", e.Value, e.Stack)
}

// SpeculationConfig enables speculative re-execution of straggling
// tasks, mirroring Spark's spark.speculation knobs. The scheduler
// tracks completed task durations per stage; once at least MinCompleted
// tasks have finished, any still-running task whose elapsed time
// exceeds Multiplier times the stage median gets a backup copy
// dispatched to an idle worker. First result wins, with a deterministic
// tie-break (the primary's result is kept when both have committed
// nothing yet and the primary arrives first under the tracker lock) —
// ops are pure functions of (broadcasts, partition), so either copy
// yields the same output and order-aware semantics are unchanged.
type SpeculationConfig struct {
	// Multiplier is the straggler bound as a multiple of the stage
	// median task duration. Default 1.5.
	Multiplier float64
	// MinCompleted is how many tasks must finish before speculation can
	// trigger (the median is meaningless earlier). Default 2.
	MinCompleted int
	// Poll is how often idle workers look for straggling tasks to back
	// up. Default 1ms.
	Poll time.Duration
}

// WithDefaults validates the config and fills in defaults. Executors
// (local and rpcexec) call it once at construction.
func (c *SpeculationConfig) WithDefaults() (SpeculationConfig, error) {
	out := *c
	if out.Multiplier < 0 {
		return out, fmt.Errorf("mbsp: speculation multiplier %v must not be negative", out.Multiplier)
	}
	if out.Multiplier == 0 {
		out.Multiplier = 1.5
	}
	if out.Multiplier < 1 {
		return out, fmt.Errorf("mbsp: speculation multiplier %v must be at least 1", out.Multiplier)
	}
	if out.MinCompleted < 0 {
		return out, fmt.Errorf("mbsp: speculation MinCompleted %d must not be negative", out.MinCompleted)
	}
	if out.MinCompleted == 0 {
		out.MinCompleted = 2
	}
	if out.Poll < 0 {
		return out, fmt.Errorf("mbsp: speculation poll %v must not be negative", out.Poll)
	}
	if out.Poll == 0 {
		out.Poll = time.Millisecond
	}
	return out, nil
}
