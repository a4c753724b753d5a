// Package sched makes the batch execution schedule a first-class,
// swappable strategy. A Schedule runs the parallel portion of one
// mini-batch — model broadcast, record-parallel assign, shuffle by
// micro-cluster key, model-parallel local update — over an mbsp engine
// and returns the collected updates for the driver's global step. The
// global step itself is serial by default but not inherently so: with
// core.Config.GlobalShards set and an algorithm exposing
// core.ShardedGlobalUpdater, the driver runs it as parallel per-shard
// reducers plus a serialized residue, byte-identical to the serial path.
//
// Two strategies ship:
//
//   - BSP is the paper's strict bulk-synchronous schedule: broadcast
//     barrier, assign barrier, driver-side shuffle, local-update barrier.
//     It is bit-identical to the historical inlined batch loop.
//   - Pipelined keeps the same stage DAG but removes every barrier the
//     data dependencies do not require: the broadcast is fused into task
//     delivery (each worker's broadcast frame and first assign task ship
//     back-to-back) and the shuffle's counting pass streams over assign
//     outputs as tasks complete. Assignment always runs against the
//     pinned model version produced by the previous batch's global
//     update — the version-pinning rule — so final model state stays
//     byte-equal to BSP's.
//
// The driver-side overlap of batch N's publish/checkpoint tail with
// batch N+1's broadcast+assign lives in core.Pipeline, gated on
// Schedule.Overlapped.
package sched

import (
	"context"
	"fmt"
	"time"

	"diststream/internal/mbsp"
)

// Kind names a schedule strategy.
type Kind string

// Shipped schedule kinds.
const (
	// BSP is the strict bulk-synchronous schedule (the default).
	BSP Kind = "bsp"
	// Pipelined overlaps broadcast, task delivery and shuffle counting,
	// and unlocks the driver-side batch overlap in core.Pipeline.
	Pipelined Kind = "pipelined"
)

// Job is everything a schedule needs to run one batch's parallel stages.
type Job struct {
	// ModelID/Model/ModelDelta describe the per-batch model broadcast.
	// ModelDelta, when non-nil, is offered to workers holding the previous
	// version; the full Model is the universal fallback.
	ModelID    string
	Model      mbsp.Item
	ModelDelta mbsp.Item
	// ConfigID/Config describe the once-per-run task config broadcast.
	// Config is nil when it has already been delivered.
	ConfigID string
	Config   mbsp.Item
	// AssignOp and LocalOp are the registered op names of the two
	// parallel stages.
	AssignOp string
	LocalOp  string
	// Inputs are the record partitions for the assign stage.
	Inputs []mbsp.Partition
	// Partitions is the shuffle fan-out (normally the parallelism degree).
	Partitions int
}

// Result is the outcome of one scheduled batch.
type Result struct {
	// Updates are the collected local-update outputs in partition order,
	// ready for the driver's order-aware sort and global update.
	Updates mbsp.Partition
	// Per-stage wall times, as observed by the schedule. Under the
	// pipelined schedule the assign wall includes the fused broadcast.
	AssignWall, ShuffleWall, LocalWall time.Duration
}

// Schedule runs the parallel stages of mini-batches over an engine.
// Implementations are driven from a single batch loop and need not be
// safe for concurrent use.
type Schedule interface {
	// Kind returns the strategy name.
	Kind() Kind
	// Overlapped reports whether the driver may overlap this schedule's
	// batch execution with the previous batch's publish/checkpoint tail
	// and the next batch's prefetch (core.Pipeline honors it).
	Overlapped() bool
	// RunBatch executes one batch's broadcast, assign, shuffle and local
	// update, returning the collected updates. Errors are prefixed with
	// the failing phase ("broadcast model", "assign stage", "shuffle",
	// "local-update stage") for the driver to wrap.
	RunBatch(ctx context.Context, eng *mbsp.Engine, job *Job) (*Result, error)
}

// New returns the schedule implementing kind. An empty kind selects BSP.
func New(kind Kind) (Schedule, error) {
	switch kind {
	case "", BSP:
		return bspSchedule{}, nil
	case Pipelined:
		return pipelinedSchedule{}, nil
	default:
		return nil, fmt.Errorf("sched: unknown schedule %q (want %q or %q)", kind, BSP, Pipelined)
	}
}

// Kinds lists the shipped schedule kinds, for flag help text.
func Kinds() []Kind { return []Kind{BSP, Pipelined} }
