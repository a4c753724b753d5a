package sched

import (
	"context"
	"errors"
	"fmt"
	"time"

	"diststream/internal/mbsp"
)

// pipelinedSchedule keeps the BSP stage DAG but strips the barriers the
// data dependencies do not require:
//
//   - The model broadcast is fused into assign dispatch (StageSpec with a
//     broadcast), so each worker receives its broadcast frame pipelined
//     with its first task frame instead of the driver paying a full
//     broadcast barrier plus a round trip before any task ships.
//   - The shuffle's counting pass runs incrementally over assign outputs
//     as tasks complete (counting is commutative); only the deterministic
//     fill pass — which fixes within-group emission order — waits for the
//     assign barrier, so the grouped output is bit-identical to
//     ShuffleByKey's.
//
// What it deliberately does NOT do is assign batch N+1 against anything
// but the model produced by batch N's global update (the version-pinning
// rule): re-routing records against a stale model version would change
// record→micro-cluster assignment and break byte-equality with BSP.
// Under speculation the executors publish the broadcast as a barrier
// instead of fusing it, so the schedule is safe (if winless) there.
type pipelinedSchedule struct{}

// Kind implements Schedule.
func (pipelinedSchedule) Kind() Kind { return Pipelined }

// Overlapped implements Schedule: core.Pipeline may overlap this
// schedule's batches with the previous batch's publish/checkpoint tail
// and the next batch's prefetch.
func (pipelinedSchedule) Overlapped() bool { return true }

// RunBatch implements Schedule.
func (pipelinedSchedule) RunBatch(ctx context.Context, eng *mbsp.Engine, job *Job) (*Result, error) {
	// The config broadcast happens once per run, before the first batch's
	// fused dispatch, so workers always hold it before their first task.
	if job.Config != nil {
		if err := eng.Broadcast(ctx, job.ConfigID, job.Config); err != nil {
			return nil, fmt.Errorf("broadcast config: %w", err)
		}
	}
	res := &Result{}
	sb := mbsp.NewShuffleBuilder()

	assignStart := time.Now()
	keyed, err := eng.DispatchStage(ctx, mbsp.StageSpec{
		Stage:          "assign",
		Op:             job.AssignOp,
		Inputs:         job.Inputs,
		BroadcastID:    job.ModelID,
		BroadcastValue: job.Model,
		BroadcastDelta: job.ModelDelta,
		// Stream each completed assign output into the shuffle's counting
		// pass while other tasks are still in flight.
		OnTaskDone: func(task int, out mbsp.Partition) { sb.Count(task, out) },
	})
	if err != nil {
		var be *mbsp.BroadcastError
		if errors.As(err, &be) {
			return nil, fmt.Errorf("broadcast model: %w", be.Err)
		}
		return nil, fmt.Errorf("assign stage: %w", err)
	}
	res.AssignWall = time.Since(assignStart)

	// Counting already happened; only the deterministic fill pass (and
	// group routing) remains on the driver.
	shuffleStart := time.Now()
	grouped, err := sb.Finalize(keyed, job.Partitions)
	if err != nil {
		return nil, fmt.Errorf("shuffle: %w", err)
	}
	res.ShuffleWall = time.Since(shuffleStart)

	localStart := time.Now()
	updateParts, err := eng.DispatchStage(ctx, mbsp.StageSpec{
		Stage:  "local-update",
		Op:     job.LocalOp,
		Inputs: grouped,
	})
	if err != nil {
		return nil, fmt.Errorf("local-update stage: %w", err)
	}
	res.LocalWall = time.Since(localStart)

	res.Updates = mbsp.Collect(updateParts)
	return res, nil
}
