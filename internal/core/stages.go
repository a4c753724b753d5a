package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"diststream/internal/mbsp"
)

// stageJob is everything one batch's parallel stages need.
type stageJob struct {
	// model is the per-batch *ModelBroadcast published under
	// BroadcastModel. modelDelta, when non-nil, is offered to workers
	// holding the previous version; the full model is the universal
	// fallback.
	model, modelDelta mbsp.Item
	// config is the once-per-run task config broadcast under
	// BroadcastConfig; nil once it has been delivered.
	config mbsp.Item
	// inputs are the record partitions for the assign stage; their count
	// is also the shuffle fan-out.
	inputs []mbsp.Partition
}

// stageResult is the outcome of one batch's parallel stages.
type stageResult struct {
	// updates are the collected local-update outputs in partition order,
	// ready for the driver's order-aware sort and global update.
	updates mbsp.Partition
	// Per-stage wall times; the assign wall includes the fused broadcast.
	assignWall, shuffleWall, localWall time.Duration
}

// runStages runs the parallel portion of one mini-batch — model
// broadcast, record-parallel assign, shuffle by micro-cluster key,
// model-parallel local update — over the engine's OpAssign and
// OpLocalUpdate ops, and returns the collected updates. It
// waits only on the barriers the data dependencies require:
//
//   - The model broadcast is fused into assign dispatch, so each worker
//     receives its broadcast frame back-to-back with its first task frame
//     instead of the driver paying a broadcast barrier plus a round trip
//     before any task ships. Executors publish the broadcast as a barrier
//     instead when speculation is on.
//   - The shuffle's counting pass streams over assign outputs as tasks
//     complete (counting is commutative); only the deterministic fill
//     pass, which fixes within-group emission order, waits for the assign
//     barrier, so the grouped output equals mbsp.ShuffleByKey's.
//
// Assignment always runs against the model the caller broadcasts, which
// RunContext pins to the previous batch's global update. Errors are
// prefixed with the failing phase ("broadcast config", "broadcast model",
// "assign stage", "shuffle", "local-update stage").
func runStages(ctx context.Context, eng *mbsp.Engine, job *stageJob) (*stageResult, error) {
	// The config broadcast happens once per run, before the first batch's
	// fused dispatch, so workers always hold it before their first task.
	if job.config != nil {
		if err := eng.Broadcast(ctx, BroadcastConfig, job.config); err != nil {
			return nil, fmt.Errorf("broadcast config: %w", err)
		}
	}
	res := &stageResult{}
	sb := mbsp.NewShuffleBuilder()

	assignStart := time.Now()
	keyed, err := eng.DispatchStage(ctx, mbsp.StageSpec{
		Stage:          "assign",
		Op:             OpAssign,
		Inputs:         job.inputs,
		BroadcastID:    BroadcastModel,
		BroadcastValue: job.model,
		BroadcastDelta: job.modelDelta,
		OnTaskDone:     func(task int, out mbsp.Partition) { sb.Count(task, out) },
	})
	if err != nil {
		var be *mbsp.BroadcastError
		if errors.As(err, &be) {
			return nil, fmt.Errorf("broadcast model: %w", be.Err)
		}
		return nil, fmt.Errorf("assign stage: %w", err)
	}
	res.assignWall = time.Since(assignStart)

	shuffleStart := time.Now()
	grouped, err := sb.Finalize(keyed, len(job.inputs))
	if err != nil {
		return nil, fmt.Errorf("shuffle: %w", err)
	}
	res.shuffleWall = time.Since(shuffleStart)

	localStart := time.Now()
	updateParts, err := eng.DispatchStage(ctx, mbsp.StageSpec{
		Stage:  "local-update",
		Op:     OpLocalUpdate,
		Inputs: grouped,
	})
	if err != nil {
		return nil, fmt.Errorf("local-update stage: %w", err)
	}
	res.localWall = time.Since(localStart)

	res.updates = mbsp.Collect(updateParts)
	return res, nil
}
