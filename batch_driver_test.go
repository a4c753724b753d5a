package diststream_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"slices"
	"testing"

	"diststream"
	"diststream/internal/stream"
	"diststream/internal/vclock"
)

// batchDrivers names the two ways the equivalence batteries drive a
// pipeline over the same stream, and both must land on the same model:
//
//   - "bsp" cuts the batches itself and takes each one to completion with
//     ProcessBatchContext: stages, global update and publication in
//     bulk-synchronous order, with nothing overlapped;
//   - "pipelined" is RunContext's batch loop, which overlaps each batch's
//     publish/checkpoint tail and the next batch's prefetch with the
//     stages.
var batchDrivers = []string{"bsp", "pipelined"}

// driveBatches runs recs through pl with the named driver, cutting
// batches of batchSeconds of virtual time, and returns the run's stats.
func driveBatches(t *testing.T, pl *diststream.Pipeline, driver string, batchSeconds float64, recs []diststream.Record) diststream.RunStats {
	t.Helper()
	ctx := context.Background()
	src := stream.NewSliceSource(recs)
	switch driver {
	case "pipelined":
		stats, err := pl.RunContext(ctx, src)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	case "bsp":
		batcher, err := stream.NewBatcher(src, vclock.Duration(batchSeconds))
		if err != nil {
			t.Fatal(err)
		}
		for {
			batch, err := batcher.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := pl.ProcessBatchContext(ctx, batch); err != nil {
				t.Fatal(err)
			}
		}
		if !pl.Initialized() {
			t.Fatal("stream ended inside warm-up: the bsp driver does not finish a partial initialization")
		}
		return pl.Stats()
	default:
		t.Fatalf("unknown batch driver %q", driver)
		return diststream.RunStats{}
	}
}

// TestScheduleEquivalenceBitIdentical holds RunContext's overlapped loop
// to the bulk-synchronous schedule: {CluStream, DenStream} x {local, TCP}
// — the pipelined run's final model must be byte-equal to the bsp run's,
// with the same run shape and the same publications in the same order.
func TestScheduleEquivalenceBitIdentical(t *testing.T) {
	for _, algoName := range []string{"clustream", "denstream"} {
		for _, executor := range []string{"local", "tcp"} {
			t.Run(algoName+"/"+executor, func(t *testing.T) {
				bsp := runExecEquiv(t, algoName, executor, "bsp", false)
				pip := runExecEquiv(t, algoName, executor, "pipelined", false)
				if !bytes.Equal(pip.state, bsp.state) {
					t.Errorf("model state diverged: pipelined %d bytes, bsp %d bytes",
						len(pip.state), len(bsp.state))
				}
				if pip.stats.Records != bsp.stats.Records || pip.stats.Batches != bsp.stats.Batches {
					t.Errorf("run shape diverged: pipelined %d records / %d batches, bsp %d / %d",
						pip.stats.Records, pip.stats.Batches, bsp.stats.Records, bsp.stats.Batches)
				}
				if pip.stats.UpdatedMCs != bsp.stats.UpdatedMCs || pip.stats.CreatedMCs != bsp.stats.CreatedMCs {
					t.Errorf("update accounting diverged: pipelined %d/%d, bsp %d/%d",
						pip.stats.UpdatedMCs, pip.stats.CreatedMCs, bsp.stats.UpdatedMCs, bsp.stats.CreatedMCs)
				}
				if !slices.Equal(pip.published, bsp.published) {
					t.Errorf("publications diverged: pipelined %v, bsp %v", pip.published, bsp.published)
				}
			})
		}
	}
}

// TestScheduleEquivalenceUnderWorkerStall injects a worker stall longer
// than the call timeout into a pipelined TCP run: the fused dispatch must
// retry through the redial-and-replay machinery and still land on a model
// byte-equal to a clean bsp run.
func TestScheduleEquivalenceUnderWorkerStall(t *testing.T) {
	clean := runExecEquiv(t, "clustream", "tcp", "bsp", false)
	stalled := runExecEquiv(t, "clustream", "tcp", "pipelined", true)
	if !bytes.Equal(stalled.state, clean.state) {
		t.Errorf("model state diverged under stall: pipelined %d bytes, clean bsp %d bytes",
			len(stalled.state), len(clean.state))
	}
	if stalled.stats.TaskRetries == 0 {
		t.Error("stalled run reported no task retries: the fault never engaged")
	}
	if stalled.stats.Records != clean.stats.Records || stalled.stats.Batches != clean.stats.Batches {
		t.Errorf("run shape diverged: stalled %d records / %d batches, clean %d / %d",
			stalled.stats.Records, stalled.stats.Batches, clean.stats.Records, clean.stats.Batches)
	}
}
