// Batched-assign equivalence: the blocked many-vs-many assign path must
// land on byte-identical final model state to the per-record scalar
// path, at the facade level, for both flat-index acceptance algorithms.
// This is the end-to-end check behind the kernel-level differential
// fuzzing — if the batched argmin, the absorb tests, or the outlier
// dealing diverged anywhere, the gob-encoded models would differ.
package diststream_test

import (
	"bytes"
	"context"
	"testing"

	"diststream"
	"diststream/internal/core"
	"diststream/internal/stream"
)

type batchEquivRun struct {
	stats diststream.RunStats
	state []byte // gob-encoded driver model: byte equality = bit identity
}

// scalarAlgorithm wraps every snapshot its algorithm builds in a
// scalarSnapshot, so the assign op takes its per-record loop.
type scalarAlgorithm struct{ diststream.Algorithm }

func (a scalarAlgorithm) NewSnapshot(mcs []core.MicroCluster) core.Snapshot {
	return scalarSnapshot{a.Algorithm.NewSnapshot(mcs)}
}

// scalarSnapshot hides every optional capability of the snapshot it
// wraps — core.BatchNearester in particular.
type scalarSnapshot struct{ core.Snapshot }

// runBatchEquiv runs the figure workload on the local executor, batched
// or through scalarAlgorithm, and captures the final model state. The
// wrapped snapshots are not wire types, so this battery uses the
// in-process executor (the schedule/shard batteries already cover
// cross-executor identity of the assign output).
func runBatchEquiv(t *testing.T, algoName string, batched bool) batchEquivRun {
	t.Helper()
	diststream.RegisterWireTypes()
	sys, err := diststream.New(diststream.Options{Parallelism: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	algo := newFacadeAlgo(t, sys, algoName)
	if !batched {
		algo = scalarAlgorithm{algo}
	}
	pl, err := sys.NewPipeline(algo, diststream.PipelineOptions{
		BatchSeconds: 1,
		InitRecords:  100,
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := pl.RunContext(context.Background(), stream.NewSliceSource(deltaBlobStream(1200, 4)))
	if err != nil {
		t.Fatal(err)
	}
	state, err := pl.Model().EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	return batchEquivRun{stats: stats, state: state}
}

// TestBatchAssignEquivalenceBitIdentical is the facade acceptance matrix
// for the batched assign rewrite: {CluStream, DenStream}, batched vs
// scalar, byte-equal models and identical run accounting.
func TestBatchAssignEquivalenceBitIdentical(t *testing.T) {
	for _, algoName := range []string{"clustream", "denstream"} {
		t.Run(algoName, func(t *testing.T) {
			scalar := runBatchEquiv(t, algoName, false)
			batched := runBatchEquiv(t, algoName, true)
			if !bytes.Equal(batched.state, scalar.state) {
				t.Errorf("model state diverged: batched %d bytes, scalar %d bytes",
					len(batched.state), len(scalar.state))
			}
			if batched.stats.Records != scalar.stats.Records || batched.stats.Batches != scalar.stats.Batches {
				t.Errorf("run shape diverged: batched %d records / %d batches, scalar %d / %d",
					batched.stats.Records, batched.stats.Batches, scalar.stats.Records, scalar.stats.Batches)
			}
			if batched.stats.UpdatedMCs != scalar.stats.UpdatedMCs || batched.stats.CreatedMCs != scalar.stats.CreatedMCs {
				t.Errorf("update accounting diverged: batched %d/%d, scalar %d/%d",
					batched.stats.UpdatedMCs, batched.stats.CreatedMCs, scalar.stats.UpdatedMCs, scalar.stats.CreatedMCs)
			}
		})
	}
}
