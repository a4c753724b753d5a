// Shard-equivalence battery: with GlobalShards set, the sharded global
// update must produce byte-identical final model state to the serial
// path — across algorithms, batch drivers and executors — and algorithms
// without the ShardedGlobalUpdater capability must transparently fall
// back to the serial path. This is the acceptance test for the sharded
// order-aware global update (make shard-smoke runs it under -race).
package diststream_test

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"diststream"
	"diststream/internal/stream"
)

type shardEquivRun struct {
	stats diststream.RunStats
	state []byte // gob-encoded driver model: byte equality = bit identity
}

// runShardEquiv runs the figure workload under the given batch driver
// (see batchDrivers) with the given shard count (0 = serial) and captures
// the final model's serialized state.
func runShardEquiv(t *testing.T, algoName, executor, driver string, shards int) shardEquivRun {
	t.Helper()
	diststream.RegisterWireTypes()
	opts := diststream.Options{
		Execution: diststream.ExecutionOptions{GlobalShards: shards},
	}
	switch executor {
	case "local":
		opts.Parallelism = 3
	case "tcp":
		_, addrs := startFacadeCluster(t, 3)
		opts.WorkerAddrs = addrs
	default:
		t.Fatalf("unknown executor %q", executor)
	}
	sys, err := diststream.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	pl, err := sys.NewPipeline(newFacadeAlgo(t, sys, algoName), diststream.PipelineOptions{
		BatchSeconds: 1,
		InitRecords:  100,
	})
	if err != nil {
		t.Fatal(err)
	}
	stats := driveBatches(t, pl, driver, 1, deltaBlobStream(1200, 4))
	state, err := pl.Model().EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	return shardEquivRun{stats: stats, state: state}
}

// TestShardedGlobalEquivalenceBitIdentical is the acceptance matrix:
// {CluStream, DenStream} x {bsp, pipelined} x {local, TCP} — the sharded
// global update's final model must be byte-equal to the serial path's,
// with the same run shape, and the sharded path must actually engage.
func TestShardedGlobalEquivalenceBitIdentical(t *testing.T) {
	for _, algoName := range []string{"clustream", "denstream"} {
		for _, driver := range batchDrivers {
			for _, executor := range []string{"local", "tcp"} {
				t.Run(algoName+"/"+driver+"/"+executor, func(t *testing.T) {
					serial := runShardEquiv(t, algoName, executor, driver, 0)
					sharded := runShardEquiv(t, algoName, executor, driver, 4)
					if !bytes.Equal(sharded.state, serial.state) {
						t.Errorf("model state diverged: sharded %d bytes, serial %d bytes",
							len(sharded.state), len(serial.state))
					}
					if sharded.stats.Records != serial.stats.Records || sharded.stats.Batches != serial.stats.Batches {
						t.Errorf("run shape diverged: sharded %d records / %d batches, serial %d / %d",
							sharded.stats.Records, sharded.stats.Batches, serial.stats.Records, serial.stats.Batches)
					}
					if serial.stats.ShardedGlobalBatches != 0 {
						t.Errorf("serial run reported %d sharded batches", serial.stats.ShardedGlobalBatches)
					}
					if sharded.stats.ShardedGlobalBatches != sharded.stats.Batches {
						t.Errorf("sharded path engaged on %d of %d batches",
							sharded.stats.ShardedGlobalBatches, sharded.stats.Batches)
					}
				})
			}
		}
	}
}

// TestShardedGlobalFallbackWithoutCapability pins the capability
// detection: D-Stream has no sharded decomposition, so GlobalShards must
// transparently keep the serial path — same bytes, zero sharded batches,
// no error.
func TestShardedGlobalFallbackWithoutCapability(t *testing.T) {
	run := func(shards int) shardEquivRun {
		diststream.RegisterWireTypes()
		sys, err := diststream.New(diststream.Options{
			Parallelism: 3,
			Execution:   diststream.ExecutionOptions{GlobalShards: shards},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		algo, err := sys.NewDStream(diststream.DStreamOptions{Dim: 4})
		if err != nil {
			t.Fatal(err)
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
		return shardEquivRun{stats: stats, state: state}
	}
	serial := run(0)
	sharded := run(4)
	if !bytes.Equal(sharded.state, serial.state) {
		t.Error("dstream state changed when GlobalShards was set")
	}
	if sharded.stats.ShardedGlobalBatches != 0 {
		t.Errorf("dstream reported %d sharded batches without the capability", sharded.stats.ShardedGlobalBatches)
	}
}

// TestShardedResumeFromCheckpoint covers the resume edge case from the
// satellite checklist: a run with sharding on, killed mid-stream and
// resumed from its checkpoint, must end byte-identical to an
// uninterrupted sharded run — the shard planner holds no cross-batch
// state the checkpoint could miss.
func TestShardedResumeFromCheckpoint(t *testing.T) {
	run := func(algoName, dir string, killAfter int, doResume bool) (shardEquivRun, error) {
		diststream.RegisterWireTypes()
		sys, err := diststream.New(diststream.Options{
			Parallelism: 3,
			Execution:   diststream.ExecutionOptions{GlobalShards: 3},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		batches := 0
		pl, err := sys.NewPipeline(newFacadeAlgo(t, sys, algoName), diststream.PipelineOptions{
			BatchSeconds: 1,
			InitRecords:  100,
			Checkpoint:   &diststream.CheckpointConfig{Dir: dir, EveryNBatches: 2},
			OnBatch: func(stream.Batch, *diststream.Model) error {
				batches++
				if killAfter > 0 && batches == killAfter {
					return errInjectedCrash
				}
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if doResume {
			if err := pl.ResumeFrom(dir); err != nil {
				t.Fatal(err)
			}
		}
		stats, err := pl.RunContext(context.Background(), stream.NewSliceSource(deltaBlobStream(1200, 4)))
		if err != nil {
			return shardEquivRun{}, err
		}
		state, err := pl.Model().EncodeState()
		if err != nil {
			t.Fatal(err)
		}
		return shardEquivRun{stats: stats, state: state}, nil
	}
	for _, algoName := range []string{"clustream", "denstream"} {
		t.Run(algoName, func(t *testing.T) {
			refDir, runDir := t.TempDir(), t.TempDir()
			reference, err := run(algoName, refDir, -1, false)
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}
			if _, err := run(algoName, runDir, 3, false); !errors.Is(err, errInjectedCrash) {
				t.Fatalf("crashed run ended with %v, want the injected crash", err)
			}
			resumed, err := run(algoName, runDir, -1, true)
			if err != nil {
				t.Fatalf("resumed run: %v", err)
			}
			if !bytes.Equal(resumed.state, reference.state) {
				t.Error("resumed sharded run diverged from uninterrupted sharded run")
			}
			if resumed.stats.ShardedGlobalBatches == 0 {
				t.Error("resumed run never took the sharded path")
			}
		})
	}
}
