package diststream_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"diststream"
	"diststream/internal/stream"
	"diststream/internal/vector"
)

var errInjectedCrash = errors.New("injected driver crash")

// newFacadeAlgo builds one of the two acceptance algorithms with small,
// test-friendly parameters.
func newFacadeAlgo(t *testing.T, sys *diststream.System, name string) diststream.Algorithm {
	t.Helper()
	var (
		algo diststream.Algorithm
		err  error
	)
	switch name {
	case "clustream":
		algo, err = sys.NewCluStream(diststream.CluStreamOptions{
			Dim:              4,
			MaxMicroClusters: 20,
			NumMacro:         2,
			NewRadius:        2,
		})
	case "denstream":
		algo, err = sys.NewDenStream(diststream.DenStreamOptions{
			Dim: 4, Epsilon: 2, Mu: 4, Beta: 0.5, Lambda: 0.1,
		})
	default:
		t.Fatalf("unknown algorithm %q", name)
	}
	if err != nil {
		t.Fatal(err)
	}
	return algo
}

type ckptFacadeRun struct {
	stats   diststream.RunStats
	mcs     []diststream.MicroCluster
	now     diststream.Time
	assignA int
	assignB int
}

// runCheckpointedFacade executes one checkpointed run through the public
// API. addrs selects the TCP executor (nil = in-process). killAfter > 0
// fails the run with errInjectedCrash after that many batches; doResume
// loads the newest checkpoint from dir first and replays the same stream.
func runCheckpointedFacade(t *testing.T, algoName string, addrs []string, delta bool, dir string, killAfter int, doResume bool) (ckptFacadeRun, error) {
	t.Helper()
	sys, err := diststream.New(diststream.Options{
		Parallelism: 3,
		WorkerAddrs: addrs,
		Execution:   diststream.ExecutionOptions{DeltaBroadcast: delta},
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
	stats, err := pl.RunContext(context.Background(), stream.NewSliceSource(blobStream(1200, 4)))
	if err != nil {
		return ckptFacadeRun{stats: stats}, err
	}
	out := ckptFacadeRun{
		stats: stats,
		mcs:   pl.Model().List(),
		now:   pl.Model().Now(),
	}
	// The offline phase must see the same model: probe the clustering at
	// the two blob centers.
	clustering, err := pl.Offline()
	if err != nil {
		t.Fatal(err)
	}
	out.assignA = clustering.Assign(vector.Vector{0, 0, 0, 0})
	out.assignB = clustering.Assign(vector.Vector{20, 20, 0, 0})
	return out, nil
}

// The tentpole acceptance scenario at the facade level: for CluStream and
// DenStream, on both the in-process and the TCP executor, a run killed
// mid-stream and resumed from its checkpoint ends bit-identical to an
// uninterrupted run — same micro-clusters, same virtual clock, same
// statistics, same offline clustering behavior.
func TestFacadeCheckpointCrashEquivalence(t *testing.T) {
	for _, algoName := range []string{"clustream", "denstream"} {
		// tcp-delta re-runs the TCP scenario with delta broadcast on: a
		// ResumeFrom restart builds a fresh executor with empty per-worker
		// ack state, so the first post-resume broadcast must go out full.
		for _, mode := range []string{"local", "tcp", "tcp-delta"} {
			t.Run(algoName+"/"+mode, func(t *testing.T) {
				var addrs []string
				if mode != "local" {
					_, addrs = startFacadeCluster(t, 3)
				}
				delta := mode == "tcp-delta"
				refDir, runDir := t.TempDir(), t.TempDir()

				reference, err := runCheckpointedFacade(t, algoName, addrs, delta, refDir, -1, false)
				if err != nil {
					t.Fatalf("reference run: %v", err)
				}
				_, err = runCheckpointedFacade(t, algoName, addrs, delta, runDir, 3, false)
				if !errors.Is(err, errInjectedCrash) {
					t.Fatalf("crashed run ended with %v, want the injected crash", err)
				}
				resumed, err := runCheckpointedFacade(t, algoName, addrs, delta, runDir, -1, true)
				if err != nil {
					t.Fatalf("resumed run: %v", err)
				}

				if !reflect.DeepEqual(resumed.mcs, reference.mcs) {
					t.Errorf("micro-clusters diverged: resumed %d MCs, reference %d MCs",
						len(resumed.mcs), len(reference.mcs))
				}
				if resumed.now != reference.now {
					t.Errorf("virtual clock diverged: resumed %v, reference %v", resumed.now, reference.now)
				}
				if resumed.stats.Records != reference.stats.Records ||
					resumed.stats.Batches != reference.stats.Batches ||
					resumed.stats.Checkpoints != reference.stats.Checkpoints {
					t.Errorf("stats diverged: resumed %d records / %d batches / %d checkpoints, reference %d / %d / %d",
						resumed.stats.Records, resumed.stats.Batches, resumed.stats.Checkpoints,
						reference.stats.Records, reference.stats.Batches, reference.stats.Checkpoints)
				}
				if resumed.assignA != reference.assignA || resumed.assignB != reference.assignB {
					t.Errorf("offline assignments diverged: resumed (%d,%d), reference (%d,%d)",
						resumed.assignA, resumed.assignB, reference.assignA, reference.assignB)
				}
				if reference.stats.Checkpoints == 0 {
					t.Error("reference run wrote no checkpoints")
				}
			})
		}
	}
}

func TestFacadeSpeculationOptionWiring(t *testing.T) {
	// An invalid speculation config must be rejected at System construction
	// for the local executor...
	_, err := diststream.New(diststream.Options{
		Parallelism: 2,
		Execution:   diststream.ExecutionOptions{Speculation: &diststream.SpeculationConfig{Multiplier: 0.5}},
	})
	if err == nil {
		t.Fatal("invalid speculation config accepted")
	}
	// ...and a valid one must leave a quiet run unchanged (no stragglers,
	// so no backups launch).
	sys, err := diststream.New(diststream.Options{
		Parallelism: 2,
		Execution:   diststream.ExecutionOptions{Speculation: &diststream.SpeculationConfig{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	pl, err := sys.NewPipeline(newFacadeAlgo(t, sys, "clustream"), diststream.PipelineOptions{
		BatchSeconds: 1,
		InitRecords:  100,
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := pl.Run(stream.NewSliceSource(blobStream(600, 4)))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 500 {
		t.Errorf("Records = %d", stats.Records)
	}
	if stats.SpeculativeWins > stats.SpeculativeLaunches {
		t.Errorf("wins %d exceed launches %d", stats.SpeculativeWins, stats.SpeculativeLaunches)
	}
}
