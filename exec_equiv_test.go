// Executor-equivalence battery: every executor must produce
// byte-identical final model state — across algorithms, broadcast
// encodings, and under fault injection. The local executor ships no
// deltas and packs no fused broadcast frames, so it is the oracle for the
// TCP executor's fused-frame and delta paths. This is the acceptance test
// for the version-pinning rule (batch N+1 always assigns against batch
// N's post-global-update model, however the frames are packed).
package diststream_test

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

	"diststream"
	"diststream/internal/mbsp/rpcexec"
)

type execEquivRun struct {
	stats     diststream.RunStats
	state     []byte // gob-encoded driver model: byte equality = bit identity
	published []int  // Batch of every snapshot publication, in order
}

// runExecEquiv runs the figure workload on the given executor ("local",
// "tcp" or "tcp-delta") under the given batch driver (see batchDrivers)
// and captures the final model's serialized state. When stall is set (TCP
// only), one worker stalls an assign task past the call timeout partway
// through the run, forcing a retry on the fused broadcast+task path.
func runExecEquiv(t *testing.T, algoName, executor, driver string, stall bool) execEquivRun {
	t.Helper()
	diststream.RegisterWireTypes() // EncodeState gob-encodes algorithm MC types
	opts := diststream.Options{
		Execution: diststream.ExecutionOptions{
			CallTimeout: 2 * time.Second,
			MaxRetries:  1,
			Backoff:     10 * time.Millisecond,
		},
	}
	switch executor {
	case "local":
		opts.Parallelism = 3
	case "tcp", "tcp-delta":
		workers, addrs := startFacadeCluster(t, 3)
		opts.WorkerAddrs = addrs
		opts.Execution.DeltaBroadcast = executor == "tcp-delta"
		if stall {
			// Stall exactly one assign task for longer than the call
			// timeout, once the run is past warm-up.
			var fired atomic.Bool
			workers[1].SetFault(func(stage string, task int) (rpcexec.Fault, time.Duration) {
				if stage == "assign" && fired.CompareAndSwap(false, true) {
					return rpcexec.FaultStall, 3 * time.Second
				}
				return rpcexec.FaultNone, 0
			})
		}
	default:
		t.Fatalf("unknown executor %q", executor)
	}
	sys, err := diststream.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	var published []int
	pl, err := sys.NewPipeline(newFacadeAlgo(t, sys, algoName), diststream.PipelineOptions{
		BatchSeconds: 1,
		InitRecords:  100,
		// The hook never runs concurrently with itself, and every
		// publication is joined before the run returns.
		OnSnapshot: func(pub diststream.Published) { published = append(published, pub.Batch) },
	})
	if err != nil {
		t.Fatal(err)
	}
	stats := driveBatches(t, pl, driver, 1, deltaBlobStream(1200, 4))
	state, err := pl.Model().EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	return execEquivRun{stats: stats, state: state, published: published}
}

// TestExecutorEquivalenceBitIdentical is the acceptance matrix:
// {CluStream, DenStream} x {TCP, TCP with delta broadcast} — each final
// model must be byte-equal to the local executor's, with the same run
// shape.
func TestExecutorEquivalenceBitIdentical(t *testing.T) {
	for _, algoName := range []string{"clustream", "denstream"} {
		t.Run(algoName, func(t *testing.T) {
			local := runExecEquiv(t, algoName, "local", "pipelined", false)
			for _, executor := range []string{"tcp", "tcp-delta"} {
				t.Run(executor, func(t *testing.T) {
					got := runExecEquiv(t, algoName, executor, "pipelined", false)
					if !bytes.Equal(got.state, local.state) {
						t.Errorf("model state diverged: %s %d bytes, local %d bytes",
							executor, len(got.state), len(local.state))
					}
					if got.stats.Records != local.stats.Records || got.stats.Batches != local.stats.Batches {
						t.Errorf("run shape diverged: %s %d records / %d batches, local %d / %d",
							executor, got.stats.Records, got.stats.Batches, local.stats.Records, local.stats.Batches)
					}
					if got.stats.UpdatedMCs != local.stats.UpdatedMCs || got.stats.CreatedMCs != local.stats.CreatedMCs {
						t.Errorf("update accounting diverged: %s %d/%d, local %d/%d",
							executor, got.stats.UpdatedMCs, got.stats.CreatedMCs, local.stats.UpdatedMCs, local.stats.CreatedMCs)
					}
					// DenStream decays every micro-cluster each batch, so its
					// diff is never smaller than the snapshot; CluStream's is.
					if executor == "tcp-delta" && algoName == "clustream" && got.stats.DeltaBroadcasts == 0 {
						t.Error("delta run shipped no delta broadcasts: the delta path never engaged")
					}
				})
			}
		})
	}
}

// TestExecutorEquivalenceUnderWorkerStall injects a worker stall longer
// than the call timeout into a TCP run: the fused dispatch must retry
// through the redial-and-replay machinery and still land on a model
// byte-equal to a clean TCP run.
func TestExecutorEquivalenceUnderWorkerStall(t *testing.T) {
	clean := runExecEquiv(t, "clustream", "tcp", "pipelined", false)
	stalled := runExecEquiv(t, "clustream", "tcp", "pipelined", true)
	if !bytes.Equal(stalled.state, clean.state) {
		t.Errorf("model state diverged under stall: stalled %d bytes, clean %d bytes",
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
