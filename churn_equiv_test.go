package diststream_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"diststream"
	"diststream/internal/core"
	"diststream/internal/mbsp"
	"diststream/internal/mbsp/rpcexec"
	"diststream/internal/membership"
	"diststream/internal/stream"
)

type churnFacadeRun struct {
	stats diststream.RunStats
	state []byte // gob-encoded driver model: byte equality = bit identity
}

// runChurnFacade runs one pipeline over a fresh 3-worker TCP cluster.
// With churn set, membership is enabled and at batch 3 one worker is
// killed while a freshly started replacement announces itself to the
// system's membership listener; the driver must retire the dead slot,
// admit the joiner with full catch-up, and keep the output identical.
// driver names the batch driver (see batchDrivers).
func runChurnFacade(t *testing.T, algoName, driver string, churn bool) churnFacadeRun {
	t.Helper()
	workers, addrs := startFacadeCluster(t, 3)
	opts := diststream.Options{
		WorkerAddrs: addrs,
		Execution: diststream.ExecutionOptions{
			CallTimeout: 10 * time.Second,
			MaxRetries:  1,
			Backoff:     10 * time.Millisecond,
		},
	}
	if churn {
		opts.Execution.Membership = &diststream.MembershipOptions{
			ProbeInterval: 100 * time.Millisecond,
			SuspectAfter:  300 * time.Millisecond,
			JoinBarrier:   5 * time.Second,
		}
	}
	sys, err := diststream.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	batches := 0
	pl, err := sys.NewPipeline(newFacadeAlgo(t, sys, algoName), diststream.PipelineOptions{
		BatchSeconds: 1,
		InitRecords:  100,
		OnBatch: func(stream.Batch, *diststream.Model) error {
			batches++
			if churn && batches == 3 {
				// Kill one worker and bring up a replacement process on a
				// fresh port: it announces itself, and the driver admits it
				// into the vacated slot at a later batch boundary.
				_ = workers[2].Close()
				startReplacementWorker(t, sys.MembershipAddr())
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	stats := driveBatches(t, pl, driver, 1, deltaBlobStream(1200, 4))
	state, err := pl.Model().EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	return churnFacadeRun{stats: stats, state: state}
}

// startReplacementWorker boots one extra worker mirroring the facade's
// registries and delivers its membership hello to the driver.
func startReplacementWorker(t *testing.T, driverAddr string) {
	t.Helper()
	diststream.RegisterWireTypes()
	algos, err := diststream.NewAlgorithmRegistry()
	if err != nil {
		t.Fatal(err)
	}
	reg := mbsp.NewRegistry()
	if err := core.RegisterOps(reg, algos); err != nil {
		t.Fatal(err)
	}
	repl, err := rpcexec.NewWorker(9, "127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = repl.Close() })
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := membership.Announce(ctx, driverAddr, repl.Addr()); err != nil {
		t.Fatalf("announce replacement: %v", err)
	}
}

// TestChurnEquivalence is the tentpole acceptance scenario at the public
// API: killing a worker mid-stream and admitting a fresh joiner produces
// final model state byte-identical to a clean fixed-membership run, for
// both acceptance algorithms under both batch drivers.
func TestChurnEquivalence(t *testing.T) {
	for _, algoName := range []string{"clustream", "denstream"} {
		t.Run(algoName, func(t *testing.T) {
			clean := runChurnFacade(t, algoName, "pipelined", false)
			for _, driver := range batchDrivers {
				t.Run(driver, func(t *testing.T) {
					churned := runChurnFacade(t, algoName, driver, true)
					if !bytes.Equal(churned.state, clean.state) {
						t.Errorf("model state diverged under churn: %d bytes churned, %d clean",
							len(churned.state), len(clean.state))
					}
					if churned.stats.Records != clean.stats.Records || churned.stats.Batches != clean.stats.Batches {
						t.Errorf("run shape diverged: %d records / %d batches churned, %d / %d clean",
							churned.stats.Records, churned.stats.Batches, clean.stats.Records, clean.stats.Batches)
					}
					if churned.stats.WorkerDepartures < 1 {
						t.Errorf("WorkerDepartures = %d, want >= 1 (a worker was killed)", churned.stats.WorkerDepartures)
					}
					if churned.stats.WorkerJoins < 1 {
						t.Errorf("WorkerJoins = %d, want >= 1 (a replacement announced itself)", churned.stats.WorkerJoins)
					}
					if clean.stats.WorkerJoins != 0 || clean.stats.WorkerDepartures != 0 {
						t.Errorf("clean run reported churn: %d joins, %d departures",
							clean.stats.WorkerJoins, clean.stats.WorkerDepartures)
					}
				})
			}
		})
	}
}
