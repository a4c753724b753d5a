package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"time"

	"diststream/internal/core"
	"diststream/internal/datagen"
	"diststream/internal/harness"
	"diststream/internal/mbsp"
	"diststream/internal/mbsp/rpcexec"
	"diststream/internal/stream"
	"diststream/internal/vclock"
)

// runFault demonstrates the fault-tolerance layer on a real TCP cluster:
// it runs the same CluStream workload twice over in-process TCP workers —
// once untouched, once killing a worker partway through — and shows that
// the injured run completes on the survivors with an identical model,
// with the re-dispatch visible in the retry counters.
func runFault(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("fault", flag.ContinueOnError)
	var o options
	o.bind(fs)
	workers := fs.Int("workers", 3, "TCP workers in the cluster")
	killBatch := fs.Int("kill-batch", 3, "batch after which one worker is killed")
	timeout := fs.Duration("timeout", 2*time.Minute, "overall run deadline (RunContext)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers < 2 {
		return fmt.Errorf("fault: need at least 2 workers to survive a kill, got %d", *workers)
	}
	records := o.records
	if records <= 0 {
		records = 30000
	}
	ds, err := harness.LoadDataset(datagen.KDD99Sim, records, 100, o.seed)
	if err != nil {
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	clean, err := faultRun(ctx, ds, o.seed, *workers, -1)
	if err != nil {
		return fmt.Errorf("fault: clean run: %w", err)
	}
	injured, err := faultRun(ctx, ds, o.seed, *workers, *killBatch)
	if err != nil {
		return fmt.Errorf("fault: injured run: %w", err)
	}

	fmt.Fprintf(w, "fault tolerance (%s, clustream, %d TCP workers, executor tcp, kill one after batch %d)\n",
		ds.Name, *workers, *killBatch)
	fmt.Fprintf(w, "  %-12s %10s %10s %10s %6s %12s %14s\n", "run", "batches", "records", "retries", "lost", "microclusters", "model weight")
	for _, row := range []struct {
		name string
		r    faultResult
	}{{"clean", clean}, {"injured", injured}} {
		fmt.Fprintf(w, "  %-12s %10d %10d %10d %6d %12d %14.1f\n",
			row.name, row.r.stats.Batches, row.r.stats.Records, row.r.stats.TaskRetries,
			row.r.stats.LostWorkers, row.r.modelLen, row.r.modelWeight)
	}
	if injured.modelLen != clean.modelLen || injured.modelWeight != clean.modelWeight {
		// A divergent model means the order-aware guarantee broke under
		// re-dispatch — fail loudly (non-zero exit) so CI catches it.
		return fmt.Errorf("fault: models diverged under re-dispatch: clean %d MCs / %.3f weight, injured %d MCs / %.3f weight",
			clean.modelLen, clean.modelWeight, injured.modelLen, injured.modelWeight)
	}
	fmt.Fprintln(w, "  models identical: order-aware determinism preserved under re-dispatch")
	return nil
}

type faultResult struct {
	stats       core.RunStats
	modelLen    int
	modelWeight float64
}

// faultRun executes one CluStream run over a fresh in-process TCP
// cluster, killing one worker after killBatch batches (-1 = never).
func faultRun(ctx context.Context, ds harness.Dataset, seed int64, p, killBatch int) (faultResult, error) {
	harness.RegisterAllWireTypes()
	algos, err := harness.NewAlgorithmRegistry()
	if err != nil {
		return faultResult{}, err
	}
	reg := mbsp.NewRegistry()
	if err := core.RegisterOps(reg, algos); err != nil {
		return faultResult{}, err
	}
	cluster, addrs, err := rpcexec.StartLocalCluster(p, reg)
	if err != nil {
		return faultResult{}, err
	}
	defer func() {
		for _, wk := range cluster {
			_ = wk.Close()
		}
	}()
	exec, err := rpcexec.DialConfig(addrs, rpcexec.Config{
		CallTimeout: 10 * time.Second,
		MaxRetries:  1,
		Backoff:     20 * time.Millisecond,
	})
	if err != nil {
		return faultResult{}, err
	}
	defer exec.Close()
	eng, err := mbsp.NewEngine(exec)
	if err != nil {
		return faultResult{}, err
	}
	algo, err := harness.NewAlgorithm("clustream", ds, seed)
	if err != nil {
		return faultResult{}, err
	}
	batches := 0
	pl, err := core.NewPipeline(core.Config{
		Algorithm:     algo,
		Engine:        eng,
		BatchInterval: vclock.Duration(2),
		InitRecords:   500,
		OnBatch: func(stream.Batch, *core.Model) error {
			batches++
			if batches == killBatch {
				// Crash the worker on its next task: the listener and every
				// connection go away mid-stage, redials fail from then on,
				// and the driver re-dispatches onto the survivors (the
				// retry shows up in RunStats.TaskRetries).
				cluster[p-1].SetFault(func(string, int) (rpcexec.Fault, time.Duration) {
					return rpcexec.FaultCrash, 0
				})
			}
			return nil
		},
	})
	if err != nil {
		return faultResult{}, err
	}
	stats, err := pl.RunContext(ctx, stream.NewSliceSource(ds.Records))
	if err != nil {
		return faultResult{}, err
	}
	return faultResult{
		stats:       stats,
		modelLen:    pl.Model().Len(),
		modelWeight: pl.Model().TotalWeight(),
	}, nil
}
