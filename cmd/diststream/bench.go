package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"diststream/internal/core"
	"diststream/internal/datagen"
	"diststream/internal/harness"
	"diststream/internal/mbsp"
	"diststream/internal/mbsp/rpcexec"
	"diststream/internal/stream"
	"diststream/internal/vclock"
)

// runBench runs one workload over a real in-process TCP cluster and
// reports per-batch latency, throughput and the wall time of every
// pipeline stage, optionally under a CPU and heap profile.
func runBench(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	records := fs.Int("records", 30000, "records in the generated dataset")
	seed := fs.Int64("seed", 42, "generation seed")
	workers := fs.Int("workers", 4, "TCP workers in the cluster")
	algoName := fs.String("algo", "clustream", "algorithm to run")
	delta := fs.Bool("delta", true, "ship model broadcasts as deltas")
	shards := fs.Int("global-shards", 0, "shard the driver-side global update across this many shards (0 = serial)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the benchmarked runs to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile (post-run) to this file")
	timeout := fs.Duration("timeout", 5*time.Minute, "overall deadline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("bench: cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("bench: cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(w, "bench: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile reflects live state
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(w, "bench: memprofile: %v\n", err)
			}
		}()
	}
	n := *records
	if n <= 0 {
		n = 30000
	}
	ds, err := harness.LoadDataset(datagen.KDD99Sim, n, 100, *seed)
	if err != nil {
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	res, err := benchRun(ctx, ds, *algoName, *seed, *workers, *delta, *shards)
	if err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	st := res.stats
	perBatch := func(d time.Duration) float64 { return 0 }
	if st.Batches > 0 {
		perBatch = func(d time.Duration) float64 { return d.Seconds() * 1e3 / float64(st.Batches) }
	}
	fmt.Fprintf(w, "stage benchmark (%s, %s, %d TCP workers, delta broadcast %v, global shards %d)\n",
		ds.Name, *algoName, *workers, *delta, *shards)
	fmt.Fprintf(w, "  %8s %12s %12s %10s %10s %10s %10s %9s %9s %9s %14s\n",
		"batches", "batch ms", "records/s", "assign ms", "shuffle ms", "local ms", "global ms", "sort ms", "apply ms", "fold ms", "model weight")
	fmt.Fprintf(w, "  %8d %12.2f %12.0f %10.2f %10.2f %10.2f %10.2f %9.2f %9.2f %9.2f %14.1f\n",
		st.Batches, perBatch(st.TotalWall), st.Throughput(),
		perBatch(st.Assign.Wall), perBatch(st.Shuffle.Wall),
		perBatch(st.LocalUpdate.Wall), perBatch(st.GlobalUpdate.Wall),
		perBatch(st.GlobalSort.Wall), perBatch(st.GlobalApply.Wall),
		perBatch(st.GlobalFold.Wall), res.modelWeight)
	if *shards >= 1 && st.ShardedGlobalBatches != st.Batches {
		fmt.Fprintf(w, "  (sharded global update engaged on %d of %d batches — algorithm lacks the capability on the rest)\n",
			st.ShardedGlobalBatches, st.Batches)
	}
	return nil
}

type benchResult struct {
	stats       core.RunStats
	modelWeight float64
}

// benchRun executes one run over a fresh in-process TCP cluster.
func benchRun(ctx context.Context, ds harness.Dataset, algoName string, seed int64, p int, delta bool, shards int) (benchResult, error) {
	harness.RegisterAllWireTypes()
	algos, err := harness.NewAlgorithmRegistry()
	if err != nil {
		return benchResult{}, err
	}
	reg := mbsp.NewRegistry()
	if err := core.RegisterOps(reg, algos); err != nil {
		return benchResult{}, err
	}
	cluster, addrs, err := rpcexec.StartLocalCluster(p, reg)
	if err != nil {
		return benchResult{}, err
	}
	defer func() {
		for _, wk := range cluster {
			_ = wk.Close()
		}
	}()
	exec, err := rpcexec.DialConfig(addrs, rpcexec.Config{DeltaBroadcast: delta})
	if err != nil {
		return benchResult{}, err
	}
	defer exec.Close()
	eng, err := mbsp.NewEngine(exec)
	if err != nil {
		return benchResult{}, err
	}
	algo, err := harness.NewAlgorithm(algoName, ds, seed)
	if err != nil {
		return benchResult{}, err
	}
	pl, err := core.NewPipeline(core.Config{
		Algorithm:     algo,
		Engine:        eng,
		BatchInterval: vclock.Duration(2),
		InitRecords:   500,
		GlobalShards:  shards,
	})
	if err != nil {
		return benchResult{}, err
	}
	stats, err := pl.RunContext(ctx, stream.NewSliceSource(ds.Records))
	if err != nil {
		return benchResult{}, err
	}
	return benchResult{
		stats:       stats,
		modelWeight: pl.Model().TotalWeight(),
	}, nil
}
