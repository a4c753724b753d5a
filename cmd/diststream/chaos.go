package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"diststream/internal/backoff"
	"diststream/internal/core"
	"diststream/internal/datagen"
	"diststream/internal/harness"
	"diststream/internal/mbsp"
	"diststream/internal/mbsp/rpcexec"
	"diststream/internal/membership"
	"diststream/internal/stream"
	"diststream/internal/supervise"
	"diststream/internal/vclock"
)

// runChaos exercises the elastic-membership stack end to end: a
// supervised cluster of real worker subprocesses serves a pipeline
// while the driver SIGKILLs one worker every few batches. The
// supervisor restarts each victim, the restarted process announces
// itself to the membership registry, and the driver readmits it into
// the vacated dispatch slot (full broadcast catch-up) at a batch
// boundary. The run must finish with at least as many joins as kills
// and a model byte-identical to a clean fixed-membership run —
// any divergence or non-convergence exits non-zero so CI catches it.
func runChaos(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	workers := fs.Int("workers", 3, "supervised TCP worker subprocesses")
	records := fs.Int("records", 6000, "records in the generated workload")
	seed := fs.Int64("seed", 42, "generation seed")
	kills := fs.Int("kills", 2, "SIGKILLs delivered over the run")
	killEvery := fs.Int("kill-every", 3, "batches between kills")
	algosFlag := fs.String("algos", "clustream,denstream", "comma-separated algorithms")
	timeout := fs.Duration("timeout", 4*time.Minute, "overall deadline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers < 2 {
		return fmt.Errorf("chaos: need at least 2 workers to survive a kill, got %d", *workers)
	}
	if *killEvery < 1 {
		return fmt.Errorf("chaos: -kill-every must be >= 1")
	}
	ds, err := harness.LoadDataset(datagen.KDD99Sim, *records, 100, *seed)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	fmt.Fprintf(w, "chaos (%s, %d workers, %d kills every %d batches, supervised subprocess cluster)\n",
		ds.Name, *workers, *kills, *killEvery)
	fmt.Fprintf(w, "  %-10s %8s %6s %6s %6s %8s %8s  %s\n",
		"algo", "batches", "kills", "joins", "lost", "retries", "restarts", "model")
	var failures []string
	for _, algoName := range strings.Split(*algosFlag, ",") {
		algoName = strings.TrimSpace(algoName)
		// The determinism yardstick: a clean, fixed-membership run.
		ref, err := chaosReference(ctx, ds, *seed, algoName, *workers)
		if err != nil {
			return fmt.Errorf("chaos: reference run (%s): %w", algoName, err)
		}
		res, err := chaosRun(ctx, ds, *seed, algoName, *workers, *kills, *killEvery)
		if err != nil {
			return fmt.Errorf("chaos: churn run (%s): %w", algoName, err)
		}
		verdict := "identical"
		if !bytes.Equal(ref, res.state) {
			verdict = "DIVERGED"
			failures = append(failures, fmt.Sprintf("%s: model diverged from clean run (%d vs %d state bytes)",
				algoName, len(res.state), len(ref)))
		}
		if res.stats.WorkerJoins < res.killsDone {
			failures = append(failures, fmt.Sprintf("%s: only %d joins for %d kills — self-healing did not converge",
				algoName, res.stats.WorkerJoins, res.killsDone))
		}
		fmt.Fprintf(w, "  %-10s %8d %6d %6d %6d %8d %8d  %s\n",
			algoName, res.stats.Batches, res.killsDone, res.stats.WorkerJoins,
			res.stats.WorkerDepartures, res.stats.TaskRetries, res.restarts, verdict)
	}
	if len(failures) > 0 {
		return fmt.Errorf("chaos: %s", strings.Join(failures, "; "))
	}
	fmt.Fprintln(w, "  all runs byte-identical to the clean fixed-membership run; joins >= kills")
	return nil
}

// chaosReference runs the workload once on an in-process TCP cluster
// with fixed membership and returns the encoded model state.
func chaosReference(ctx context.Context, ds harness.Dataset, seed int64, algoName string, p int) ([]byte, error) {
	reg, err := chaosOpRegistry()
	if err != nil {
		return nil, err
	}
	cluster, addrs, err := rpcexec.StartLocalCluster(p, reg)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, wk := range cluster {
			_ = wk.Close()
		}
	}()
	ex, err := rpcexec.DialConfig(addrs, rpcexec.Config{
		CallTimeout: 10 * time.Second,
		MaxRetries:  2,
		Backoff:     20 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	defer ex.Close()
	pl, err := chaosPipeline(ds, seed, algoName, ex, nil)
	if err != nil {
		return nil, err
	}
	if _, err := pl.RunContext(ctx, stream.NewSliceSource(ds.Records)); err != nil {
		return nil, err
	}
	return pl.Model().EncodeState()
}

type chaosResult struct {
	stats     core.RunStats
	state     []byte
	killsDone int
	restarts  int
}

// chaosRun runs the workload over a supervised cluster of worker
// subprocesses, SIGKILLing one every killEvery batches up to kills
// times, and returns the final model state plus churn accounting.
func chaosRun(ctx context.Context, ds harness.Dataset, seed int64, algoName string, p, kills, killEvery int) (chaosResult, error) {
	members, err := membership.New(membership.Config{
		ListenAddr:    "127.0.0.1:0",
		ProbeInterval: 150 * time.Millisecond,
	})
	if err != nil {
		return chaosResult{}, err
	}
	defer members.Close()

	self, err := os.Executable()
	if err != nil {
		return chaosResult{}, err
	}
	sup := supervise.New()
	defer sup.Close()
	for i := 0; i < p; i++ {
		id := i
		err := sup.Start(supervise.Spec{
			Name: "w" + strconv.Itoa(id),
			Command: func() *exec.Cmd {
				return exec.Command(self, "_worker",
					"-listen", "127.0.0.1:0",
					"-id", strconv.Itoa(id),
					"-announce", members.Addr())
			},
			// Every deliberate SIGKILL spends restart budget; leave room
			// for all planned kills to land on one unlucky worker.
			MaxRestarts: kills + 3,
			Window:      10 * time.Second,
		})
		if err != nil {
			return chaosResult{}, err
		}
	}
	addrs, err := members.WaitForMembers(ctx, p)
	if err != nil {
		return chaosResult{}, fmt.Errorf("waiting for %d workers to announce: %w", p, err)
	}
	ex, err := rpcexec.DialConfig(addrs, rpcexec.Config{
		CallTimeout: 10 * time.Second,
		MaxRetries:  2,
		Backoff:     20 * time.Millisecond,
		Membership:  members,
		JoinBarrier: 3 * time.Second,
	})
	if err != nil {
		return chaosResult{}, err
	}
	defer ex.Close()

	batches, killsDone := 0, 0
	pl, err := chaosPipeline(ds, seed, algoName, ex, func(stream.Batch, *core.Model) error {
		batches++
		if killsDone >= kills || batches%killEvery != 0 {
			return nil
		}
		target := "w" + strconv.Itoa(killsDone%p)
		if err := sup.Signal(target, syscall.SIGKILL); err != nil {
			return fmt.Errorf("kill %s: %w", target, err)
		}
		killsDone++
		// Block until the supervisor's replacement has announced itself,
		// so every kill is guaranteed a matching join candidate before
		// the run can end.
		wctx, cancel := context.WithTimeout(ctx, 30*time.Second)
		defer cancel()
		if _, err := members.WaitForCandidate(wctx); err != nil {
			return fmt.Errorf("waiting for %s's replacement to announce: %w", target, err)
		}
		return nil
	})
	if err != nil {
		return chaosResult{}, err
	}
	stats, err := pl.RunContext(ctx, stream.NewSliceSource(ds.Records))
	if err != nil {
		return chaosResult{}, err
	}
	state, err := pl.Model().EncodeState()
	if err != nil {
		return chaosResult{}, err
	}
	restarts := 0
	for i := 0; i < p; i++ {
		restarts += sup.Restarts("w" + strconv.Itoa(i))
	}
	return chaosResult{stats: stats, state: state, killsDone: killsDone, restarts: restarts}, nil
}

func chaosOpRegistry() (*mbsp.Registry, error) {
	harness.RegisterAllWireTypes()
	algos, err := harness.NewAlgorithmRegistry()
	if err != nil {
		return nil, err
	}
	reg := mbsp.NewRegistry()
	if err := core.RegisterOps(reg, algos); err != nil {
		return nil, err
	}
	return reg, nil
}

func chaosPipeline(ds harness.Dataset, seed int64, algoName string, ex mbsp.Executor, onBatch func(stream.Batch, *core.Model) error) (*core.Pipeline, error) {
	eng, err := mbsp.NewEngine(ex)
	if err != nil {
		return nil, err
	}
	algo, err := harness.NewAlgorithm(algoName, ds, seed)
	if err != nil {
		return nil, err
	}
	return core.NewPipeline(core.Config{
		Algorithm:     algo,
		Engine:        eng,
		BatchInterval: vclock.Duration(2),
		InitRecords:   500,
		OnBatch:       onBatch,
	})
}

// runChaosWorker is the hidden `_worker` mode: the chaos driver
// re-execs its own binary into this to get real worker subprocesses
// without needing a second build. It mirrors cmd/mbsp-worker, plus the
// membership handshake: announce on start, goodbye on clean shutdown.
func runChaosWorker(args []string) error {
	fs := flag.NewFlagSet("_worker", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:0", "TCP listen address")
	id := fs.Int("id", 0, "worker id reported in task metrics")
	announce := fs.String("announce", "", "driver membership address to announce to")
	if err := fs.Parse(args); err != nil {
		return err
	}
	reg, err := chaosOpRegistry()
	if err != nil {
		return err
	}
	worker, err := rpcexec.NewWorker(*id, *listen, reg)
	if err != nil {
		return err
	}
	if *announce != "" {
		if err := announceWithRetry(*announce, worker.Addr()); err != nil {
			_ = worker.Close()
			return err
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	if *announce != "" {
		gctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_ = membership.Goodbye(gctx, *announce, worker.Addr())
		cancel()
	}
	return worker.Close()
}

// announceWithRetry delivers the membership hello, retrying with
// jittered exponential backoff in case the worker came up a beat
// before the driver's registry listener.
func announceWithRetry(driver, workerAddr string) error {
	pol := backoff.Policy{Base: 50 * time.Millisecond, Max: 2 * time.Second}
	var err error
	for attempt := 1; attempt <= 6; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		err = membership.Announce(ctx, driver, workerAddr)
		cancel()
		if err == nil {
			return nil
		}
		time.Sleep(pol.Delay(attempt))
	}
	return fmt.Errorf("announce to %s: %w", driver, err)
}
