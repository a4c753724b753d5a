package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"diststream"
	"diststream/internal/datagen"
	"diststream/internal/harness"
	"diststream/internal/stream"
)

// errSimulatedCrash is the sentinel the resume demo's OnBatch hook returns
// to model a driver crash at a batch boundary.
var errSimulatedCrash = errors.New("simulated driver crash")

// runResume demonstrates the checkpoint/recovery subsystem: it runs the
// same CluStream workload three times — once uninterrupted (the
// reference), once "crashing" the driver partway through while
// checkpointing, and once resuming from the newest checkpoint — and
// verifies that the resumed run finishes with a model and statistics
// identical to the reference. A mismatch is returned as an error (non-zero
// exit), making this the crash-equivalence acceptance check.
func runResume(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("resume", flag.ContinueOnError)
	records := fs.Int("records", 20000, "records in the generated dataset")
	seed := fs.Int64("seed", 42, "generation seed")
	parallelism := fs.Int("parallelism", 4, "worker goroutines")
	killBatch := fs.Int("kill-batch", 4, "batch after which the driver crashes")
	every := fs.Int("every", 2, "checkpoint cadence in batches")
	dir := fs.String("dir", "", "checkpoint directory (default: a fresh temp dir)")
	timeout := fs.Duration("timeout", 2*time.Minute, "overall deadline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *killBatch < 1 {
		return fmt.Errorf("resume: -kill-batch %d must be at least 1", *killBatch)
	}
	ds, err := harness.LoadDataset(datagen.KDD99Sim, *records, 100, *seed)
	if err != nil {
		return err
	}

	root := *dir
	if root == "" {
		root, err = os.MkdirTemp("", "diststream-resume-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(root)
	}
	refDir := filepath.Join(root, "reference")
	runDir := filepath.Join(root, "run")
	for _, d := range []string{refDir, runDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	// The reference checkpoints too, so its Checkpoints counter is
	// directly comparable with the resumed run's.
	reference, err := resumeRun(ctx, ds, *seed, *parallelism, refDir, *every, -1, false)
	if err != nil {
		return fmt.Errorf("resume: reference run: %w", err)
	}
	crashed, err := resumeRun(ctx, ds, *seed, *parallelism, runDir, *every, *killBatch, false)
	if !errors.Is(err, errSimulatedCrash) {
		return fmt.Errorf("resume: crashed run ended with %v, want the simulated crash", err)
	}
	resumed, err := resumeRun(ctx, ds, *seed, *parallelism, runDir, *every, -1, true)
	if err != nil {
		return fmt.Errorf("resume: resumed run: %w", err)
	}

	fmt.Fprintf(w, "checkpoint/resume (%s, clustream, p=%d, executor local, checkpoint every %d batches, crash after batch %d)\n",
		ds.Name, *parallelism, *every, *killBatch)
	fmt.Fprintf(w, "  %-10s %8s %8s %12s %14s %14s\n", "run", "batches", "records", "checkpoints", "microclusters", "model weight")
	for _, row := range []struct {
		name string
		r    resumeResult
	}{{"reference", reference}, {"crashed", crashed}, {"resumed", resumed}} {
		fmt.Fprintf(w, "  %-10s %8d %8d %12d %14d %14.1f\n",
			row.name, row.r.stats.Batches, row.r.stats.Records, row.r.stats.Checkpoints,
			row.r.modelLen, row.r.modelWeight)
	}

	switch {
	case resumed.modelLen != reference.modelLen || resumed.modelWeight != reference.modelWeight:
		return fmt.Errorf("resume: models diverged: reference %d MCs / %.3f weight, resumed %d MCs / %.3f weight",
			reference.modelLen, reference.modelWeight, resumed.modelLen, resumed.modelWeight)
	case resumed.stats.Records != reference.stats.Records || resumed.stats.Batches != reference.stats.Batches:
		return fmt.Errorf("resume: statistics diverged: reference %d records / %d batches, resumed %d / %d",
			reference.stats.Records, reference.stats.Batches, resumed.stats.Records, resumed.stats.Batches)
	case resumed.stats.Checkpoints != reference.stats.Checkpoints:
		return fmt.Errorf("resume: checkpoint counters diverged: reference %d, resumed %d",
			reference.stats.Checkpoints, resumed.stats.Checkpoints)
	}
	fmt.Fprintln(w, "  resumed model identical to reference: crash-equivalence holds")
	return nil
}

type resumeResult struct {
	stats       diststream.RunStats
	modelLen    int
	modelWeight float64
}

// resumeRun executes one checkpointed CluStream run over the in-process
// executor. killBatch > 0 makes OnBatch fail with errSimulatedCrash after
// that many batches; doResume loads the newest checkpoint in dir before
// running (the source replays the stream from the beginning, as the
// resume contract requires).
func resumeRun(ctx context.Context, ds harness.Dataset, seed int64, p int, dir string, every, killBatch int, doResume bool) (resumeResult, error) {
	sys, err := diststream.New(diststream.Options{Parallelism: p})
	if err != nil {
		return resumeResult{}, err
	}
	defer sys.Close()
	algo, err := harness.NewAlgorithm("clustream", ds, seed)
	if err != nil {
		return resumeResult{}, err
	}
	batches := 0
	pl, err := sys.NewPipeline(algo, diststream.PipelineOptions{
		BatchSeconds: 2,
		InitRecords:  500,
		Checkpoint:   &diststream.CheckpointConfig{Dir: dir, EveryNBatches: every},
		OnBatch: func(stream.Batch, *diststream.Model) error {
			batches++
			if killBatch > 0 && batches == killBatch {
				return errSimulatedCrash
			}
			return nil
		},
	})
	if err != nil {
		return resumeResult{}, err
	}
	if doResume {
		if err := pl.ResumeFrom(dir); err != nil {
			return resumeResult{}, err
		}
	}
	stats, err := pl.RunContext(ctx, stream.NewSliceSource(ds.Records))
	res := resumeResult{
		stats:       stats,
		modelLen:    pl.Model().Len(),
		modelWeight: pl.Model().TotalWeight(),
	}
	if err != nil {
		return res, err
	}
	return res, nil
}
