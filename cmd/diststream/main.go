// Command diststream runs the paper-reproduction experiments: every table
// and figure of the evaluation section (§VII) has a subcommand that
// regenerates it as an ASCII table.
//
// Usage:
//
//	diststream <experiment> [flags]
//
// Experiments:
//
//	datasets      Table I — dataset characteristics
//	quality       Figure 6 — CMM: MOA vs DistStream vs unordered
//	quality-batch §VII-B2 — batch-size quality sweep
//	throughput    Figure 7 — single-machine throughput
//	scalability   Figure 8 — throughput gain across parallelism degrees
//	batch-sweep   Figure 9 — throughput vs batch interval at p=32
//	other-algos   Figure 10 — D-Stream and ClusTree scalability
//	ablate        §V-A / §V-C design-choice ablations
//	bench         one run on a TCP cluster; report per-batch latency,
//	              throughput and per-stage wall time (optional profiles)
//	fault         kill a TCP worker mid-run; show recovery + determinism
//	chaos         supervised subprocess cluster with periodic SIGKILLs;
//	              workers rejoin via membership catch-up, model must stay
//	              byte-identical to a clean fixed-membership run
//	resume        crash the driver mid-run; resume from a checkpoint
//	serve         run a live ingesting pipeline plus the query-serving
//	              HTTP API (assign / clusters / macro / metrics) together
//	all           run everything at the default scale
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"diststream/internal/datagen"
	"diststream/internal/harness"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "diststream:", err)
		os.Exit(1)
	}
}

// options shared by the experiment subcommands.
type options struct {
	records  int
	repeats  int
	seed     int64
	datasets string
	algos    string
	csv      string
	rate     float64
}

func (o *options) bind(fs *flag.FlagSet) {
	fs.IntVar(&o.records, "records", 30000, "records per generated dataset (0 = paper scale)")
	fs.IntVar(&o.repeats, "repeats", 3, "repetitions building the large- datasets (paper: 10)")
	fs.Int64Var(&o.seed, "seed", 42, "generation seed")
	fs.StringVar(&o.datasets, "datasets", "", "comma-separated dataset presets (kdd99,covtype,kdd98)")
	fs.StringVar(&o.algos, "algos", "", "comma-separated algorithms (clustream,denstream,dstream,clustree)")
	fs.StringVar(&o.csv, "csv", "", "quality only: run on a real dataset from this CSV (seq,ts,label,f0,...) instead of the synthetic presets")
	fs.Float64Var(&o.rate, "rate", 0, "with -csv: restamp records at this rate (0 keeps file timestamps)")
}

func (o *options) presets() ([]datagen.Preset, error) {
	if o.datasets == "" {
		return nil, nil // experiment default
	}
	var out []datagen.Preset
	for _, name := range strings.Split(o.datasets, ",") {
		switch strings.TrimSpace(name) {
		case "kdd99":
			out = append(out, datagen.KDD99Sim)
		case "covtype":
			out = append(out, datagen.CovTypeSim)
		case "kdd98":
			out = append(out, datagen.KDD98Sim)
		default:
			return nil, fmt.Errorf("unknown dataset %q", name)
		}
	}
	return out, nil
}

func (o *options) algorithms() []string {
	if o.algos == "" {
		return nil
	}
	parts := strings.Split(o.algos, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func run(args []string, w io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: diststream <datasets|quality|quality-batch|throughput|scalability|batch-sweep|other-algos|ablate|bench|fault|chaos|resume|serve|all> [flags]")
	}
	cmd, rest := args[0], args[1:]
	if cmd == "bench" {
		// bench has its own flag set (cluster size, profiles).
		return runBench(w, rest)
	}
	if cmd == "fault" {
		// fault has its own flag set (cluster size, kill point, deadline).
		return runFault(w, rest)
	}
	if cmd == "chaos" {
		// chaos has its own flag set (kill cadence, algorithms).
		return runChaos(w, rest)
	}
	if cmd == "_worker" {
		// Hidden: the chaos driver re-execs its own binary into worker
		// mode to build a supervised subprocess cluster.
		return runChaosWorker(rest)
	}
	if cmd == "resume" {
		// resume has its own flag set (checkpoint cadence, crash point).
		return runResume(w, rest)
	}
	if cmd == "serve" {
		// serve has its own flag set (listen address, admission bounds).
		return runServe(w, rest)
	}
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	var o options
	o.bind(fs)
	if err := fs.Parse(rest); err != nil {
		return err
	}
	presets, err := o.presets()
	if err != nil {
		return err
	}
	switch cmd {
	case "datasets":
		return runDatasets(w, o)
	case "quality":
		return runQuality(w, o, presets)
	case "quality-batch":
		return runQualityBatch(w, o)
	case "throughput":
		return runThroughput(w, o, presets)
	case "scalability":
		return runScalability(w, o, presets, o.algorithms())
	case "batch-sweep":
		return runBatchSweep(w, o)
	case "other-algos":
		return runScalability(w, o, presets, []string{"dstream", "clustree"})
	case "ablate":
		return runAblations(w, o)
	case "all":
		for _, step := range []func() error{
			func() error { return runDatasets(w, o) },
			func() error { return runQuality(w, o, presets) },
			func() error { return runQualityBatch(w, o) },
			func() error { return runThroughput(w, o, presets) },
			func() error { return runScalability(w, o, presets, o.algorithms()) },
			func() error { return runBatchSweep(w, o) },
			func() error { return runScalability(w, o, presets, []string{"dstream", "clustree"}) },
			func() error { return runAblations(w, o) },
		} {
			if err := step(); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", cmd)
	}
}

func runDatasets(w io.Writer, o options) error {
	res, err := harness.RunTable1(o.records, o.seed)
	if err != nil {
		return err
	}
	res.Render(w)
	return nil
}

func runQuality(w io.Writer, o options, presets []datagen.Preset) error {
	cfg := harness.QualityConfig{
		Datasets:   presets,
		Algorithms: o.algorithms(),
		Records:    o.records,
		Seed:       o.seed,
	}
	if o.csv != "" {
		ds, err := harness.LoadCSVDataset(o.csv, o.rate, true)
		if err != nil {
			return err
		}
		cells, err := harness.RunQualityDataset(cfg, ds)
		if err != nil {
			return err
		}
		res := &harness.QualityResult{Cells: cells}
		res.Render(w)
		return nil
	}
	res, err := harness.RunQuality(cfg)
	if err != nil {
		return err
	}
	res.Render(w)
	return nil
}

func runQualityBatch(w io.Writer, o options) error {
	res, err := harness.RunBatchSizeQuality(harness.QualityConfig{
		Records: o.records,
		Seed:    o.seed,
	}, datagen.KDD99Sim, "denstream", nil)
	if err != nil {
		return err
	}
	res.Render(w)
	return nil
}

func runThroughput(w io.Writer, o options, presets []datagen.Preset) error {
	res, err := harness.RunThroughput(harness.ThroughputConfig{
		Datasets:    presets,
		Algorithms:  o.algorithms(),
		BaseRecords: o.records,
		Repeats:     o.repeats,
		Seed:        o.seed,
	})
	if err != nil {
		return err
	}
	res.Render(w)
	return nil
}

func runScalability(w io.Writer, o options, presets []datagen.Preset, algos []string) error {
	res, err := harness.RunScalability(harness.ScalabilityConfig{
		Datasets:    presets,
		Algorithms:  algos,
		BaseRecords: o.records,
		Repeats:     o.repeats,
		Seed:        o.seed,
	})
	if err != nil {
		return err
	}
	res.Render(w)
	fmt.Fprintf(w, "max modeled gain: %.1fx (paper: 13.2x at p=32)\n", res.MaxGain())
	return nil
}

func runBatchSweep(w io.Writer, o options) error {
	for _, algo := range []string{"clustream", "denstream"} {
		res, err := harness.RunBatchSizeSweep(harness.ScalabilityConfig{
			BaseRecords: o.records,
			Repeats:     o.repeats,
			Seed:        o.seed,
		}, datagen.KDD99Sim, algo, nil, 32)
		if err != nil {
			return err
		}
		res.Render(w)
		fmt.Fprintln(w)
	}
	return nil
}

func runAblations(w io.Writer, o options) error {
	pm, err := harness.RunPreMergeAblation(datagen.KDD99Sim, "denstream", o.records, o.seed)
	if err != nil {
		return err
	}
	pm.Render(w)
	fmt.Fprintln(w)
	pc, err := harness.RunParallelismChoiceAblation(o.records, 200, 54, 4, o.seed)
	if err != nil {
		return err
	}
	pc.Render(w)
	return nil
}
