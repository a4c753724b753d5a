// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload through the whole system — seeded generator → pipeline (TCP or
// in-process executor) → published model → serve registry, subscription
// hub and replica — and prints one JSON result line.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload lowdim-clustream --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics with no decorators
// installed. With --trace 1 it decorates every layer, records spans in
// memory, prints the per-batch stage budget and reports per-layer
// metrics; the spans are written to .bench_build when the run ends.
// Either way the final models are checked against a reference run.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"diststream/internal/cmm"
	"diststream/internal/core"
	"diststream/internal/harness"
	"diststream/internal/seq"
	"diststream/internal/stream"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Int64Var(&o.seed, "seed", 1, "input generation seed")
	flag.IntVar(&o.seconds, "seconds", 30, "measured run length in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	o.trace = traceFlag == 1
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	w, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	if o.seconds < 1 {
		return fmt.Errorf("--seconds %d must be positive", o.seconds)
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()

	in, err := generate(w, o.seconds, o.seed)
	if err != nil {
		return fmt.Errorf("generate: %w", err)
	}
	env := environment(w, o, in.n)
	envLine, _ := json.Marshal(map[string]any{"environment": env})
	fmt.Println(string(envLine))

	ref, err := reference(ctx, w, in, o.seed)
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	var res *result
	if o.trace {
		res, err = traced(ctx, w, in, o, ref)
	} else {
		res, err = untraced(ctx, w, in, o, ref)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// reference runs the records through an in-process executor under BSP,
// with no serve tier: the model every phase must reproduce byte for byte.
// It runs at the workload's parallelism, not at 1: each task pre-merges
// its own outlier group and there is one group per task, so the model
// depends on the parallelism degree.
func reference(ctx context.Context, w *workload, in *input, seed int64) ([]byte, error) {
	rw := *w
	rw.tcp, rw.serveTier, rw.delta = false, false, false
	res, err := runPhase(ctx, &phase{w: &rw, in: in, seed: seed})
	if err != nil {
		return nil, err
	}
	return res.state, nil
}

// tally counts attempted and failed operations and the failed checks.
type tally struct {
	attempted, failed int
	problems          []string
}

func (t *tally) checks(phase string, cs []check) {
	for _, c := range cs {
		t.attempted++
		if c.err != nil {
			t.failed++
			t.problems = append(t.problems, fmt.Sprintf("%s: %s: %v", phase, c.name, c.err))
		}
	}
}

func (t *tally) phase(name string, r *phaseResult) {
	t.attempted += r.stats.Batches + r.queries + int(r.client.Deltas+r.client.Snapshots+r.client.ApplyErrors)
	t.failed += r.queryFail + int(r.client.ApplyErrors)
	t.checks(name, r.checks)
}

func (t *tally) result(metrics map[string]metric) *result {
	for _, p := range t.problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	errRate := 0.0
	if t.attempted > 0 {
		errRate = float64(t.failed) / float64(t.attempted)
	}
	fmt.Printf("error_rate %.6f (%d failed of %d attempted)\n", errRate, t.failed, t.attempted)
	return &result{Correct: len(t.problems) == 0 && t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}
}

func sameModel(ref, got []byte) error {
	if !bytes.Equal(ref, got) {
		return fmt.Errorf("final model state (%d bytes) differs from the reference run (%d bytes)", len(got), len(ref))
	}
	return nil
}

// untraced runs the workload with no decorators and reports the
// end-to-end metrics. The max-rate phase runs w.maxRuns times, before
// and after the open-loop phase, so a stretch of slow host time is less
// likely to decide the throughput figure; every phase gives a setup
// sample.
func untraced(ctx context.Context, w *workload, in *input, o options, ref []byte) (*result, error) {
	var t tally
	var setups, windows []float64
	var maxRates []*phaseResult
	var open *phaseResult
	offered := []float64{0, w.offered}
	for i := 1; i < w.maxRuns; i++ {
		offered = append(offered, 0)
	}
	for _, at := range offered {
		r, err := runCheckpointed(ctx, &phase{w: w, in: in, seed: o.seed, rate: at, queries: at > 0 && w.serveTier, keep: qualityPoints})
		if err != nil {
			return nil, fmt.Errorf("phase at rate %v: %w", at, err)
		}
		r.checks = append(r.checks, check{"model equals reference", sameModel(ref, r.state)})
		setups = append(setups, r.setup.Seconds())
		if at > 0 {
			open = r
			t.phase("open-loop", r)
			continue
		}
		maxRates = append(maxRates, r)
		windows = append(windows, windowedRate(r.marks, throughputWindows)...)
		t.phase("max-rate", r)
	}

	quality, err := cmmQuality(w, in, maxRates[0])
	if err != nil {
		return nil, err
	}
	p50 := percentileOf(open.batchLatency, 50)
	p95 := percentileOf(open.batchLatency, 95)
	windowP95, latencyWindows := windowedPercentile(open.batchLatency, 95, latencyWindow)
	fmt.Printf("open-loop: %d batch latency samples, %d beyond p95; whole-run p95 %.3f ms, median p95 over %d windows of %d batches %.3f ms; offered %.0f rec/s\n",
		p95.N, p95.beyond(95), p95.Value, latencyWindows, latencyWindow, windowP95, w.offered)
	if p95.beyond(95) < 10 {
		t.checks("open-loop", []check{{"at least 10 batch latency samples beyond p95", fmt.Errorf("only %d", p95.beyond(95))}})
	}
	peak := open.peakHeap
	for _, r := range maxRates {
		peak = max(peak, r.peakHeap)
	}
	m := map[string]metric{
		"throughput_rps":       {median(windows), "records/s"},
		"batch_latency_p50_ms": {p50.Value, "ms"},
		"batch_latency_p95_ms": {windowP95, "ms"},
		"setup_s":              {median(setups), "s"},
		"peak_heap_mb":         {float64(peak) / (1 << 20), "MB"},
		"cmm_quality":          {quality, "cmm"},
	}
	if err := writeSamples(w, o, maxRates, open); err != nil {
		return nil, err
	}
	if w.serveTier {
		lag50, lag95 := percentileOf(open.replicaLag, 50), percentileOf(open.replicaLag, 95)
		fmt.Printf("serve tier: replica lag p50 %.3f ms p95 %.3f ms over %d versions; queries %d (%.0f q/s), latency p50 %.3f ms p99 %.3f ms, %d failed\n",
			lag50.Value, lag95.Value, lag95.N, open.queries, rate(float64(open.queries), open.queryWall.Seconds()),
			percentileOf(open.queryLatency, 50).Value, percentileOf(open.queryLatency, 99).Value, open.queryFail)
	}
	return t.result(m), nil
}

// writeSamples keeps the raw samples behind the end-to-end metrics:
// per-publication times and record counts at max rate, per-batch latency
// in the open loop.
func writeSamples(w *workload, o options, maxRates []*phaseResult, open *phaseResult) error {
	type point struct {
		AtNS    int64 `json:"at_ns"`
		Records int   `json:"records"`
	}
	var marks [][]point
	for _, r := range maxRates {
		var ps []point
		for _, m := range r.marks {
			ps = append(ps, point{m.at.Sub(r.marks[0].at).Nanoseconds(), m.records})
		}
		marks = append(marks, ps)
	}
	b, err := json.Marshal(map[string]any{"max_rate_marks": marks, "open_loop_batch_latency_ms": open.batchLatency})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(".bench_build", fmt.Sprintf("samples-%s-%d.json", w.name, o.seed)), b, 0o644)
}

// runCheckpointed runs a phase with a scratch checkpoint directory for
// workloads that checkpoint.
func runCheckpointed(ctx context.Context, p *phase) (*phaseResult, error) {
	if p.w.checkpointEvery > 0 {
		dir, cleanup, err := scratchDir("checkpoints")
		if err != nil {
			return nil, err
		}
		defer cleanup()
		p.dir = dir
	}
	return runPhase(ctx, p)
}

// qualityPoints is how many publications of the max-rate phase are
// scored for cmm_quality: averaging over the run, as the harness's
// AvgCMM does, keeps one unlucky window from deciding the figure.
const qualityPoints = 10

// throughputWindows is how many windows of consecutive batches the
// max-rate phase is split into for throughput_rps.
const throughputWindows = 20

// latencyWindow is how many consecutive open-loop batches make one window
// for batch_latency_p95_ms, the median over every such window of its p95
// (see windowedPercentile). At 20 a window is 0.4 to 1 s of the workloads'
// open loops and its p95 is its second-largest latency.
const latencyWindow = 20

// cmmQuality scores the retained publications of a phase, each over the
// window of records up to its batch, as internal/harness/quality.go does,
// and returns the mean CMM. It runs after timing stops.
func cmmQuality(w *workload, in *input, r *phaseResult) (float64, error) {
	const windowPoints = 600
	every := max(1, w.batchRecords()/windowPoints)
	if len(r.retained) == 0 {
		return 0, fmt.Errorf("no publication retained for quality scoring")
	}
	var sum float64
	for _, pub := range r.retained {
		win, err := cmm.NewWindow(windowPoints)
		if err != nil {
			return 0, err
		}
		last := w.initRecords + pub.Stats.Records - 1
		for i := max(0, last+1-windowPoints*every); i <= last; i++ {
			if i%every == 0 {
				win.Push(in.record(i))
			}
		}
		model := core.NewModel()
		for _, mc := range pub.MCs {
			model.Add(mc.Clone())
		}
		model.SetNow(pub.Time)
		clustering, err := r.algo.Offline(model)
		if err != nil {
			return 0, err
		}
		score, err := win.Score(func(rec stream.Record) int { return clustering.Assign(rec.Values) },
			pub.Time, cmm.Config{K: 3, Lambda: 1 / w.batchSeconds})
		if err != nil {
			return 0, err
		}
		sum += score.CMM
	}
	return sum / float64(len(r.retained)), nil
}

// traced runs the workload untraced and traced at max rate, and traced in
// the open loop, and reports the per-layer metrics.
func traced(ctx context.Context, w *workload, in *input, o options, ref []byte) (*result, error) {
	var t tally
	plain, err := runCheckpointed(ctx, &phase{w: w, in: in, seed: o.seed})
	if err != nil {
		return nil, fmt.Errorf("untraced max-rate phase: %w", err)
	}
	plain.checks = append(plain.checks, check{"model equals reference", sameModel(ref, plain.state)})
	maxTr := newRecorder()
	maxRate, err := runCheckpointed(ctx, &phase{w: w, in: in, seed: o.seed, tr: maxTr})
	if err != nil {
		return nil, fmt.Errorf("traced max-rate phase: %w", err)
	}
	maxRate.checks = append(maxRate.checks,
		check{"model equals reference", sameModel(ref, maxRate.state)},
		check{"traced run matches untraced run", sameProgram(plain, maxRate)})
	openTr := newRecorder()
	open, err := runCheckpointed(ctx, &phase{w: w, in: in, seed: o.seed, rate: w.offered, queries: w.serveTier, tr: openTr})
	if err != nil {
		return nil, fmt.Errorf("traced open-loop phase: %w", err)
	}
	open.checks = append(open.checks, check{"model equals reference", sameModel(ref, open.state)})
	t.phase("untraced max-rate", plain)
	t.phase("traced max-rate", maxRate)
	t.phase("traced open-loop", open)

	seqRPS, err := sequential(w, in, o.seed)
	if err != nil {
		return nil, err
	}
	bs := budgets(maxRate.spans)
	var async []span
	for _, s := range maxRate.spans {
		if s.Lane == laneAsync {
			async = append(async, s)
		}
	}
	printBudget(os.Stdout, w.name, bs, async)
	for name, spans := range map[string][]span{"max-rate": maxRate.spans, "open-loop": open.spans} {
		path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d-%s.jsonl", w.name, o.seed, name))
		if err := writeSpans(path, spans); err != nil {
			return nil, err
		}
	}
	m := layerMetrics(w, in, plain, maxRate, open, bs)
	m["seq.throughput_rps"] = metric{seqRPS, "records/s"}
	return t.result(m), nil
}

// sameProgram checks that decorating every layer left the program's
// behaviour unchanged: the run counters a dropped capability would move,
// and the final model bytes.
func sameProgram(plain, traced *phaseResult) error {
	a, b := plain.stats, traced.stats
	type counters struct{ Batches, DeltaBroadcasts, ShardedGlobalBatches, UpdatedMCs, CreatedMCs int }
	ca := counters{a.Batches, a.DeltaBroadcasts, a.ShardedGlobalBatches, a.UpdatedMCs, a.CreatedMCs}
	cb := counters{b.Batches, b.DeltaBroadcasts, b.ShardedGlobalBatches, b.UpdatedMCs, b.CreatedMCs}
	if ca != cb {
		return fmt.Errorf("run counters differ: untraced %+v, traced %+v", ca, cb)
	}
	return sameModel(plain.state, traced.state)
}

// sequential runs the single-threaded seq.Runner over the same records:
// the one-record-at-a-time baseline.
func sequential(w *workload, in *input, seed int64) (float64, error) {
	algo, err := harness.NewAlgorithm(w.algo, in.ds, seed)
	if err != nil {
		return 0, err
	}
	r, err := seq.NewRunner(seq.Config{Algorithm: algo, InitRecords: w.initRecords})
	if err != nil {
		return 0, err
	}
	st, err := r.Run(newFeed(in, 0, 0), nil)
	if err != nil {
		return 0, err
	}
	return st.Throughput(), nil
}

// environment describes the host and the run, so results from hosts with
// different core counts are never mistaken for each other.
func environment(w *workload, o options, records int) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"num_cpu":         runtime.NumCPU(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"go_version":      runtime.Version(),
		"goos_goarch":     runtime.GOOS + "/" + runtime.GOARCH,
		"commit":          commit,
		"source_sha256":   sourceDigest(),
		"seed":            o.seed,
		"seconds":         o.seconds,
		"trace":           o.trace,
		"workload":        w.name,
		"records":         records,
		"offered_rps":     w.offered,
		"batch_seconds":   w.batchSeconds,
		"batch_records":   w.batchRecords(),
		"workers":         w.workers,
		"executor":        map[bool]string{true: "tcp", false: "local"}[w.tcp],
		"delta_broadcast": w.delta,
	}
}

// sourceDigest hashes the Go sources and module file of the program under
// test, which identifies the code when the checkout carries no commit.
func sourceDigest() string {
	var files []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
