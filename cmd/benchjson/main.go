// Command benchjson converts `go test -bench` output on stdin into a
// machine-readable JSON report on stdout, so benchmark runs can be
// archived and diffed across commits (see `make bench-json`, which
// writes a BENCH_*.json archive).
//
// Each benchmark line
//
//	BenchmarkAssignOp-4   79   14546974 ns/op   281571 rec/s   370136 B/op   8208 allocs/op
//
// becomes one entry keyed by the benchmark name (GOMAXPROCS suffix
// stripped) holding the iteration count and every reported metric
// (ns/op, B/op, allocs/op, rec/s, and any custom b.ReportMetric units).
// Context lines (goos, goarch, cpu, pkg) are captured per package. The
// environment also records the GOMAXPROCS the benchmarks ran under,
// read from the stripped suffix (go test omits it at 1, and lists
// several values comma-separated when -cpu varied it), plus num_cpu and
// go_version of the converting process, so archives taken on hosts of
// different core counts can be told apart.
//
// Lines of the form
//
//	SERVELOAD {"qps":..., "p50_ms":..., "p99_ms":..., "shed":...}
//
// (the cmd/serveload -json summary) are collected under "serveload", so
// the archived bench JSON also tracks the serving-path trajectory (qps,
// latency percentiles, shed counts), not just ingest benchmarks.
// Likewise `SUBLOAD {json}` lines (from cmd/subload -json or the
// BenchmarkSubscribeFanout fixture) are collected under "subload",
// covering the replication fan-out path (deltas vs snapshots, bytes per
// subscriber per batch).
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

type benchResult struct {
	Package    string             `json:"package,omitempty"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

type report struct {
	Environment map[string]string      `json:"environment"`
	Benchmarks  map[string]benchResult `json:"benchmarks"`
	// ServeLoad holds cmd/serveload -json summaries found on stdin, in
	// input order.
	ServeLoad []json.RawMessage `json:"serveload,omitempty"`
	// SubLoad holds cmd/subload -json summaries found on stdin, in
	// input order.
	SubLoad []json.RawMessage `json:"subload,omitempty"`
}

var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

func main() {
	env := map[string]string{
		"num_cpu":    strconv.Itoa(runtime.NumCPU()),
		"go_version": runtime.Version(),
	}
	if err := run(os.Stdin, os.Stdout, env); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// run converts the benchmark transcript on r into the JSON report on w,
// adding env to the environment the transcript declares.
func run(r io.Reader, w io.Writer, env map[string]string) error {
	rep := report{
		Environment: map[string]string{},
		Benchmarks:  map[string]benchResult{},
	}
	var procs []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	pkg := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"),
			strings.HasPrefix(line, "goarch:"),
			strings.HasPrefix(line, "cpu:"):
			k, v, _ := strings.Cut(line, ":")
			rep.Environment[k] = strings.TrimSpace(v)
		case strings.HasPrefix(line, "pkg:"):
			_, v, _ := strings.Cut(line, ":")
			pkg = strings.TrimSpace(v)
		case strings.HasPrefix(line, "SERVELOAD "):
			blob := strings.TrimSpace(strings.TrimPrefix(line, "SERVELOAD "))
			if json.Valid([]byte(blob)) {
				rep.ServeLoad = append(rep.ServeLoad, json.RawMessage(blob))
			}
		case strings.HasPrefix(line, "SUBLOAD "):
			blob := strings.TrimSpace(strings.TrimPrefix(line, "SUBLOAD "))
			if json.Valid([]byte(blob)) {
				rep.SubLoad = append(rep.SubLoad, json.RawMessage(blob))
			}
		case strings.HasPrefix(line, "Benchmark"):
			name, p, res, ok := parseBenchLine(line)
			if !ok {
				continue
			}
			if !slices.Contains(procs, p) {
				procs = append(procs, p)
			}
			res.Package = pkg
			if _, dup := rep.Benchmarks[name]; dup {
				name = pkg + "." + name
			}
			rep.Benchmarks[name] = res
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("read input: %w", err)
	}
	if len(procs) > 0 {
		rep.Environment["gomaxprocs"] = strings.Join(procs, ",")
	}
	for k, v := range env {
		rep.Environment[k] = v
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return fmt.Errorf("encode: %w", err)
	}
	return nil
}

// parseBenchLine parses one benchmark result line: a name, an iteration
// count, then (value, unit) pairs. It returns the name without its
// GOMAXPROCS suffix and that GOMAXPROCS ("1" when go test left the
// suffix off).
func parseBenchLine(line string) (name, procs string, res benchResult, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return "", "", benchResult{}, false
	}
	name, procs = fields[0], "1"
	if suffix := gomaxprocsSuffix.FindString(name); suffix != "" {
		name, procs = strings.TrimSuffix(name, suffix), suffix[1:]
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return "", "", benchResult{}, false
	}
	res = benchResult{Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", "", benchResult{}, false
		}
		res.Metrics[fields[i+1]] = v
	}
	return name, procs, res, true
}
