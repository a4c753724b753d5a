// Hot-path microbenchmarks: the assign stage (closest-micro-cluster
// search over a batch) and the shuffle that feeds the local update. These
// complement the figure-level benchmarks in bench_test.go with per-stage
// numbers that `make bench-json` records into the perf-trajectory file.
//
// The filename sorts before bench_test.go on purpose: benchmarks run in
// file order within one process, and measuring the micro benches before
// the figure-level runs keeps their timings free of the multi-hundred-MB
// heap (and its GC tax) the macro benchmarks leave behind.
package diststream_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"diststream/internal/clustream"
	"diststream/internal/core"
	"diststream/internal/mbsp"
	"diststream/internal/stream"
	"diststream/internal/vclock"
)

// assignBenchEnv builds a LocalExecutor with the core ops registered, a
// clustream snapshot of numMC micro-clusters at the given dimensionality,
// and a batch of records dealt round-robin over p partitions. Records
// come from gen (randRecord for the tabular grid fixture, embedRecordGen
// for embedding geometry).
func assignBenchEnv(b *testing.B, dim, numMC, records, p int, gen func(rng *rand.Rand, seq uint64) stream.Record) (*mbsp.LocalExecutor, []mbsp.Partition, core.Snapshot) {
	b.Helper()
	algos := core.NewAlgorithmRegistry()
	if err := clustream.Register(algos); err != nil {
		b.Fatal(err)
	}
	reg := mbsp.NewRegistry()
	if err := core.RegisterOps(reg, algos); err != nil {
		b.Fatal(err)
	}
	exec, err := mbsp.NewLocalExecutor(mbsp.LocalConfig{Parallelism: p, Registry: reg})
	if err != nil {
		b.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	algo := clustream.New(clustream.Config{Dim: dim, MaxMicroClusters: numMC})
	warm := make([]stream.Record, numMC*4)
	for i := range warm {
		warm[i] = gen(rng, uint64(i))
	}
	mcs, err := algo.Init(warm)
	if err != nil {
		b.Fatal(err)
	}
	for i, mc := range mcs {
		mc.SetID(uint64(i + 1))
	}
	snap := algo.NewSnapshot(mcs)

	ctx := context.Background()
	if err := exec.Broadcast(ctx, core.BroadcastModel, &core.ModelBroadcast{Search: snap}); err != nil {
		b.Fatal(err)
	}
	cfg := core.TaskConfig{
		Params:        algo.Params(),
		Ordered:       true,
		PreMerge:      true,
		OutlierGroups: uint64(p),
	}
	if err := exec.Broadcast(ctx, core.BroadcastConfig, cfg); err != nil {
		b.Fatal(err)
	}

	items := make([]mbsp.Item, records)
	for i := range items {
		items[i] = gen(rng, uint64(len(warm)+i))
	}
	parts, err := mbsp.RoundRobin(items, p)
	if err != nil {
		b.Fatal(err)
	}
	return exec, parts, snap
}

// randRecord scatters records around numMC cluster sites in [0,10)^dim
// with unit-ish noise, so a realistic fraction lands inside boundaries.
func randRecord(rng *rand.Rand, seq uint64, dim, numMC int) stream.Record {
	site := rng.Intn(numMC)
	values := make([]float64, dim)
	for d := range values {
		base := float64((site*31+d*17)%100) / 10
		values[d] = base + rng.NormFloat64()*0.5
	}
	return stream.Record{
		Seq:       seq,
		Timestamp: vclock.Time(seq / 100),
		Values:    values,
		Label:     site,
	}
}

// embedRecordGen builds a generator with the embed-preset geometry: k
// clusters on random unit directions at norm 6, per-dim std 4/sqrt(dim)
// so the point-to-center distance is 4 at every dimensionality. Unlike
// randRecord's grid sites (separated by ~20 sigma per dim, so the argmin
// early exit abandons nearly every center after a few dims), embedding
// competitors differ by a small amount per dimension and the kernel must
// scan deep into most rows — the regime the blocked kernel is for.
func embedRecordGen(dim, k int) func(rng *rand.Rand, seq uint64) stream.Record {
	crng := rand.New(rand.NewSource(99))
	centers := make([][]float64, k)
	for i := range centers {
		c := make([]float64, dim)
		var norm float64
		for j := range c {
			c[j] = crng.NormFloat64()
			norm += c[j] * c[j]
		}
		scale := 6 / math.Sqrt(norm)
		for j := range c {
			c[j] *= scale
		}
		centers[i] = c
	}
	std := 4 / math.Sqrt(float64(dim))
	return func(rng *rand.Rand, seq uint64) stream.Record {
		site := rng.Intn(k)
		values := make([]float64, dim)
		for d := range values {
			values[d] = centers[site][d] + rng.NormFloat64()*std
		}
		return stream.Record{
			Seq:       seq,
			Timestamp: vclock.Time(seq / 100),
			Values:    values,
			Label:     site,
		}
	}
}

// BenchmarkAssignOp measures the record-parallel assign stage (§V-A) end
// to end on the local executor: nearest-micro-cluster search for every
// record of the batch plus keyed-output construction.
func BenchmarkAssignOp(b *testing.B) {
	const (
		dim     = 34
		numMC   = 100
		records = 4096
		p       = 4
	)
	exec, parts, _ := assignBenchEnv(b, dim, numMC, records, p,
		func(rng *rand.Rand, seq uint64) stream.Record { return randRecord(rng, seq, dim, numMC) })
	defer exec.Close()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := exec.RunTasks(ctx, "assign", core.OpAssign, parts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "rec/s")
}

// BenchmarkAssignOpDimSweep measures the assign stage across record
// dimensionalities with the batched (blocked many-vs-many kernel) and
// scalar (per-record) paths — the before/after for the batched assign
// rewrite. The kernel-level record-block-size sweep lives in
// internal/vector's BenchmarkBatchNearestKernel; both land in
// bench-json.
func BenchmarkAssignOpDimSweep(b *testing.B) {
	const (
		numMC   = 128
		records = 2048
		p       = 4
	)
	for _, dim := range []int{2, 32, 128, 768} {
		exec, parts, snap := assignBenchEnv(b, dim, numMC, records, p, embedRecordGen(dim, 12))
		for _, mode := range []struct {
			name string
			snap core.Snapshot
		}{{"batched", snap}, {"scalar", scalarSnapshot{snap}}} {
			b.Run(fmt.Sprintf("d%d/%s", dim, mode.name), func(b *testing.B) {
				ctx := context.Background()
				if err := exec.Broadcast(ctx, core.BroadcastModel, &core.ModelBroadcast{Search: mode.snap}); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := exec.RunTasks(ctx, "assign", core.OpAssign, parts); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "rec/s")
			})
		}
		exec.Close()
	}
}

// BenchmarkAssignShuffle measures assign followed by the driver-side
// group-by-key shuffle — the full path from raw records to local-update
// input partitions.
func BenchmarkAssignShuffle(b *testing.B) {
	const (
		dim     = 34
		numMC   = 100
		records = 4096
		p       = 4
	)
	exec, parts, _ := assignBenchEnv(b, dim, numMC, records, p,
		func(rng *rand.Rand, seq uint64) stream.Record { return randRecord(rng, seq, dim, numMC) })
	defer exec.Close()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		keyed, _, err := exec.RunTasks(ctx, "assign", core.OpAssign, parts)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := mbsp.ShuffleByKey(keyed, p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "rec/s")
}

var benchSizes = []struct{ dim, numMC int }{
	{8, 100},
	{34, 100},
	{54, 100},
	{34, 1000},
}

// BenchmarkSnapshotNearest measures Snapshot.Nearest in isolation across
// dimensionalities and model sizes (the per-record cost the assign stage
// parallelizes).
func BenchmarkSnapshotNearest(b *testing.B) {
	for _, size := range benchSizes {
		b.Run(fmt.Sprintf("dim%d-mc%d", size.dim, size.numMC), func(b *testing.B) {
			rng := rand.New(rand.NewSource(11))
			algo := clustream.New(clustream.Config{Dim: size.dim, MaxMicroClusters: size.numMC})
			warm := make([]stream.Record, size.numMC*4)
			for i := range warm {
				warm[i] = randRecord(rng, uint64(i), size.dim, size.numMC)
			}
			mcs, err := algo.Init(warm)
			if err != nil {
				b.Fatal(err)
			}
			for i, mc := range mcs {
				mc.SetID(uint64(i + 1))
			}
			snap := algo.NewSnapshot(mcs)
			probes := make([]stream.Record, 256)
			for i := range probes {
				probes[i] = randRecord(rng, uint64(i), size.dim, size.numMC)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := probes[i%len(probes)]
				if _, _, ok := snap.Nearest(rec); !ok {
					b.Fatal("empty snapshot")
				}
			}
		})
	}
}
