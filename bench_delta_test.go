// Benchmarks for the model broadcast: bytes per batch and driver time
// for a full model (the columnar delta from the empty model, encoded once
// per version and rebuilt on every worker) against a delta, and
// end-to-end pipeline throughput over TCP on the figure workload, with
// and without deltas.
package diststream_test

import (
	"context"
	"testing"
	"time"

	"diststream"
	"diststream/internal/clustream"
	"diststream/internal/core"
	"diststream/internal/mbsp"
	"diststream/internal/mbsp/rpcexec"
	"diststream/internal/stream"
	"diststream/internal/vector"
)

// benchCluStreamLists builds the steady-state broadcast scenario of the
// paper's figure workloads: a model of nMC micro-clusters at dim
// dimensions in which one batch touched only `changed` of them.
func benchCluStreamLists(nMC, dim, changed int) (old, next []core.MicroCluster) {
	mk := func(i int) *clustream.MC {
		cf1 := make(vector.Vector, dim)
		cf2 := make(vector.Vector, dim)
		for j := range cf1 {
			cf1[j] = float64(i) + 0.25*float64(j)
			cf2[j] = cf1[j] * cf1[j]
		}
		return &clustream.MC{
			Id: uint64(i + 1), CF1X: cf1, CF2X: cf2,
			CF1T: float64(i), CF2T: float64(i * i), N: 10,
			Born: 1, Last: 2,
		}
	}
	old = make([]core.MicroCluster, nMC)
	next = make([]core.MicroCluster, nMC)
	for i := 0; i < nMC; i++ {
		old[i] = mk(i)
		if i < changed {
			touched := mk(i)
			touched.N += 3
			touched.CF1X[0] += 0.5
			touched.Last = 3
			next[i] = touched
		} else {
			next[i] = old[i]
		}
	}
	return old, next
}

// benchTCPBroadcast measures one model broadcast per iteration over a
// real 4-worker TCP cluster, ping-ponging between two snapshots that
// differ in 16 of 512 micro-clusters (dim 34, the KDD'99 shape). With
// delta on, every post-warm-up broadcast ships only the 16 changed
// micro-clusters; with delta off, every broadcast ships the full model.
func benchTCPBroadcast(b *testing.B, delta bool) {
	_, addrs := startFacadeCluster(b, 4)
	exec, err := rpcexec.DialConfig(addrs, rpcexec.Config{
		CallTimeout:    10 * time.Second,
		DeltaBroadcast: delta,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer exec.Close()

	algo := clustream.New(clustream.Config{Dim: 34, MaxMicroClusters: 512, NumMacro: 4, NewRadius: 2})
	listA, listB := benchCluStreamLists(512, 34, 16)
	modelA, modelB := core.NewModelBroadcast(algo, 1, listA), core.NewModelBroadcast(algo, 2, listB)
	dAB, ok := algo.DiffState(listA, listB)
	if !ok {
		b.Fatal("diff A->B declined")
	}
	dBA, ok := algo.DiffState(listB, listA)
	if !ok {
		b.Fatal("diff B->A declined")
	}
	ctx := context.Background()
	// Warm-up: the first broadcast is always the full model.
	if err := exec.Broadcast(ctx, core.BroadcastModel, modelA); err != nil {
		b.Fatal(err)
	}
	before := exec.BroadcastStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var model, d mbsp.Item = modelB, dAB
		if i%2 == 1 {
			model, d = modelA, dBA
		}
		if err := exec.BroadcastDelta(ctx, core.BroadcastModel, model, d); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	stats := exec.BroadcastStats()
	b.ReportMetric(float64(stats.Bytes-before.Bytes)/float64(b.N), "bytes/batch")
	b.ReportMetric(float64(stats.Deltas-before.Deltas)/float64(b.N), "deltas/batch")
}

func BenchmarkTCPBroadcastFull(b *testing.B)  { benchTCPBroadcast(b, false) }
func BenchmarkTCPBroadcastDelta(b *testing.B) { benchTCPBroadcast(b, true) }

// benchTCPPipeline runs the full figure-workload pipeline (CluStream,
// 1200 records, 3 TCP workers) once per iteration, with and without
// delta broadcast — the end-to-end latency side of the before/after
// table.
func benchTCPPipeline(b *testing.B, delta bool) {
	_, addrs := startFacadeCluster(b, 3)
	sys, err := diststream.New(diststream.Options{
		WorkerAddrs: addrs,
		Execution: diststream.ExecutionOptions{
			CallTimeout:    10 * time.Second,
			DeltaBroadcast: delta,
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	recs := deltaBlobStream(1200, 4)
	var deltas int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		algo, err := sys.NewCluStream(diststream.CluStreamOptions{
			Dim: 4, MaxMicroClusters: 20, NumMacro: 2, NewRadius: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		pl, err := sys.NewPipeline(algo, diststream.PipelineOptions{BatchSeconds: 1, InitRecords: 100})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		stats, err := pl.RunContext(context.Background(), stream.NewSliceSource(recs))
		if err != nil {
			b.Fatal(err)
		}
		deltas = stats.DeltaBroadcasts
	}
	b.StopTimer()
	b.ReportMetric(float64(deltas), "deltaBroadcasts/run")
}

func BenchmarkTCPPipelineFullBroadcast(b *testing.B)  { benchTCPPipeline(b, false) }
func BenchmarkTCPPipelineDeltaBroadcast(b *testing.B) { benchTCPPipeline(b, true) }
