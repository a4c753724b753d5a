// End-to-end batch latency over a real 4-worker TCP cluster with
// per-batch durable checkpointing: the workload where the batch tail,
// which writes the checkpoint beside the next batch's stages, pays off.
// `make bench-json` archives the number.
package diststream_test

import (
	"context"
	"testing"
	"time"

	"diststream"
	"diststream/internal/stream"
)

// BenchmarkTCPCheckpointed runs the figure workload end to end over a
// fresh 4-worker TCP cluster, checkpointing after every batch, and
// reports mean steady-state batch latency. The warm-up (model
// initialization k-means plus the first batch, which also ships the
// config broadcast) runs outside the timed region.
func BenchmarkTCPCheckpointed(b *testing.B) {
	_, addrs := startFacadeCluster(b, 4)
	recs := deltaBlobStream(8000, 34)
	warm := 300 // 200 init records + one full batch
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	batches := 0
	var wall time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys, err := diststream.New(diststream.Options{
			WorkerAddrs: addrs,
			Execution:   diststream.ExecutionOptions{DeltaBroadcast: true},
		})
		if err != nil {
			b.Fatal(err)
		}
		algo, err := sys.NewCluStream(diststream.CluStreamOptions{Dim: 34})
		if err != nil {
			b.Fatal(err)
		}
		pl, err := sys.NewPipeline(algo, diststream.PipelineOptions{
			BatchSeconds: 0.1,
			InitRecords:  200,
			Checkpoint:   &diststream.CheckpointConfig{Dir: b.TempDir(), EveryNBatches: 1},
		})
		if err != nil {
			b.Fatal(err)
		}
		warmStats, err := pl.RunContext(ctx, stream.NewSliceSource(recs[:warm]))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		stats, err := pl.RunContext(ctx, stream.NewSliceSource(recs[warm:]))
		b.StopTimer()
		if cerr := sys.Close(); cerr != nil {
			b.Fatal(cerr)
		}
		if err != nil {
			b.Fatal(err)
		}
		batches += stats.Batches - warmStats.Batches
		wall += stats.TotalWall
		b.StartTimer()
	}
	b.StopTimer()
	if batches > 0 {
		b.ReportMetric(wall.Seconds()*1e3/float64(batches), "ms/batch")
	}
}
