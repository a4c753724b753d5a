package diststream_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"diststream"
	"diststream/internal/stream"
	"diststream/internal/vclock"
	"diststream/internal/vector"
)

// deltaBlobStream spreads the warm-up sample over many positions (seeding
// many micro-clusters) and then settles on two fixed points, so each
// steady-state batch absorbs into only two micro-clusters. blobStream
// cycles through every position every batch — it touches every
// micro-cluster, which makes CluStream's diffs dense and (correctly)
// forces full-snapshot fallback; this stream is what deltas are for.
func deltaBlobStream(n, dim int) []diststream.Record {
	recs := make([]diststream.Record, n)
	for i := range recs {
		v := vector.New(dim)
		switch {
		case i < 100 && i%2 == 0:
			v[0], v[1] = 0.1*float64(i%5), 0
		case i < 100:
			v[0], v[1] = 20+0.1*float64(i%5), 20
		case i%2 == 0:
			v[0], v[1] = 0.2, 0
		default:
			v[0], v[1] = 20.2, 20
		}
		recs[i] = diststream.Record{
			Seq:       uint64(i),
			Timestamp: vclock.Time(float64(i) / 100),
			Values:    v,
			Label:     i % 2,
		}
	}
	return recs
}

type deltaFacadeRun struct {
	stats diststream.RunStats
	state []byte // gob-encoded driver model: byte equality = bit identity
}

// runDeltaFacade runs one pipeline on the figure workload over a fresh
// 3-worker TCP cluster, with delta broadcast on or off, and captures the
// final model's serialized state for bit-exact comparison.
func runDeltaFacade(t *testing.T, algoName string, delta bool) deltaFacadeRun {
	t.Helper()
	_, addrs := startFacadeCluster(t, 3)
	sys, err := diststream.New(diststream.Options{
		WorkerAddrs: addrs,
		Execution: diststream.ExecutionOptions{
			CallTimeout:    10 * time.Second,
			MaxRetries:     1,
			Backoff:        10 * time.Millisecond,
			DeltaBroadcast: delta,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	pl, err := sys.NewPipeline(newFacadeAlgo(t, sys, algoName), diststream.PipelineOptions{
		BatchSeconds: 1,
		InitRecords:  100,
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := pl.RunContext(context.Background(), stream.NewSliceSource(deltaBlobStream(1200, 4)))
	if err != nil {
		t.Fatal(err)
	}
	state, err := pl.Model().EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	return deltaFacadeRun{stats: stats, state: state}
}

// The acceptance scenario: with ExecutionOptions.DeltaBroadcast on,
// the pipeline output over TCP is bit-identical to the full-snapshot path
// for both acceptance algorithms — deltas are purely a wire optimization.
func TestFacadeDeltaBroadcastBitIdentical(t *testing.T) {
	for _, algoName := range []string{"clustream", "denstream"} {
		t.Run(algoName, func(t *testing.T) {
			full := runDeltaFacade(t, algoName, false)
			withDelta := runDeltaFacade(t, algoName, true)
			if !bytes.Equal(withDelta.state, full.state) {
				t.Errorf("model state diverged: %d bytes with deltas, %d without",
					len(withDelta.state), len(full.state))
			}
			if withDelta.stats.Records != full.stats.Records || withDelta.stats.Batches != full.stats.Batches {
				t.Errorf("run shape diverged: %d records / %d batches with deltas, %d / %d without",
					withDelta.stats.Records, withDelta.stats.Batches, full.stats.Records, full.stats.Batches)
			}
			if full.stats.DeltaBroadcasts != 0 {
				t.Errorf("full-snapshot run reported %d delta broadcasts", full.stats.DeltaBroadcasts)
			}
			// CluStream leaves untouched micro-clusters bit-identical across
			// batches, so deltas must actually ship. DenStream decays every
			// micro-cluster every batch; its diffs are dense and the driver
			// legitimately falls back to full snapshots.
			if algoName == "clustream" && withDelta.stats.DeltaBroadcasts == 0 {
				t.Error("clustream run with DeltaBroadcast on shipped no deltas")
			}
		})
	}
}
