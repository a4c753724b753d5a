package diststream_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"diststream"
	"diststream/internal/core"
	"diststream/internal/mbsp"
	"diststream/internal/mbsp/rpcexec"
	"diststream/internal/stream"
	"diststream/internal/vclock"
	"diststream/internal/vector"
)

func blobStream(n int, dim int) []diststream.Record {
	recs := make([]diststream.Record, n)
	for i := range recs {
		v := vector.New(dim)
		if i%2 == 0 {
			v[0], v[1] = 0.1*float64(i%5), 0
		} else {
			v[0], v[1] = 20+0.1*float64(i%5), 20
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

func TestFacadeQuickstartFlow(t *testing.T) {
	sys, err := diststream.New(diststream.Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if sys.Parallelism() != 4 {
		t.Errorf("Parallelism = %d", sys.Parallelism())
	}
	algo, err := sys.NewCluStream(diststream.CluStreamOptions{
		Dim:              4,
		MaxMicroClusters: 20,
		NumMacro:         2,
		NewRadius:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := sys.NewPipeline(algo, diststream.PipelineOptions{
		BatchSeconds: 1,
		InitRecords:  100,
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := pl.Run(stream.NewSliceSource(blobStream(1000, 4)))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 900 {
		t.Errorf("Records = %d", stats.Records)
	}
	clustering, err := pl.Offline()
	if err != nil {
		t.Fatal(err)
	}
	a := clustering.Assign(vector.Vector{0, 0, 0, 0})
	b := clustering.Assign(vector.Vector{20, 20, 0, 0})
	if a < 0 || b < 0 || a == b {
		t.Errorf("blobs not separated: %d vs %d", a, b)
	}
}

func TestFacadeAllConstructors(t *testing.T) {
	sys, err := diststream.New(diststream.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if sys.Parallelism() != 1 {
		t.Errorf("default parallelism = %d", sys.Parallelism())
	}
	if _, err := sys.NewCluStream(diststream.CluStreamOptions{}); err == nil {
		t.Error("clustream without Dim accepted")
	}
	if _, err := sys.NewDenStream(diststream.DenStreamOptions{}); err == nil {
		t.Error("denstream without Dim accepted")
	}
	if _, err := sys.NewDStream(diststream.DStreamOptions{}); err == nil {
		t.Error("dstream without Dim accepted")
	}
	if _, err := sys.NewClusTree(diststream.ClusTreeOptions{}); err == nil {
		t.Error("clustree without Dim accepted")
	}
	for name, build := range map[string]func() (diststream.Algorithm, error){
		"clustream": func() (diststream.Algorithm, error) {
			return sys.NewCluStream(diststream.CluStreamOptions{Dim: 3})
		},
		"denstream": func() (diststream.Algorithm, error) {
			return sys.NewDenStream(diststream.DenStreamOptions{Dim: 3})
		},
		"dstream": func() (diststream.Algorithm, error) {
			return sys.NewDStream(diststream.DStreamOptions{Dim: 3})
		},
		"clustree": func() (diststream.Algorithm, error) {
			return sys.NewClusTree(diststream.ClusTreeOptions{Dim: 3})
		},
	} {
		algo, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if algo.Name() != name {
			t.Errorf("algorithm name = %q, want %q", algo.Name(), name)
		}
		// Round-trip through the registry (the remote-worker path).
		rebuilt, err := sys.NewAlgorithm(algo.Params())
		if err != nil {
			t.Errorf("%s: registry round trip: %v", name, err)
		} else if rebuilt.Name() != name {
			t.Errorf("%s: rebuilt name %q", name, rebuilt.Name())
		}
	}
	if a := sys.NewSimple(diststream.SimpleOptions{}); a.Name() != "simple" {
		t.Errorf("simple name = %q", a.Name())
	}
	if _, err := sys.NewPipeline(nil, diststream.PipelineOptions{}); err == nil {
		t.Error("nil algorithm accepted")
	}
}

func TestFacadeOverTCPWorkers(t *testing.T) {
	diststream.RegisterWireTypes()
	algos, err := diststream.NewAlgorithmRegistry()
	if err != nil {
		t.Fatal(err)
	}
	reg := mbsp.NewRegistry()
	if err := core.RegisterOps(reg, algos); err != nil {
		t.Fatal(err)
	}
	workers, addrs, err := rpcexec.StartLocalCluster(2, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, w := range workers {
			_ = w.Close()
		}
	}()
	sys, err := diststream.New(diststream.Options{WorkerAddrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if sys.Parallelism() != 2 {
		t.Fatalf("Parallelism = %d", sys.Parallelism())
	}
	algo, err := sys.NewDenStream(diststream.DenStreamOptions{Dim: 4, Epsilon: 2, Mu: 4, Beta: 0.5, Lambda: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := sys.NewPipeline(algo, diststream.PipelineOptions{BatchSeconds: 1, InitRecords: 100})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := pl.Run(stream.NewSliceSource(blobStream(500, 4)))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 400 {
		t.Errorf("Records = %d", stats.Records)
	}
}

func TestMaxBatchSecondsFacade(t *testing.T) {
	got, err := diststream.MaxBatchSeconds(0.01, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	if got < 25 || got > 26 {
		t.Errorf("MaxBatchSeconds = %v", got)
	}
	if _, err := diststream.MaxBatchSeconds(0, 0); err == nil {
		t.Error("invalid params accepted")
	}
}

// startFacadeCluster boots a TCP cluster whose workers mirror the facade's
// registries, for fault-tolerance tests against the public API.
func startFacadeCluster(t testing.TB, n int) ([]*rpcexec.Worker, []string) {
	t.Helper()
	diststream.RegisterWireTypes()
	algos, err := diststream.NewAlgorithmRegistry()
	if err != nil {
		t.Fatal(err)
	}
	reg := mbsp.NewRegistry()
	if err := core.RegisterOps(reg, algos); err != nil {
		t.Fatal(err)
	}
	workers, addrs, err := rpcexec.StartLocalCluster(n, reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, w := range workers {
			_ = w.Close()
		}
	})
	return workers, addrs
}

type facadeRunResult struct {
	stats       diststream.RunStats
	modelLen    int
	modelWeight float64
}

// runFacadeTCP runs a CluStream pipeline over a fresh 3-worker TCP
// cluster; with kill set, one worker crashes at the start of batch 3.
func runFacadeTCP(t *testing.T, kill bool) facadeRunResult {
	t.Helper()
	workers, addrs := startFacadeCluster(t, 3)
	sys, err := diststream.New(diststream.Options{
		WorkerAddrs: addrs,
		Execution: diststream.ExecutionOptions{
			CallTimeout: 10 * time.Second,
			MaxRetries:  1,
			Backoff:     10 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	algo, err := sys.NewCluStream(diststream.CluStreamOptions{
		Dim:              4,
		MaxMicroClusters: 20,
		NumMacro:         2,
		NewRadius:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	batches := 0
	pl, err := sys.NewPipeline(algo, diststream.PipelineOptions{
		BatchSeconds: 1,
		InitRecords:  100,
		OnBatch: func(stream.Batch, *diststream.Model) error {
			batches++
			if kill && batches == 2 {
				// Crash the worker on its next task: the driver must
				// re-dispatch onto the two survivors mid-run.
				workers[2].SetFault(func(string, int) (rpcexec.Fault, time.Duration) {
					return rpcexec.FaultCrash, 0
				})
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := pl.RunContext(context.Background(), stream.NewSliceSource(blobStream(1200, 4)))
	if err != nil {
		t.Fatal(err)
	}
	return facadeRunResult{
		stats:       stats,
		modelLen:    pl.Model().Len(),
		modelWeight: pl.Model().TotalWeight(),
	}
}

// The ISSUE acceptance scenario: a TCP pipeline run survives one worker
// killed mid-run, produces clustering identical to an undisturbed run, and
// reports the retries in RunStats.
func TestFacadeSurvivesWorkerCrashIdenticalClustering(t *testing.T) {
	clean := runFacadeTCP(t, false)
	injured := runFacadeTCP(t, true)
	if injured.stats.Records != clean.stats.Records || injured.stats.Batches != clean.stats.Batches {
		t.Errorf("injured run processed %d records / %d batches, clean %d / %d",
			injured.stats.Records, injured.stats.Batches, clean.stats.Records, clean.stats.Batches)
	}
	if injured.modelLen != clean.modelLen || injured.modelWeight != clean.modelWeight {
		t.Errorf("models diverged: injured %d clusters / weight %v, clean %d / %v",
			injured.modelLen, injured.modelWeight, clean.modelLen, clean.modelWeight)
	}
	if clean.stats.TaskRetries != 0 || clean.stats.LostWorkers != 0 {
		t.Errorf("clean run reported %d retries, %d lost workers", clean.stats.TaskRetries, clean.stats.LostWorkers)
	}
	if injured.stats.TaskRetries < 1 {
		t.Errorf("injured run reported no retries: %+v", injured.stats)
	}
	if injured.stats.LostWorkers != 1 {
		t.Errorf("LostWorkers = %d, want 1", injured.stats.LostWorkers)
	}
}

func TestFacadeRunContextCancelStopsWithinOneBatch(t *testing.T) {
	sys, err := diststream.New(diststream.Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	algo, err := sys.NewCluStream(diststream.CluStreamOptions{
		Dim:              4,
		MaxMicroClusters: 20,
		NumMacro:         2,
		NewRadius:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pl, err := sys.NewPipeline(algo, diststream.PipelineOptions{
		BatchSeconds: 1,
		InitRecords:  100,
		OnBatch: func(stream.Batch, *diststream.Model) error {
			cancel()
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := pl.RunContext(ctx, stream.NewSliceSource(blobStream(2000, 4)))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if stats.Batches != 1 {
		t.Errorf("Batches = %d, want 1 (cancel honored within one batch)", stats.Batches)
	}
}

func TestFacadeOnSnapshotPublishes(t *testing.T) {
	sys, err := diststream.New(diststream.Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	algo := sys.NewSimple(diststream.SimpleOptions{Radius: 2})

	var published []diststream.Published
	pl, err := sys.NewPipeline(algo, diststream.PipelineOptions{
		BatchSeconds: 1,
		InitRecords:  100,
		OnSnapshot:   func(pub diststream.Published) { published = append(published, pub) },
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := pl.Run(stream.NewSliceSource(blobStream(1000, 4)))
	if err != nil {
		t.Fatal(err)
	}
	// One publication right after init, then one per batch.
	if len(published) != stats.Batches+1 {
		t.Fatalf("published %d snapshots, want %d (init + one per batch)", len(published), stats.Batches+1)
	}
	if published[0].Batch != 0 {
		t.Errorf("first (warm-up) publication reports batch %d, want 0", published[0].Batch)
	}
	last := published[len(published)-1]
	if last.Batch != stats.Batches || last.Stats.Records != stats.Records {
		t.Errorf("last publication = batch %d / %d records, want %d / %d",
			last.Batch, last.Stats.Records, stats.Batches, stats.Records)
	}
	if len(last.MCs) == 0 || last.Index == nil || last.Search == nil {
		t.Fatal("publication is missing model, index or search snapshot")
	}
	if len(last.Index.IDs) != len(last.MCs) || last.Search.Len() != len(last.MCs) {
		t.Errorf("index/search sized %d/%d, model has %d MCs",
			len(last.Index.IDs), last.Search.Len(), len(last.MCs))
	}
	// Snapshots are deep copies: mutating the live model (by running
	// offline clustering, which reads it) must not be observable, and the
	// published MCs must differ in identity from the live ones.
	live := pl.Model().List()
	for _, mc := range last.MCs {
		for _, lm := range live {
			if mc == lm {
				t.Fatal("published MC aliases the live model")
			}
		}
	}
}
