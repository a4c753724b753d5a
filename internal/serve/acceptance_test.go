package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"diststream/internal/core"
	"diststream/internal/datagen"
	"diststream/internal/harness"
	"diststream/internal/stream"
	"diststream/internal/timingtest"
)

// TestServeIngestImpactUnderLoad is the headline acceptance check for the
// serving subsystem: with 64 concurrent query clients hammering a live
// server, ingest throughput must stay within 10% of the server-off
// baseline. Baseline and loaded runs are measured in three interleaved
// pairs and the median pair ratio counts (timingtest.MedianRatio), which
// damps scheduler noise on small CI machines; the clients are
// well-behaved (they honor Retry-After on shed responses), which is the
// deployment the admission defaults are tuned for.
func TestServeIngestImpactUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive load test")
	}
	if raceEnabled {
		// The race runtime slows the query path (HTTP handling, atomics)
		// far more than the ingest path, so the throughput ratio this test
		// asserts is not meaningful under -race.
		t.Skip("throughput-ratio SLO is skewed by the race detector")
	}

	const (
		records = 20000
		passes  = 3
		clients = 64
		pairs   = 3
	)
	ds, err := harness.LoadDataset(datagen.KDD99Sim, records, 1000, 42)
	if err != nil {
		t.Fatal(err)
	}
	// Assign query points: a slice of real record vectors.
	points := make([][]float64, 0, 64)
	for i := 0; i < len(ds.Records) && len(points) < 64; i += len(ds.Records) / 64 {
		points = append(points, ds.Records[i].Values)
	}

	// ingestOnce runs one full ingest pass and returns its throughput.
	// With serving enabled it also runs the 64-client closed loop against
	// a live HTTP server for the whole duration of the ingest.
	ingestOnce := func(withServing bool) float64 {
		t.Helper()
		algo, err := harness.NewAlgorithm("clustream", ds, 42)
		if err != nil {
			t.Fatal(err)
		}
		engine, err := harness.NewEngine(2, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer engine.Close()

		cfg := core.Config{
			Algorithm:     algo,
			Engine:        engine,
			BatchInterval: 2,
		}
		var registry *Registry
		if withServing {
			registry = NewRegistry(0)
			cfg.OnPublish = registry.Hook()
		}
		pipeline, err := core.NewPipeline(cfg)
		if err != nil {
			t.Fatal(err)
		}
		src, err := stream.NewRepeatSource(ds.Records, passes)
		if err != nil {
			t.Fatal(err)
		}

		var (
			ts       *httptest.Server
			loadDone chan struct{}
			loadRes  LoadResult
			loadErr  error
			stop     chan struct{}
		)
		if withServing {
			// Queries and ingest share cores here, so the admission
			// config caps the admitted query rate: the excess is shed
			// with a one-second Retry-After, which the (well-behaved)
			// clients honor, bounding the CPU the query path can steal.
			server, err := NewServer(Config{
				Registry: registry,
				Admission: LimiterConfig{
					MaxInFlight: 2,
					MaxQueue:    4,
					MaxRate:     50,
					QueueWait:   5 * time.Millisecond,
					RetryAfter:  time.Second,
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			ts = httptest.NewServer(server.Handler())
			defer ts.Close()
			stop = make(chan struct{})
			loadDone = make(chan struct{})
			go func() {
				defer close(loadDone)
				loadRes, loadErr = RunLoad(LoadConfig{
					BaseURL:    ts.URL,
					Clients:    clients,
					Stop:       stop,
					MacroEvery: 8,
					Macro:      MacroRequest{Algorithm: MacroKMeans, K: 5, Seed: 7},
					Points:     points,
				})
			}()
		}

		stats, err := pipeline.Run(src)
		if err != nil {
			t.Fatal(err)
		}
		if withServing {
			close(stop)
			<-loadDone
			if loadErr != nil {
				t.Fatalf("load generator: %v", loadErr)
			}
			if loadRes.OK == 0 {
				t.Fatal("load generator completed zero successful queries; the test measured nothing")
			}
			t.Logf("load: %d requests, %d ok, %d shed, %d errors, p50 %.2fms p99 %.2fms",
				loadRes.Requests, loadRes.OK, loadRes.Shed, loadRes.Errors,
				loadRes.P50Millis, loadRes.P99Millis)
		}
		return stats.Throughput()
	}

	ratio := timingtest.MedianRatio(t, pairs, ingestOnce)
	t.Logf("ingest throughput under %d-client load: median ratio %.3f of baseline", clients, ratio)
	if ratio < 0.90 {
		t.Errorf("ingest throughput under load dropped to %.1f%% of baseline, want >= 90%%", ratio*100)
	}
}

// TestServeMacroComputedOncePerVersionE2E drives the acceptance check
// that repeated POST /v1/macro calls at a fixed version compute the
// offline clustering exactly once: 32 concurrent identical requests over
// real HTTP must collapse into a single computation.
func TestServeMacroComputedOncePerVersionE2E(t *testing.T) {
	reg := NewRegistry(0)
	server, err := NewServer(Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	// A 40-micro-cluster fixture so the k-means actually does some work.
	centers := make([][]float64, 40)
	weights := make([]float64, 40)
	for i := range centers {
		centers[i] = []float64{float64(i % 8 * 10), float64(i / 8 * 10)}
		weights[i] = float64(i%5 + 1)
	}
	reg.Publish(testPublished(centers, weights, 1, 1000))

	ts := httptest.NewServer(server.Handler())
	defer ts.Close()

	const concurrent = 32
	body := `{"algorithm":"kmeans","k":4,"seed":11,"version":1}`
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		cachedN  int
		statuses = map[int]int{}
	)
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/macro", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("POST /v1/macro: %v", err)
				return
			}
			defer resp.Body.Close()
			var res MacroResult
			if resp.StatusCode == http.StatusOK {
				if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
					t.Errorf("decode: %v", err)
					return
				}
			}
			mu.Lock()
			statuses[resp.StatusCode]++
			if res.Cached {
				cachedN++
			}
			mu.Unlock()
		}()
	}
	wg.Wait()

	if statuses[http.StatusOK] != concurrent {
		t.Fatalf("statuses = %v, want all %d OK", statuses, concurrent)
	}
	st := server.CacheStats()
	if st.Computations != 1 {
		t.Errorf("Computations = %d for %d identical requests, want exactly 1", st.Computations, concurrent)
	}
	if cachedN != concurrent-1 {
		t.Errorf("%d responses marked cached, want %d (all but the computing one)", cachedN, concurrent-1)
	}
	if st.Hits != concurrent-1 || st.Misses != 1 {
		t.Errorf("cache stats = %+v, want %d hits / 1 miss", st, concurrent-1)
	}
}

// TestServeOverloadSheds429E2E drives the overload acceptance check over
// real HTTP: with the single execution slot held and the single queue
// permit consumed, every further query must be answered 429 with a
// Retry-After hint, and the shed counter must advance.
func TestServeOverloadSheds429E2E(t *testing.T) {
	reg := NewRegistry(0)
	server, err := NewServer(Config{
		Registry: reg,
		Admission: LimiterConfig{
			MaxInFlight: 1,
			MaxQueue:    1,
			QueueWait:   20 * time.Millisecond,
			RetryAfter:  3 * time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	reg.Publish(twoBlobPublished(1, 100))
	ts := httptest.NewServer(server.Handler())
	defer ts.Close()

	// Sustained overload: hold the execution slot for the whole test.
	release, err := server.limiter.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	const burst = 8
	var wg sync.WaitGroup
	codes := make([]int, burst)
	retryAfters := make([]string, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/assign?point=0,0")
			if err != nil {
				t.Errorf("GET: %v", err)
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			retryAfters[i] = resp.Header.Get("Retry-After")
		}(i)
	}
	wg.Wait()

	for i, code := range codes {
		if code != http.StatusTooManyRequests {
			t.Errorf("request %d got %d, want 429 under sustained overload", i, code)
			continue
		}
		if retryAfters[i] != "3" {
			t.Errorf("request %d Retry-After = %q, want %q", i, retryAfters[i], "3")
		}
	}
	if st := server.AdmissionStats(); st.Shed < burst {
		t.Errorf("Shed = %d, want >= %d", st.Shed, burst)
	}
	// Probes and metrics stay reachable during overload.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/metrics during overload = %d, want 200", resp.StatusCode)
	}
}
