package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"diststream/internal/core"
	"diststream/internal/simple"
	"diststream/internal/vclock"
	"diststream/internal/vector"
)

// testPublished builds a self-consistent core.Published fixture over the
// simple algorithm: one micro-cluster per (center, weight) pair, ids
// assigned 1..n in order.
func testPublished(centers [][]float64, weights []float64, batch, records int) core.Published {
	algo := simple.New(simple.Config{Radius: 2})
	mcs := make([]core.MicroCluster, len(centers))
	for i := range centers {
		c := vector.Vector(centers[i])
		mcs[i] = &simple.MC{
			Id:      uint64(i + 1),
			Sum:     c.Clone().Scale(weights[i]),
			W:       weights[i],
			Created: 0,
			Updated: vclock.Time(1),
		}
	}
	idx := core.BuildFlatIndex(mcs)
	return core.Published{
		Batch:  batch,
		Time:   vclock.Time(1),
		MCs:    mcs,
		Index:  &idx,
		Search: algo.NewSnapshot(mcs),
		Stats:  core.RunStats{Batches: batch, Records: records},
	}
}

// twoBlobPublished is the standard two-micro-cluster fixture: one MC at
// the origin, one far away, well separated relative to the absorb radius.
func twoBlobPublished(batch, records int) core.Published {
	return testPublished([][]float64{{0, 0}, {10, 10}}, []float64{4, 6}, batch, records)
}

// --- registry ------------------------------------------------------------

func TestRegistryPublishAndLookup(t *testing.T) {
	r := NewRegistry(3)
	if r.Latest() != nil {
		t.Fatal("Latest on empty registry should be nil")
	}
	if _, ok := r.At(1); ok {
		t.Fatal("At on empty registry should miss")
	}
	for i := 1; i <= 5; i++ {
		v := r.Publish(twoBlobPublished(i, i*100))
		if v != uint64(i) {
			t.Fatalf("publish %d assigned version %d", i, v)
		}
	}
	if got := r.Published(); got != 5 {
		t.Errorf("Published() = %d, want 5", got)
	}
	mv := r.Latest()
	if mv == nil || mv.Version != 5 || mv.Batch != 5 {
		t.Fatalf("Latest = %+v, want version 5 / batch 5", mv)
	}
	// keep=3 retains versions 3..5 only.
	wantVersions := []uint64{3, 4, 5}
	got := r.Versions()
	if len(got) != len(wantVersions) {
		t.Fatalf("Versions() = %v, want %v", got, wantVersions)
	}
	for i, v := range wantVersions {
		if got[i] != v {
			t.Fatalf("Versions() = %v, want %v", got, wantVersions)
		}
	}
	if _, ok := r.At(2); ok {
		t.Error("version 2 should have aged out of keep=3 window")
	}
	if mv4, ok := r.At(4); !ok || mv4.Batch != 4 {
		t.Errorf("At(4) = %+v, %v; want batch 4", mv4, ok)
	}
	if _, ok := r.At(99); ok {
		t.Error("At(99) should miss")
	}
}

func TestRegistryIngestRate(t *testing.T) {
	r := NewRegistry(4)
	if r.IngestRate() != 0 {
		t.Error("IngestRate with <2 snapshots should be 0")
	}
	r.Publish(twoBlobPublished(1, 1000))
	time.Sleep(10 * time.Millisecond)
	r.Publish(twoBlobPublished(2, 2000))
	if rate := r.IngestRate(); rate <= 0 {
		t.Errorf("IngestRate = %v, want > 0 after two spaced publishes", rate)
	}
}

// --- macro cache ---------------------------------------------------------

func TestMacroCacheSingleflight(t *testing.T) {
	c := NewMacroCache(8)
	key := MacroKey{Version: 1, Algorithm: MacroKMeans, K: 2, Seed: 7}
	var computes atomic.Int64
	const n = 16

	var wg sync.WaitGroup
	results := make([]*MacroResult, n)
	hits := make([]bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, hit, err := c.Do(context.Background(), key, func() (*MacroResult, error) {
				computes.Add(1)
				time.Sleep(20 * time.Millisecond) // widen the collapse window
				return &MacroResult{Version: 1, Algorithm: MacroKMeans}, nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			results[i], hits[i] = res, hit
		}(i)
	}
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want exactly 1", got)
	}
	st := c.Stats()
	if st.Computations != 1 {
		t.Errorf("Computations = %d, want 1", st.Computations)
	}
	if st.Misses != 1 || st.Hits != n-1 {
		t.Errorf("Misses/Hits = %d/%d, want 1/%d", st.Misses, st.Hits, n-1)
	}
	var hitCount int
	for i := range results {
		if results[i] != results[0] {
			t.Error("callers observed different result pointers")
		}
		if hits[i] {
			hitCount++
		}
	}
	if hitCount != n-1 {
		t.Errorf("%d callers reported hit, want %d", hitCount, n-1)
	}
	if !c.Peek(key) {
		t.Error("Peek should see the completed entry")
	}
}

func TestMacroCacheErrorNotCached(t *testing.T) {
	c := NewMacroCache(8)
	key := MacroKey{Version: 1, Algorithm: MacroDBSCAN, Eps: 1}
	boom := errors.New("boom")
	if _, _, err := c.Do(context.Background(), key, func() (*MacroResult, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("Do error = %v, want boom", err)
	}
	if c.Peek(key) {
		t.Error("failed computation should not be cached")
	}
	if c.Len() != 0 {
		t.Errorf("Len = %d after failure, want 0", c.Len())
	}
	// Next request retries.
	res, hit, err := c.Do(context.Background(), key, func() (*MacroResult, error) {
		return &MacroResult{Version: 1}, nil
	})
	if err != nil || hit || res == nil {
		t.Fatalf("retry Do = (%v, %v, %v), want fresh success", res, hit, err)
	}
	if st := c.Stats(); st.Computations != 2 || st.Misses != 2 {
		t.Errorf("stats after retry = %+v, want 2 computations / 2 misses", st)
	}
}

func TestMacroCacheEviction(t *testing.T) {
	c := NewMacroCache(2)
	for v := uint64(1); v <= 3; v++ {
		key := MacroKey{Version: v, Algorithm: MacroKMeans, K: 2}
		if _, _, err := c.Do(context.Background(), key, func() (*MacroResult, error) {
			return &MacroResult{Version: v}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2 after eviction", c.Len())
	}
	if c.Peek(MacroKey{Version: 1, Algorithm: MacroKMeans, K: 2}) {
		t.Error("oldest entry should have been evicted first")
	}
	if !c.Peek(MacroKey{Version: 3, Algorithm: MacroKMeans, K: 2}) {
		t.Error("newest entry should survive")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", st.Evictions)
	}
}

func TestMacroCacheWaiterHonorsContext(t *testing.T) {
	c := NewMacroCache(8)
	key := MacroKey{Version: 1, Algorithm: MacroKMeans, K: 3}
	started := make(chan struct{})
	release := make(chan struct{})
	go func() {
		_, _, _ = c.Do(context.Background(), key, func() (*MacroResult, error) {
			close(started)
			<-release
			return &MacroResult{}, nil
		})
	}()
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, _, err := c.Do(ctx, key, func() (*MacroResult, error) {
		t.Error("joiner must not compute")
		return nil, nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("joiner err = %v, want deadline exceeded", err)
	}
	close(release)
}

// --- limiter -------------------------------------------------------------

func TestLimiterShedAndQueueTimeout(t *testing.T) {
	l := NewLimiter(LimiterConfig{MaxInFlight: 1, MaxQueue: 1, QueueWait: 30 * time.Millisecond})

	release, err := l.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Second acquire takes the single queue permit and times out waiting.
	queuedErr := make(chan error, 1)
	go func() {
		_, err := l.Acquire(context.Background())
		queuedErr <- err
	}()
	// Wait for it to occupy the queue.
	deadline := time.Now().Add(time.Second)
	for l.Stats().Queued == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if l.Stats().Queued != 1 {
		t.Fatal("second acquire never queued")
	}

	// Third acquire finds queue and slots full: shed immediately.
	if _, err := l.Acquire(context.Background()); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third acquire err = %v, want ErrOverloaded", err)
	}

	if err := <-queuedErr; !errors.Is(err, ErrOverloaded) {
		t.Fatalf("queued acquire err = %v, want ErrOverloaded after QueueWait", err)
	}

	st := l.Stats()
	if st.Admitted != 1 || st.Shed != 2 || st.QueueTimeouts != 1 {
		t.Errorf("stats = %+v, want 1 admitted, 2 shed, 1 queue timeout", st)
	}

	// Release is idempotent and frees the slot for the next acquire.
	release()
	release()
	r2, err := l.Acquire(context.Background())
	if err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	r2()
	if got := l.Stats().InFlight; got != 0 {
		t.Errorf("InFlight = %d after releases, want 0", got)
	}
}

func TestLimiterQueuedAcquireGetsFreedSlot(t *testing.T) {
	l := NewLimiter(LimiterConfig{MaxInFlight: 1, MaxQueue: 1, QueueWait: 2 * time.Second})
	release, err := l.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		r, err := l.Acquire(context.Background())
		if err == nil {
			r()
		}
		got <- err
	}()
	deadline := time.Now().Add(time.Second)
	for l.Stats().Queued == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	release()
	if err := <-got; err != nil {
		t.Fatalf("queued acquire after release: %v", err)
	}
}

func TestLimiterRateCap(t *testing.T) {
	// MaxRate 10/s with burst 1: the first acquire drains the bucket,
	// immediate followers are rate-shed even though slots are free.
	l := NewLimiter(LimiterConfig{MaxInFlight: 8, MaxRate: 10, MaxBurst: 1})
	release, err := l.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	release()
	if _, err := l.Acquire(context.Background()); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second immediate acquire err = %v, want ErrOverloaded (rate cap)", err)
	}
	st := l.Stats()
	if st.RateLimited != 1 || st.Shed != 1 {
		t.Errorf("stats = %+v, want 1 rate-limited shed", st)
	}
	// After a refill interval a token is available again.
	time.Sleep(150 * time.Millisecond)
	r2, err := l.Acquire(context.Background())
	if err != nil {
		t.Fatalf("acquire after refill: %v", err)
	}
	r2()
}

func TestLimiterDrain(t *testing.T) {
	l := NewLimiter(LimiterConfig{MaxInFlight: 2})
	l.Drain()
	if !l.Draining() {
		t.Error("Draining() should report true after Drain")
	}
	if _, err := l.Acquire(context.Background()); !errors.Is(err, ErrDraining) {
		t.Fatalf("acquire while draining err = %v, want ErrDraining", err)
	}
	if got := l.Stats().Rejected; got != 1 {
		t.Errorf("Rejected = %d, want 1", got)
	}
}

// --- histogram -----------------------------------------------------------

func TestHistogramProm(t *testing.T) {
	h := NewHistogram()
	h.Observe(0.0001) // below first bound
	h.Observe(0.003)  // in (0.0025, 0.005]
	h.Observe(100)    // +Inf bucket
	if h.Count() != 3 {
		t.Fatalf("Count = %d, want 3", h.Count())
	}
	var b strings.Builder
	h.writeProm(&b, "x", `endpoint="assign"`)
	out := b.String()
	for _, want := range []string{
		`x_bucket{endpoint="assign",le="0.0005"} 1`,
		`x_bucket{endpoint="assign",le="0.005"} 2`,
		`x_bucket{endpoint="assign",le="+Inf"} 3`,
		`x_count{endpoint="assign"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q:\n%s", want, out)
		}
	}
}

// --- HTTP server ---------------------------------------------------------

func newTestServer(t *testing.T, keep int, admission LimiterConfig) (*Server, *Registry) {
	t.Helper()
	reg := NewRegistry(keep)
	srv, err := NewServer(Config{Registry: reg, Admission: admission})
	if err != nil {
		t.Fatal(err)
	}
	return srv, reg
}

func doReq(t *testing.T, h http.Handler, method, target string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	var req *http.Request
	if body != nil {
		req = httptest.NewRequest(method, target, bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
	} else {
		req = httptest.NewRequest(method, target, nil)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestServerProbes(t *testing.T) {
	srv, reg := newTestServer(t, 0, LimiterConfig{})
	h := srv.Handler()

	if rec := doReq(t, h, "GET", "/healthz", nil); rec.Code != http.StatusOK {
		t.Errorf("healthz = %d, want 200", rec.Code)
	}
	if rec := doReq(t, h, "GET", "/readyz", nil); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz before publish = %d, want 503", rec.Code)
	}
	reg.Publish(twoBlobPublished(1, 100))
	if rec := doReq(t, h, "GET", "/readyz", nil); rec.Code != http.StatusOK {
		t.Errorf("readyz after publish = %d, want 200", rec.Code)
	}
	srv.Drain()
	if rec := doReq(t, h, "GET", "/readyz", nil); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining = %d, want 503", rec.Code)
	}
	if rec := doReq(t, h, "GET", "/v1/clusters", nil); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("query while draining = %d, want 503", rec.Code)
	}
}

func TestServerAssign(t *testing.T) {
	srv, reg := newTestServer(t, 0, LimiterConfig{})
	h := srv.Handler()

	// No model yet: 503.
	if rec := doReq(t, h, "GET", "/v1/assign?point=1,2", nil); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("assign before publish = %d, want 503", rec.Code)
	}

	reg.Publish(twoBlobPublished(1, 100))

	rec := doReq(t, h, "GET", "/v1/assign?point=0.5,0", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("assign = %d: %s", rec.Code, rec.Body.String())
	}
	var resp AssignResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ID != 1 {
		t.Errorf("nearest id = %d, want 1 (origin cluster)", resp.ID)
	}
	if !resp.Absorbable {
		t.Error("point 0.5 away with radius 2 should be absorbable")
	}
	if resp.Distance < 0.49 || resp.Distance > 0.51 {
		t.Errorf("distance = %v, want 0.5", resp.Distance)
	}
	if resp.Version != 1 || resp.Weight != 4 {
		t.Errorf("version/weight = %d/%v, want 1/4", resp.Version, resp.Weight)
	}

	// Outlier point: nearest but not absorbable.
	rec = doReq(t, h, "GET", "/v1/assign?point=5,5", nil)
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Absorbable {
		t.Error("midpoint should be outside both absorb radii")
	}

	// Bad requests.
	for _, target := range []string{
		"/v1/assign",                       // missing point
		"/v1/assign?point=a,b",             // unparsable
		"/v1/assign?point=1",               // wrong dimensionality
		"/v1/assign?point=1,2&version=abc", // bad version
	} {
		if rec := doReq(t, h, "GET", target, nil); rec.Code != http.StatusBadRequest {
			t.Errorf("%s = %d, want 400", target, rec.Code)
		}
	}
	if rec := doReq(t, h, "GET", "/v1/assign?point=1,2&version=99", nil); rec.Code != http.StatusNotFound {
		t.Errorf("unknown version = %d, want 404", rec.Code)
	}
}

func TestServerClustersAndTimeTravel(t *testing.T) {
	srv, reg := newTestServer(t, 4, LimiterConfig{})
	h := srv.Handler()
	reg.Publish(twoBlobPublished(1, 100))
	reg.Publish(testPublished([][]float64{{0, 0}, {10, 10}, {20, 0}}, []float64{4, 6, 2}, 2, 200))

	rec := doReq(t, h, "GET", "/v1/clusters", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("clusters = %d: %s", rec.Code, rec.Body.String())
	}
	var resp ClustersResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Version != 2 || resp.Count != 3 || len(resp.Clusters) != 3 {
		t.Fatalf("latest clusters = version %d count %d, want 2/3", resp.Version, resp.Count)
	}
	if resp.Clusters[0].ID != 1 || resp.Clusters[0].Weight != 4 {
		t.Errorf("cluster[0] = %+v, want id 1 weight 4", resp.Clusters[0])
	}

	// Time travel to the older version.
	rec = doReq(t, h, "GET", "/v1/clusters?version=1", nil)
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Version != 1 || resp.Count != 2 {
		t.Errorf("version=1 clusters = version %d count %d, want 1/2", resp.Version, resp.Count)
	}
}

func TestServerMacroKMeansAndCache(t *testing.T) {
	srv, reg := newTestServer(t, 0, LimiterConfig{})
	h := srv.Handler()
	reg.Publish(testPublished(
		[][]float64{{0, 0}, {0.5, 0}, {10, 10}, {10.5, 10}},
		[]float64{1, 2, 3, 4}, 1, 100))

	body := []byte(`{"algorithm":"kmeans","k":2,"seed":7}`)
	rec := doReq(t, h, "POST", "/v1/macro", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("macro = %d: %s", rec.Code, rec.Body.String())
	}
	var res MacroResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Error("first macro response must not be cached")
	}
	if res.Version != 1 || res.Algorithm != MacroKMeans || res.MicroClusters != 4 {
		t.Errorf("result header = %+v, want version 1, kmeans over 4 MCs", res)
	}
	if len(res.Clusters) != 2 {
		t.Fatalf("got %d clusters, want 2", len(res.Clusters))
	}
	// The two near-origin MCs and the two far MCs must group together.
	members := map[uint64]int{}
	for _, c := range res.Clusters {
		for _, id := range c.Members {
			members[id] = c.Label
		}
	}
	if len(members) != 4 {
		t.Fatalf("members cover %d MCs, want 4", len(members))
	}
	if members[1] != members[2] || members[3] != members[4] || members[1] == members[3] {
		t.Errorf("grouping = %v, want {1,2} and {3,4} separated", members)
	}

	// Identical repeat: served from cache, exactly one computation.
	rec = doReq(t, h, "POST", "/v1/macro", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("repeat macro = %d", rec.Code)
	}
	var res2 MacroResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res2); err != nil {
		t.Fatal(err)
	}
	if !res2.Cached {
		t.Error("repeat macro response should be cached")
	}
	if st := srv.CacheStats(); st.Computations != 1 || st.Hits != 1 {
		t.Errorf("cache stats = %+v, want 1 computation / 1 hit", st)
	}
	// Different seed: a different key, computed anew.
	rec = doReq(t, h, "POST", "/v1/macro", []byte(`{"algorithm":"kmeans","k":2,"seed":8}`))
	if rec.Code != http.StatusOK {
		t.Fatalf("seed-8 macro = %d", rec.Code)
	}
	if st := srv.CacheStats(); st.Computations != 2 {
		t.Errorf("Computations = %d after new seed, want 2", st.Computations)
	}
}

func TestServerMacroDBSCAN(t *testing.T) {
	srv, reg := newTestServer(t, 0, LimiterConfig{})
	h := srv.Handler()
	reg.Publish(testPublished(
		[][]float64{{0, 0}, {0.5, 0}, {10, 10}, {10.5, 10}, {50, 50}},
		[]float64{3, 3, 3, 3, 0.5}, 1, 100))

	rec := doReq(t, h, "POST", "/v1/macro", []byte(`{"algorithm":"dbscan","eps":1,"minPoints":2}`))
	if rec.Code != http.StatusOK {
		t.Fatalf("dbscan macro = %d: %s", rec.Code, rec.Body.String())
	}
	var res MacroResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 2 {
		t.Fatalf("dbscan found %d clusters, want 2: %+v", len(res.Clusters), res.Clusters)
	}
	if len(res.Noise) != 1 || res.Noise[0] != 5 {
		t.Errorf("noise = %v, want the light isolated MC (id 5)", res.Noise)
	}
}

func TestServerMacroValidation(t *testing.T) {
	srv, reg := newTestServer(t, 0, LimiterConfig{})
	h := srv.Handler()
	reg.Publish(twoBlobPublished(1, 100))

	for _, body := range []string{
		`{"algorithm":"spectral"}`,               // unknown algorithm
		`{"algorithm":"kmeans"}`,                 // k missing
		`{"algorithm":"dbscan","eps":1}`,         // minPoints missing
		`{"algorithm":"kmeans","k":2,"bogus":1}`, // unknown field
		`not json`,
	} {
		if rec := doReq(t, h, "POST", "/v1/macro", []byte(body)); rec.Code != http.StatusBadRequest {
			t.Errorf("macro %s = %d, want 400", body, rec.Code)
		}
	}
	if rec := doReq(t, h, "POST", "/v1/macro", []byte(`{"algorithm":"kmeans","k":2,"version":42}`)); rec.Code != http.StatusNotFound {
		t.Errorf("macro unknown version = %d, want 404", rec.Code)
	}
}

func TestServerMacroPinsLatestVersion(t *testing.T) {
	srv, reg := newTestServer(t, 0, LimiterConfig{})
	h := srv.Handler()
	reg.Publish(twoBlobPublished(1, 100))
	reg.Publish(twoBlobPublished(2, 200))

	rec := doReq(t, h, "POST", "/v1/macro", []byte(`{"algorithm":"kmeans","k":2,"seed":1}`))
	if rec.Code != http.StatusOK {
		t.Fatalf("macro = %d", rec.Code)
	}
	var res MacroResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Version != 2 {
		t.Errorf("version-0 request resolved to %d, want latest (2)", res.Version)
	}
}

func TestServerOverload429(t *testing.T) {
	srv, reg := newTestServer(t, 0, LimiterConfig{
		MaxInFlight: 1, MaxQueue: 1, QueueWait: 5 * time.Millisecond, RetryAfter: 2 * time.Second,
	})
	h := srv.Handler()
	reg.Publish(twoBlobPublished(1, 100))

	// Occupy the only execution slot directly, then occupy the only queue
	// permit with a waiter; the HTTP request then sheds deterministically.
	release, err := srv.limiter.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	waiterDone := make(chan struct{})
	go func() {
		defer close(waiterDone)
		_, _ = srv.limiter.Acquire(context.Background()) // times out after QueueWait
	}()
	deadline := time.Now().Add(time.Second)
	for srv.limiter.Stats().Queued == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	rec := doReq(t, h, "GET", "/v1/assign?point=1,2", nil)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("overloaded assign = %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After = %q, want %q", got, "2")
	}
	<-waiterDone
	if st := srv.AdmissionStats(); st.Shed < 2 {
		t.Errorf("Shed = %d, want >= 2", st.Shed)
	}
}

func TestServerMetrics(t *testing.T) {
	reg := NewRegistry(0)
	srv, err := NewServer(Config{
		Registry: reg,
		IngestStats: func() IngestStats {
			return IngestStats{ProducerProduced: 1234, ProducerDropped: 5, ProducerLag: 17}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	reg.Publish(twoBlobPublished(3, 900))

	// Generate some traffic so query counters are non-zero.
	doReq(t, h, "GET", "/v1/assign?point=0,0", nil)
	doReq(t, h, "GET", "/v1/clusters", nil)
	doReq(t, h, "POST", "/v1/macro", []byte(`{"algorithm":"kmeans","k":2,"seed":3}`))
	doReq(t, h, "POST", "/v1/macro", []byte(`{"algorithm":"kmeans","k":2,"seed":3}`))

	rec := doReq(t, h, "GET", "/metrics", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics = %d", rec.Code)
	}
	out := rec.Body.String()
	for _, want := range []string{
		"diststream_snapshot_version 1",
		"diststream_model_microclusters 2",
		"diststream_ingest_records_total 900",
		"diststream_snapshots_published_total 1",
		"diststream_producer_records_total 1234",
		"diststream_producer_dropped_total 5",
		"diststream_producer_lag 17",
		`diststream_query_total{endpoint="assign",code="200"} 1`,
		`diststream_query_total{endpoint="clusters",code="200"} 1`,
		`diststream_query_total{endpoint="macro",code="200"} 2`,
		"diststream_macro_cache_hits_total 1",
		"diststream_macro_computations_total 1",
		"diststream_admission_admitted_total 4",
		`diststream_query_latency_seconds_count{endpoint="assign"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full metrics output:\n%s", out)
	}
}

func TestFormatRetryAfter(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{50 * time.Millisecond, "1"},
		{time.Second, "1"},
		{1500 * time.Millisecond, "2"},
		{3 * time.Second, "3"},
	}
	for _, c := range cases {
		if got := formatRetryAfter(c.d); got != c.want {
			t.Errorf("formatRetryAfter(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}

func TestParsePoint(t *testing.T) {
	v, err := parsePoint("1, 2.5,-3", 3)
	if err != nil {
		t.Fatal(err)
	}
	want := vector.Vector{1, 2.5, -3}
	for i := range want {
		if v[i] != want[i] {
			t.Fatalf("parsePoint = %v, want %v", v, want)
		}
	}
	if _, err := parsePoint("1,2", 3); err == nil {
		t.Error("dimension mismatch should error")
	}
	if _, err := parsePoint("", 0); err == nil {
		t.Error("empty point should error")
	}
	if _, err := parsePoint("x", 0); err == nil {
		t.Error("non-numeric point should error")
	}
}
