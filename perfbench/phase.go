package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"diststream/internal/core"
	"diststream/internal/harness"
	"diststream/internal/mbsp"
	"diststream/internal/mbsp/rpcexec"
	"diststream/internal/serve"
	"diststream/internal/subscribe"
	"diststream/internal/vclock"
)

// phase is one pipeline run over the workload's records.
type phase struct {
	w    *workload
	in   *input
	seed int64
	// rate is the open-loop arrival rate; 0 runs the closed max-rate loop.
	rate float64
	// tr, when set, installs the decorators and records spans.
	tr *recorder
	// queries runs the HTTP query client (serve-tier workloads).
	queries bool
	// dir is a scratch directory for checkpoints.
	dir string
	// keep retains this many publications, evenly spaced over the run,
	// for quality scoring after the run.
	keep int
}

// phaseResult is what one phase observed.
type phaseResult struct {
	setup time.Duration
	stats core.RunStats
	state []byte
	algo  core.Algorithm

	// marks are (wall time, records processed) at each post-warm-up
	// publication, for windowed throughput.
	marks        []mark
	retained     []core.Published
	batchLatency []float64 // ms, open loop, per post-warm-up publication
	lateness     []float64 // ms, open loop, per post-warm-up record
	replicaLag   []float64 // ms, per version the replica installed
	peakHeap     uint64

	queryLatency       []float64 // ms
	queries, queryFail int
	queryWall          time.Duration
	admission          serve.LimiterStats

	netSent, netRecvd int64
	bcast             rpcexec.BroadcastStats
	hub               subscribe.HubStats
	client            subscribe.ClientStats

	proc  procUsage
	exec  execStats
	spans []span

	// checks are the phase's correctness checks, by name.
	checks []check
}

type mark struct {
	at      time.Time
	records int
}

type check struct {
	name string
	err  error
}

// procUsage is process CPU, allocation and GC pause time over a window.
type procUsage struct {
	cpu, gcPause, wall time.Duration
	alloc              uint64

	startedAt      time.Time
	cpu0           time.Duration
	alloc0, pause0 uint64
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (p *procUsage) begin() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.startedAt = time.Now()
	p.cpu0, p.alloc0, p.pause0 = processCPU(), ms.TotalAlloc, ms.PauseTotalNs
}

func (p *procUsage) end() {
	if p.startedAt.IsZero() {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.wall = time.Since(p.startedAt)
	p.cpu = processCPU() - p.cpu0
	p.alloc = ms.TotalAlloc - p.alloc0
	p.gcPause = time.Duration(ms.PauseTotalNs - p.pause0)
}

// heapSampler records the largest HeapInuse seen while it runs.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if ms.HeapInuse > h.peak {
				h.peak = ms.HeapInuse
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}

// publishObserver is the benchmark's view of the publish path: it wraps
// the OnSnapshot hook, timing each delivery.
type publishObserver struct {
	p       *phase
	feed    *feed
	started chan struct{} // closed at the first publication

	firstAt  time.Time
	latency  []float64
	marks    []mark
	keepStep int
	retained []core.Published

	mu          sync.Mutex
	publishedAt map[uint64]time.Time // version -> Hub.Publish call time
	lags        []float64
	proc        *procUsage
}

func (o *publishObserver) hook(name string, publish func(core.Published) uint64) core.PublishHook {
	return func(pub core.Published) {
		var trStart time.Duration
		if o.p.tr != nil {
			trStart = o.p.tr.now()
		}
		called := time.Now()
		version := publish(pub)
		done := time.Now()
		if o.p.tr != nil {
			o.p.tr.driver(name, trStart, o.p.tr.now(), len(pub.MCs), 0, gapTail)
		}
		o.mu.Lock()
		o.publishedAt[version] = called
		o.mu.Unlock()
		if o.firstAt.IsZero() {
			o.firstAt = done
			o.feed.release(done)
			if o.proc != nil {
				o.proc.begin()
			}
			close(o.started)
			return
		}
		o.marks = append(o.marks, mark{done, pub.Stats.Records})
		if o.keepStep > 0 && pub.Batch%o.keepStep == 0 {
			o.retained = append(o.retained, pub)
		}
		// The batch that completes warm-up (Batch 1) was cut before the
		// schedule started; every later batch was paced.
		if o.p.rate > 0 && pub.Batch > 1 {
			// The batcher closes a window when it reads the next record, so
			// the generator's oversleep on that record is left out.
			last := o.p.w.initRecords + pub.Stats.Records - 1
			d := done.Sub(o.feed.due(last)) - o.feed.overslept(last+1)
			o.latency = append(o.latency, float64(d)/1e6)
		}
	}
}

// replicaInstalled runs on the subscriber's goroutine as each version
// lands in the replica.
func (o *publishObserver) replicaInstalled(r *subscribe.Replica) {
	now := time.Now()
	o.mu.Lock()
	defer o.mu.Unlock()
	if at, ok := o.publishedAt[r.Version]; ok {
		o.lags = append(o.lags, float64(now.Sub(at))/1e6)
	}
}

// runPhase builds the system exactly as a user would — workers, executor,
// engine, algorithm, serve tier — runs the records through it, and tears
// it down. With p.tr set, each layer's value is decorated first.
func runPhase(ctx context.Context, p *phase) (*phaseResult, error) {
	res := &phaseResult{}
	begin := time.Now()

	algos, err := harness.NewAlgorithmRegistry()
	if err != nil {
		return nil, err
	}
	workerAlgos, hubAlgos, replicaAlgos := algos, algos, algos
	if p.tr != nil {
		if workerAlgos, err = traceAlgorithms(algos, p.tr, sideWorker); err != nil {
			return nil, err
		}
		if hubAlgos, err = traceAlgorithms(algos, p.tr, sideHub); err != nil {
			return nil, err
		}
		if replicaAlgos, err = traceAlgorithms(algos, p.tr, sideReplica); err != nil {
			return nil, err
		}
	}
	reg := mbsp.NewRegistry()
	if err := core.RegisterOps(reg, workerAlgos); err != nil {
		return nil, err
	}
	if p.tr != nil {
		if reg, err = traceOps(reg, p.tr); err != nil {
			return nil, err
		}
	}

	var exec mbsp.Executor
	var remote *rpcexec.Executor
	if p.w.tcp {
		harness.RegisterAllWireTypes()
		workers, addrs, err := rpcexec.StartLocalCluster(p.w.workers, reg)
		if err != nil {
			return nil, err
		}
		defer func() {
			for _, wk := range workers {
				_ = wk.Close()
			}
		}()
		if remote, err = rpcexec.DialConfig(addrs, rpcexec.Config{DeltaBroadcast: p.w.delta}); err != nil {
			return nil, err
		}
		exec = remote
	} else {
		if exec, err = mbsp.NewLocalExecutor(mbsp.LocalConfig{Parallelism: p.w.workers, Registry: reg}); err != nil {
			return nil, err
		}
	}
	if p.tr != nil {
		traced, err := traceExecutor(exec, p.tr, &res.exec)
		if err != nil {
			_ = exec.Close()
			return nil, err
		}
		exec = traced
	}
	eng, err := mbsp.NewEngine(exec)
	if err != nil {
		_ = exec.Close()
		return nil, err
	}
	defer eng.Close()

	base, err := harness.NewAlgorithm(p.w.algo, p.in.ds, p.seed)
	if err != nil {
		return nil, err
	}
	algo := base
	if p.tr != nil {
		if algo, err = traceAlgorithm(base, p.tr, sideDriver); err != nil {
			return nil, err
		}
	}

	src := newFeed(p.in, p.rate, p.w.initRecords)
	if p.tr != nil {
		src.trace(p.tr)
	}
	obs := &publishObserver{
		p: p, feed: src,
		started:     make(chan struct{}),
		publishedAt: map[uint64]time.Time{},
	}
	if p.rate == 0 {
		obs.proc = &res.proc
	}
	if p.keep > 0 {
		obs.keepStep = max(1, len(p.in.sizes)/p.keep)
	}

	registry := serve.NewRegistry(0)
	hook := obs.hook("serve.publish", registry.Publish)
	var (
		hub      *subscribe.Hub
		client   *subscribe.Client
		server   *serve.Server
		queryRun *queryClient
		ck       *core.CheckpointConfig
	)
	if p.w.serveTier {
		if hub, err = subscribe.NewHub(subscribe.HubConfig{Registry: registry, Algos: hubAlgos}); err != nil {
			return nil, err
		}
		var hubWG sync.WaitGroup
		defer func() {
			_ = hub.Close()
			hubWG.Wait()
		}()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		hubWG.Add(1)
		go func() {
			defer hubWG.Done()
			_ = hub.Serve(ln)
		}()
		client, err = subscribe.Dial(subscribe.ClientConfig{
			Addr: ln.Addr().String(), Algos: replicaAlgos, OnUpdate: obs.replicaInstalled,
		})
		if err != nil {
			return nil, err
		}
		defer client.Close()
		hook = obs.hook("subscribe.hub_publish", hub.Publish)

		if server, err = serve.NewServer(serve.Config{Registry: registry}); err != nil {
			return nil, err
		}
		httpLn, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		httpSrv := &http.Server{Handler: server.Handler()}
		var httpWG sync.WaitGroup
		httpWG.Add(1)
		go func() {
			defer httpWG.Done()
			_ = httpSrv.Serve(httpLn)
		}()
		defer func() {
			sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer scancel()
			_ = httpSrv.Shutdown(sctx)
			httpWG.Wait()
		}()
		if p.queries {
			queryRun = newQueryClient("http://"+httpLn.Addr().String(), p.in)
		}
		if p.w.checkpointEvery > 0 {
			ck = &core.CheckpointConfig{Dir: p.dir, EveryNBatches: p.w.checkpointEvery, Keep: 2}
		}
	}

	pl, err := core.NewPipeline(core.Config{
		Algorithm:     algo,
		Engine:        eng,
		BatchInterval: vclock.Duration(p.w.batchSeconds),
		InitRecords:   p.w.initRecords,
		OnPublish:     hook,
		Checkpoint:    ck,
	})
	if err != nil {
		return nil, err
	}

	heap := startHeapSampler(50 * time.Millisecond)
	var queryWG sync.WaitGroup
	if queryRun != nil {
		queryWG.Add(1)
		go func() {
			defer queryWG.Done()
			select {
			case <-obs.started:
				queryRun.run()
			case <-queryRun.quit:
			}
		}()
	}
	stats, runErr := pl.RunContext(ctx, src)
	if p.tr != nil {
		src.finishBatch(p.tr.now())
	}
	if queryRun != nil {
		queryRun.stop()
		queryWG.Wait()
	}
	res.peakHeap = heap.finish()
	if obs.proc != nil {
		obs.proc.end()
	}
	if runErr != nil {
		return nil, fmt.Errorf("pipeline: %w", runErr)
	}
	if obs.firstAt.IsZero() {
		return nil, errors.New("pipeline never published")
	}
	res.setup = obs.firstAt.Sub(begin)
	res.stats = stats
	res.algo = base
	res.batchLatency = obs.latency
	res.marks = obs.marks
	res.retained = obs.retained
	res.lateness = durationsMS(src.late)
	if res.state, err = base.(core.StateCodec).EncodeState(pl.Model()); err != nil {
		return nil, err
	}
	if remote != nil {
		res.netSent, res.netRecvd = remote.NetworkBytes()
		res.bcast = remote.BroadcastStats()
	}
	if queryRun != nil {
		res.queryLatency, res.queries, res.queryFail, res.queryWall = queryRun.results()
		res.admission = server.AdmissionStats()
	}
	if hub != nil {
		res.checks = append(res.checks, check{"replica matches published model", replicaMatches(ctx, client, registry)})
		res.hub = hub.Stats()
		res.client = client.Stats()
		obs.mu.Lock()
		res.replicaLag = obs.lags
		obs.mu.Unlock()
	}
	if p.tr != nil {
		res.spans = p.tr.snapshot()
	}
	return res, nil
}

// replicaMatches waits for the subscriber to install the last published
// version and compares its micro-cluster checksum with the published
// model's.
func replicaMatches(ctx context.Context, client *subscribe.Client, registry *serve.Registry) error {
	latest := registry.Latest()
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := client.WaitVersion(wctx, latest.Version); err != nil {
		return fmt.Errorf("replica never reached version %d: %w", latest.Version, err)
	}
	r := client.Replica()
	want, got := core.ChecksumMCs(latest.MCs), core.ChecksumMCs(r.MCs)
	if r.Version != latest.Version || got != want {
		return fmt.Errorf("replica version %d checksum %x, published version %d checksum %x",
			r.Version, got, latest.Version, want)
	}
	return nil
}

// queryThink is the query client's pause between a reply and its next
// request. Without it the one client and its server handler keep a whole
// core of this 2-core host busy, and whether a batch's two tasks get both
// cores turns into a coin toss that splits batch latency into two modes.
const queryThink = time.Millisecond

// queryClient is one closed-loop HTTP client sending GET /v1/assign for
// points drawn from the workload's records, pausing queryThink between a
// reply and the next request.
type queryClient struct {
	urls   []string
	client *http.Client
	quit   chan struct{}

	mu      sync.Mutex
	latency []float64
	fail    int
	wall    time.Duration
}

func newQueryClient(base string, in *input) *queryClient {
	recs := in.ds.Records
	n := 256
	if n > len(recs) {
		n = len(recs)
	}
	q := &queryClient{
		client: &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		quit:   make(chan struct{}),
	}
	for i := 0; i < n; i++ {
		vals := recs[i*len(recs)/n].Values
		parts := make([]string, len(vals))
		for j, v := range vals {
			parts[j] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		q.urls = append(q.urls, base+"/v1/assign?point="+strings.Join(parts, ","))
	}
	return q
}

func (q *queryClient) run() {
	start := time.Now()
	think := time.NewTimer(0)
	defer think.Stop()
	for i := 0; ; i++ {
		select {
		case <-q.quit:
			q.mu.Lock()
			q.wall = time.Since(start)
			q.mu.Unlock()
			return
		case <-think.C:
		}
		t := time.Now()
		ok := q.get(q.urls[i%len(q.urls)])
		d := float64(time.Since(t)) / 1e6
		q.mu.Lock()
		q.latency = append(q.latency, d)
		if !ok {
			q.fail++
		}
		q.mu.Unlock()
		think.Reset(queryThink)
	}
}

func (q *queryClient) get(url string) bool {
	resp, err := q.client.Get(url)
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

func (q *queryClient) stop() { close(q.quit) }

func (q *queryClient) results() ([]float64, int, int, time.Duration) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.client.CloseIdleConnections()
	return q.latency, len(q.latency), q.fail, q.wall
}

// windowedRate splits the marks into windows of consecutive
// publications and returns each window's records per second. A median
// over windows reads the sustained rate while discarding windows a
// co-tenant's CPU burst slowed.
func windowedRate(marks []mark, windows int) []float64 {
	if len(marks) < 2*windows {
		windows = len(marks) / 2
	}
	var out []float64
	for w := 0; w < windows; w++ {
		lo, hi := marks[w*(len(marks)-1)/windows], marks[(w+1)*(len(marks)-1)/windows]
		if d := hi.at.Sub(lo.at).Seconds(); d > 0 {
			out = append(out, float64(hi.records-lo.records)/d)
		}
	}
	return out
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// scratchDir makes a fresh directory for one phase's checkpoints under
// the checkout's build directory.
func scratchDir(name string) (string, func(), error) {
	dir, err := os.MkdirTemp(".bench_build", name+"-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { _ = os.RemoveAll(dir) }, nil
}
