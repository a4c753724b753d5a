package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"diststream/internal/mbsp"
	"diststream/internal/stream"
	"diststream/internal/vclock"
)

// OrderMode selects between the paper's order-aware update mechanism and
// the unordered mini-batch baseline.
type OrderMode int

// Order modes.
const (
	// OrderAware preserves arrival order in local updates and
	// created/updated-time order in the global update (the DistStream
	// design, §IV-C).
	OrderAware OrderMode = iota + 1
	// OrderUnordered processes records and updates in an arbitrary
	// (deterministically scrambled) order — the baseline of [13].
	OrderUnordered
)

// String renders the mode name used in experiment reports.
func (m OrderMode) String() string {
	switch m {
	case OrderAware:
		return "ordered"
	case OrderUnordered:
		return "unordered"
	default:
		return fmt.Sprintf("ordermode(%d)", int(m))
	}
}

// BatchHook runs on the driver after each batch's global update; quality
// evaluation and offline-clustering triggers hang off it. Returning an
// error aborts the run.
type BatchHook func(batch stream.Batch, model *Model) error

// Config configures a DistStream pipeline.
type Config struct {
	// Algorithm is the stream clustering algorithm to parallelize.
	Algorithm Algorithm
	// Engine executes the parallel stages.
	Engine *mbsp.Engine
	// GlobalShards, when >= 1, partitions the global update's micro-
	// cluster keyspace into that many shards and runs the per-MC phase as
	// parallel per-shard reducers with a serialized cross-shard residue —
	// byte-identical to the serial path. It takes effect only for
	// algorithms implementing ShardedGlobalUpdater (CluStream, DenStream);
	// others transparently keep the serial global update. 0 (default)
	// selects the serial path for every algorithm.
	GlobalShards int
	// BatchInterval is the mini-batch window in virtual seconds.
	BatchInterval vclock.Duration
	// Order defaults to OrderAware.
	Order OrderMode
	// InitRecords is the warm-up sample size used to initialize the
	// micro-clusters with batch-mode clustering. Default 500.
	InitRecords int
	// DisablePreMerge turns off the §V-C outlier pre-merge optimization
	// (used by the ablation benchmark).
	DisablePreMerge bool
	// DecayAlpha/DecayBeta, when both set, enforce the §IV-D maximum
	// batch interval log_beta(1/alpha).
	DecayAlpha, DecayBeta float64
	// Adaptive, when set, adjusts the batch interval at run time toward
	// a target records-per-batch (the paper's §VII-D3 future work). The
	// BatchInterval is then only the starting point.
	Adaptive *AdaptiveBatch
	// Checkpoint, when set, durably snapshots the run every
	// EveryNBatches batches so it can be continued with ResumeFrom after
	// a driver crash. Requires an Algorithm implementing StateCodec.
	Checkpoint *CheckpointConfig
	// OnBatch, when set, runs after every batch's global update.
	OnBatch BatchHook
	// OnPublish, when set, receives a frozen copy of the model (cloned
	// micro-clusters plus a prebuilt FlatIndex and the algorithm's search
	// snapshot) after model initialization and after every batch's global
	// update. The published data is never touched by the pipeline again,
	// so receivers may retain it and read it concurrently — this is the
	// feed for the model-serving subsystem (internal/serve).
	OnPublish PublishHook
	// PublishMinInterval, when positive, paces OnPublish by wall time:
	// after a publication, further batches skip the hook (and the model
	// clone, index and snapshot built for it) until the interval has
	// elapsed. A saturated ingest loop can complete hundreds of batches
	// per second, and no downstream consumer — HTTP serving, replica
	// fan-out — needs a frozen model at that cadence; pacing keeps the
	// publication cost bounded by wall time instead of by ingest speed.
	// The first publication (the initialized model) is never skipped.
	// 0 publishes after every batch.
	PublishMinInterval time.Duration
}

// StageStats accumulates wall time spent in one pipeline stage.
type StageStats struct {
	Wall  time.Duration
	Count int
}

// RunStats summarizes a pipeline run.
type RunStats struct {
	Batches        int
	Records        int
	InitRecords    int
	UpdatedMCs     int
	CreatedMCs     int
	OutlierRecords int
	Assign         StageStats
	Shuffle        StageStats
	LocalUpdate    StageStats
	// GlobalUpdate times the whole driver-side global update call per
	// batch (apply + fold, excluding the sort). The sub-timings below
	// attribute where that wall time goes.
	GlobalUpdate StageStats
	// GlobalSort times the order-aware sort (or baseline scramble) of the
	// collected updates.
	GlobalSort StageStats
	// GlobalApply times the per-MC application phase: the whole
	// GlobalUpdate call on the serial path, the parallel per-shard
	// reducer phase on the sharded path.
	GlobalApply StageStats
	// GlobalFold times the sharded path's serialized residue (fragment
	// fold, merges, deletions, sweeps); zero on the serial path.
	GlobalFold StageStats
	// ShardedGlobalBatches counts batches whose global update ran the
	// sharded path (GlobalShards >= 1 and the algorithm has the
	// capability).
	ShardedGlobalBatches int
	TotalWall            time.Duration
	// StragglerTasks and TotalTasks aggregate over all parallel stages.
	StragglerTasks, TotalTasks int
	// TaskRetries counts task re-executions across all parallel stages:
	// op-level retries on the local executor, transport retries and
	// re-dispatches after worker loss on the TCP executor. A fault-free
	// run reports 0.
	TaskRetries int
	// FailedStages counts parallel stage executions that returned an
	// error (the run then aborted, unless the executor recovered).
	FailedStages int
	// LostWorkers counts workers declared permanently lost during the
	// run (TCP executor only): the run degraded onto the survivors.
	LostWorkers int
	// AdaptiveAdjustments counts batch-interval changes made by the
	// adaptive controller; FinalBatchSeconds is the interval it settled
	// on (0 when adaptation is off).
	AdaptiveAdjustments int
	FinalBatchSeconds   float64
	// Checkpoints counts durable snapshots written during the run
	// (carried across a resume, so an interrupted-and-resumed run
	// reports the same total as an uninterrupted one).
	Checkpoints int
	// SpeculativeLaunches counts backup task copies dispatched for
	// suspected stragglers; SpeculativeWins counts backups whose result
	// was committed before the primary finished.
	SpeculativeLaunches int
	SpeculativeWins     int
	// DeltaBroadcasts counts batches whose model broadcast shipped as a
	// delta (TCP executor with ExecutionOptions.DeltaBroadcast on; workers
	// without the previous version still receive the full snapshot).
	DeltaBroadcasts int
	// WorkerJoins and WorkerDepartures count membership changes applied
	// at batch boundaries (executors with ElasticMembership only): a
	// join is a worker admitted — or readmitted after a crash — into the
	// dispatch rotation with full broadcast catch-up; a departure is a
	// worker that left it (crash, exhausted health probes, or clean
	// drain). A fixed-membership run reports 0 for both.
	WorkerJoins      int
	WorkerDepartures int
}

// Throughput returns processed records per wall-clock second.
func (s RunStats) Throughput() float64 {
	if s.TotalWall <= 0 {
		return 0
	}
	return float64(s.Records) / s.TotalWall.Seconds()
}

// StragglerFraction returns the fraction of parallel tasks that were
// stragglers (>1.2x stage mean).
func (s RunStats) StragglerFraction() float64 {
	if s.TotalTasks == 0 {
		return 0
	}
	return float64(s.StragglerTasks) / float64(s.TotalTasks)
}

// Pipeline is a running DistStream instance: the driver-side batch loop
// over an mbsp engine.
type Pipeline struct {
	cfg   Config
	model *Model
	stats RunStats

	// Sharded global update machinery (nil sharder: serial path). The
	// pool and planner persist across batches so steady-state sharded
	// updates neither spawn state nor allocate plan buffers per batch.
	sharder      ShardedGlobalUpdater
	shardPool    *ReducerPool
	shardPlanner *ShardPlanner

	initBuf     []stream.Record
	initialized bool
	configSent  bool

	// Delta broadcast bookkeeping: the clone list most recently
	// broadcast successfully (nil when the workers' state is unknown —
	// start of run, after a resume, after a failed broadcast — which
	// forces the next broadcast to carry the full snapshot) and the
	// broadcast sequence number stamped into deltas.
	lastBroadcast []MicroCluster
	modelVersion  uint64

	// Checkpoint/resume bookkeeping. batchesSeen counts every batch the
	// batcher emitted (including ones fully absorbed by warm-up, which
	// ProcessBatch does not count in stats.Batches) and doubles as the
	// checkpoint sequence number. resume holds a restored stream
	// position until the next RunContext applies it; wallBase carries
	// the interrupted run's wall time into the resumed total.
	batchesSeen int
	resume      *stream.BatcherState
	wallBase    time.Duration

	// lastPublish is when the OnPublish hook last ran; the publication
	// pacing clock (see Config.PublishMinInterval).
	lastPublish time.Time
}

// NewPipeline validates cfg and builds a pipeline.
func NewPipeline(cfg Config) (*Pipeline, error) {
	if cfg.Algorithm == nil {
		return nil, errors.New("core: config needs an Algorithm")
	}
	if cfg.Engine == nil {
		return nil, errors.New("core: config needs an Engine")
	}
	if cfg.BatchInterval <= 0 {
		return nil, fmt.Errorf("core: batch interval %v must be positive", cfg.BatchInterval)
	}
	if cfg.Order == 0 {
		cfg.Order = OrderAware
	}
	if cfg.Order != OrderAware && cfg.Order != OrderUnordered {
		return nil, fmt.Errorf("core: invalid order mode %d", int(cfg.Order))
	}
	if cfg.InitRecords <= 0 {
		cfg.InitRecords = 500
	}
	if err := ValidateBatchInterval(cfg.BatchInterval, cfg.DecayAlpha, cfg.DecayBeta); err != nil {
		return nil, err
	}
	if cfg.Adaptive != nil {
		validated, err := cfg.Adaptive.validate(cfg.DecayAlpha, cfg.DecayBeta)
		if err != nil {
			return nil, err
		}
		cfg.Adaptive = &validated
	}
	if cfg.Checkpoint != nil {
		validated, err := cfg.Checkpoint.withDefaults()
		if err != nil {
			return nil, err
		}
		if _, ok := cfg.Algorithm.(StateCodec); !ok {
			return nil, fmt.Errorf("core: checkpointing requires algorithm %q to implement StateCodec",
				cfg.Algorithm.Name())
		}
		cfg.Checkpoint = &validated
	}
	if cfg.GlobalShards < 0 {
		return nil, fmt.Errorf("core: global shards %d must be >= 0", cfg.GlobalShards)
	}
	p := &Pipeline{cfg: cfg, model: NewModel()}
	if cfg.GlobalShards >= 1 {
		// Capability detection, same pattern as mbsp.Capabilities:
		// algorithms without a sharded decomposition keep the serial path.
		if sharder, ok := cfg.Algorithm.(ShardedGlobalUpdater); ok {
			p.sharder = sharder
			p.shardPool = NewReducerPool(0)
			p.shardPlanner = NewShardPlanner()
		}
	}
	return p, nil
}

// ShardedGlobal reports whether global updates run the sharded path:
// GlobalShards >= 1 and the algorithm implements ShardedGlobalUpdater.
func (p *Pipeline) ShardedGlobal() bool { return p.sharder != nil }

// Model returns the live model (driver-side view).
func (p *Pipeline) Model() *Model { return p.model }

// Stats returns a copy of the accumulated run statistics.
func (p *Pipeline) Stats() RunStats { return p.stats }

// Initialized reports whether the warm-up phase has completed.
func (p *Pipeline) Initialized() bool { return p.initialized }

// Offline runs the algorithm's offline phase on the current model.
func (p *Pipeline) Offline() (*Clustering, error) {
	return p.cfg.Algorithm.Offline(p.model)
}

// Run consumes the source to exhaustion, cutting it into mini-batches of
// the configured interval and processing each. It is RunContext with a
// background context; prefer RunContext when the caller needs to cancel
// or bound a streaming run.
func (p *Pipeline) Run(src stream.Source) (RunStats, error) {
	return p.RunContext(context.Background(), src)
}

// prefetchThreshold is the observed per-fetch wall time above which the
// batch loop prefetches the next batch asynchronously. Below it
// the source is effectively instant and the goroutine handoff would cost
// more than the fetch it hides.
const prefetchThreshold = 100 * time.Microsecond

// fetched is one prefetched batch plus the batcher position captured
// immediately after it was cut (the position the checkpoint tail must
// record even while the next prefetch advances the batcher).
type fetched struct {
	batch stream.Batch
	state stream.BatcherState
	eof   bool
	err   error
}

// RunContext is Run under a context: cancelling ctx (or hitting its
// deadline) stops the run between batches — and interrupts in-flight
// worker calls on executors that support it — returning the context's
// error with the statistics accumulated so far.
//
// The loop overlaps two kinds of dependency-free work with batch N's
// broadcast+assign: batch N-1's publish/checkpoint tail (it runs until
// runBatch joins it right before the global update), and the prefetch of
// batch N+1 from the source. The global update itself — the only model
// mutation — runs exclusively on the batch loop after that join (its
// sharded variant parallelizes internally but never overlaps another
// batch's work), so batch N+1 always assigns against batch N's model.
func (p *Pipeline) RunContext(ctx context.Context, src stream.Source) (RunStats, error) {
	start := time.Now()
	batcher, err := stream.NewBatcher(src, p.cfg.BatchInterval)
	if err != nil {
		return p.stats, err
	}
	if p.resume != nil {
		if err := p.applyResume(ctx, src, batcher); err != nil {
			return p.stats, err
		}
	}
	adaptive := p.cfg.Adaptive != nil
	// Prefetching from a source that delivers instantly (a replayed slice,
	// an in-memory buffer) costs more in goroutine handoffs than it hides,
	// so the async prefetch engages only while fetches are observed to be
	// slower than prefetchThreshold.
	fetchWall := prefetchThreshold
	fetch := func() *fetched {
		fetchStart := time.Now()
		f := &fetched{}
		f.batch, f.err = batcher.Next()
		if errors.Is(f.err, io.EOF) {
			f.err, f.eof = nil, true
		}
		if f.err == nil && !f.eof {
			f.state = batcher.State()
		}
		fetchWall = time.Since(fetchStart)
		return f
	}

	// post is the in-flight publish/checkpoint tail of a previous batch;
	// joinPost awaits it and surfaces its error exactly once.
	var post chan error
	joinPost := func() error {
		if post == nil {
			return nil
		}
		err := <-post
		post = nil
		return err
	}
	// inflight is the async prefetch of the next batch. takeFetch awaits
	// and consumes it.
	var inflight chan *fetched
	takeFetch := func() *fetched {
		if inflight == nil {
			return nil
		}
		f := <-inflight
		inflight = nil
		return f
	}
	fail := func(err error) (RunStats, error) {
		takeFetch()
		if jerr := joinPost(); jerr != nil && err == nil {
			err = jerr
		}
		return p.stats, err
	}

	cur := fetch()
	for {
		if err := ctx.Err(); err != nil {
			takeFetch()
			_ = joinPost() // subsumed by the cancellation
			p.stats.TotalWall = p.wallBase + time.Since(start)
			return p.stats, err
		}
		if cur.err != nil {
			return fail(cur.err)
		}
		if cur.eof {
			break
		}
		// Start prefetching the next batch while this one runs. Skipped
		// under adaptive batching: the controller retunes the interval
		// after this batch, which must happen before the next cut. Also
		// skipped until the model is initialized: a warm-up batch runs no
		// stages for the fetch to hide behind, and the initialization it
		// may complete is driver work the fetch would compete with.
		// (fetchWall is safe to read here: the goroutine that last wrote
		// it was consumed by takeFetch's channel receive.)
		if !adaptive && p.initialized && fetchWall >= prefetchThreshold {
			ch := make(chan *fetched, 1)
			inflight = ch
			go func() { ch <- fetch() }()
		}
		batch := cur.batch
		stateAfter := cur.state

		processed, err := p.runBatch(ctx, batch, joinPost)
		if err != nil {
			return fail(err)
		}
		if adaptive {
			next := p.cfg.Adaptive.next(batcher.Interval(), len(batch.Records))
			if next != batcher.Interval() {
				if err := batcher.SetInterval(next); err != nil {
					return fail(err)
				}
				p.stats.AdaptiveAdjustments++
			}
			p.stats.FinalBatchSeconds = float64(batcher.Interval())
			stateAfter = batcher.State()
		}
		p.batchesSeen++
		checkpointDue := p.cfg.Checkpoint != nil && p.batchesSeen%p.cfg.Checkpoint.EveryNBatches == 0
		if processed || checkpointDue {
			// Normally a no-op (runBatch already joined before its global
			// update); real only when this batch was absorbed by warm-up
			// without triggering initialization.
			if err := joinPost(); err != nil {
				return fail(err)
			}
			if publishing := processed && p.publishDue(); publishing || checkpointDue {
				post = p.schedulePost(publishing, checkpointDue, stateAfter)
			}
		}
		if cur = takeFetch(); cur == nil {
			cur = fetch()
		}
	}
	if err := joinPost(); err != nil {
		return p.stats, err
	}
	if err := p.finishInit(); err != nil {
		return p.stats, err
	}
	p.stats.TotalWall = p.wallBase + time.Since(start)
	return p.stats, nil
}

// schedulePost launches the publish/checkpoint tail of the batch that
// just completed its global update. Everything the tail needs is
// captured by value here, on the batch loop, so the tail reads nothing a
// later batch mutates — except the model itself, which the join
// discipline keeps immutable until the tail is awaited.
func (p *Pipeline) schedulePost(publishing, checkpointDue bool, batcherState stream.BatcherState) chan error {
	pubStats := p.stats
	var ckStats RunStats
	var seq int
	var initialized bool
	var initBuf []stream.Record
	if checkpointDue {
		// Count the checkpoint on the loop now, before the stats are
		// captured, so the snapshot's counter includes itself and a resumed
		// run continues from the same total as an uninterrupted one.
		p.stats.Checkpoints++
		ckStats = p.stats
		seq = p.batchesSeen
		initialized = p.initialized
		initBuf = slices.Clone(p.initBuf)
	}
	ch := make(chan error, 1)
	go func() {
		if publishing {
			p.publishModel(pubStats)
		}
		var err error
		if checkpointDue {
			if werr := p.writeCheckpointState(ckStats, batcherState, seq, initialized, initBuf); werr != nil {
				err = fmt.Errorf("core: checkpoint after batch %d: %w", seq, werr)
			}
		}
		ch <- err
	}()
	return ch
}

// ProcessBatch runs one mini-batch through the three pipeline steps.
// Records consumed by warm-up initialization do not flow through the
// parallel stages.
func (p *Pipeline) ProcessBatch(batch stream.Batch) error {
	return p.ProcessBatchContext(context.Background(), batch)
}

// ProcessBatchContext is ProcessBatch under a context, which bounds the
// batch's broadcasts and parallel stages.
func (p *Pipeline) ProcessBatchContext(ctx context.Context, batch stream.Batch) error {
	processed, err := p.runBatch(ctx, batch, nil)
	if err != nil {
		return err
	}
	if processed {
		p.publish(p.stats)
	}
	return nil
}

// runBatch drives one mini-batch through the parallel stages and the
// driver's global update. join, when non-nil, is awaited immediately
// before the first model mutation (RunContext passes the join of the
// previous batch's publish/checkpoint tail). It reports whether the batch flowed through the parallel stages
// (false: fully absorbed by warm-up).
func (p *Pipeline) runBatch(ctx context.Context, batch stream.Batch, join func() error) (bool, error) {
	records := batch.Records
	if !p.initialized {
		var err error
		records, err = p.absorbInit(records, join)
		if err != nil {
			return false, err
		}
		if len(records) == 0 {
			return false, nil
		}
	}
	p.stats.Batches++
	p.stats.Records += len(records)

	// Reconcile elastic membership at the batch boundary, before the job
	// is built: departed workers leave the rotation and announced joiners
	// are admitted (caught up via full broadcast replay), so this batch
	// dispatches against the settled worker set.
	if p.cfg.Engine.Capabilities().ElasticMembership {
		delta, err := p.cfg.Engine.ReconcileMembership(ctx)
		if err != nil {
			return false, fmt.Errorf("core: membership reconcile: %w", err)
		}
		p.stats.WorkerJoins += len(delta.Joined)
		p.stats.WorkerDepartures += len(delta.Departed)
	}

	job, list, err := p.buildJob(records)
	if err != nil {
		return false, err
	}
	// The workers' broadcast state is unknown from the moment the stages
	// start until they succeed; any failure in between forces the next
	// batch's broadcast to carry the full snapshot.
	p.lastBroadcast = nil
	res, err := runStages(ctx, p.cfg.Engine, job)
	if err != nil {
		p.accountEngineMetrics()
		return false, fmt.Errorf("core: %w", err)
	}
	p.lastBroadcast = list
	p.configSent = true
	p.stats.Assign.Wall += res.assignWall
	p.stats.Assign.Count++
	p.stats.Shuffle.Wall += res.shuffleWall
	p.stats.Shuffle.Count++
	p.stats.LocalUpdate.Wall += res.localWall
	p.stats.LocalUpdate.Count++

	updates, err := collectUpdates(res.updates)
	if err != nil {
		return false, err
	}

	// Driver-side global update (§V-C) with order-aware application
	// (§IV-C2): serial by default, or sharded into parallel per-shard
	// reducers plus a serialized residue when GlobalShards is set and the
	// algorithm has the capability.
	sortStart := time.Now()
	if p.cfg.Order == OrderAware {
		SortUpdatesByOrderTime(updates)
	} else {
		ScrambleUpdates(updates)
	}
	p.stats.GlobalSort.Wall += time.Since(sortStart)
	p.stats.GlobalSort.Count++
	if join != nil {
		if err := join(); err != nil {
			return false, err
		}
	}
	globalStart := time.Now()
	if p.sharder != nil {
		run := NewShardedRun(p.cfg.GlobalShards, p.shardPool, p.shardPlanner)
		if err := p.sharder.GlobalUpdateSharded(p.model, updates, batch.End, run); err != nil {
			return false, fmt.Errorf("core: sharded global update: %w", err)
		}
		p.stats.GlobalApply.Wall += run.ApplyWall()
		p.stats.GlobalFold.Wall += run.FoldWall()
		p.stats.GlobalFold.Count++
		p.stats.ShardedGlobalBatches++
	} else {
		if err := p.cfg.Algorithm.GlobalUpdate(p.model, updates, batch.End); err != nil {
			return false, fmt.Errorf("core: global update: %w", err)
		}
		p.stats.GlobalApply.Wall += time.Since(globalStart)
	}
	p.stats.GlobalApply.Count++
	p.stats.GlobalUpdate.Wall += time.Since(globalStart)
	p.stats.GlobalUpdate.Count++
	p.model.SetNow(batch.End)

	p.accountUpdates(updates)
	p.accountEngineMetrics()

	if p.cfg.OnBatch != nil {
		if err := p.cfg.OnBatch(batch, p.model); err != nil {
			return false, fmt.Errorf("core: batch hook: %w", err)
		}
	}
	return true, nil
}

// absorbInit feeds records into the warm-up buffer and initializes the
// model once full. It returns the records left over for normal
// processing. join, when non-nil, is awaited before the model-mutating
// initialization step (never for the plain buffer append).
func (p *Pipeline) absorbInit(records []stream.Record, join func() error) ([]stream.Record, error) {
	need := p.cfg.InitRecords - len(p.initBuf)
	if need > len(records) {
		need = len(records)
	}
	p.initBuf = append(p.initBuf, records[:need]...)
	records = records[need:]
	if len(p.initBuf) < p.cfg.InitRecords {
		return records, nil
	}
	if join != nil {
		if err := join(); err != nil {
			return nil, err
		}
	}
	if err := p.runInit(); err != nil {
		return nil, err
	}
	return records, nil
}

// finishInit initializes from a partial buffer when the stream ends
// before the warm-up sample fills.
func (p *Pipeline) finishInit() error {
	if p.initialized || len(p.initBuf) == 0 {
		return nil
	}
	return p.runInit()
}

func (p *Pipeline) runInit() error {
	mcs, err := p.cfg.Algorithm.Init(p.initBuf)
	if err != nil {
		return fmt.Errorf("core: init: %w", err)
	}
	for _, mc := range mcs {
		p.model.Add(mc)
	}
	p.stats.InitRecords = len(p.initBuf)
	p.model.SetNow(p.initBuf[len(p.initBuf)-1].Timestamp)
	p.initBuf = nil
	p.initialized = true
	// Publish the freshly initialized model so serving readers become
	// ready before the first post-warm-up batch completes.
	p.publish(p.stats)
	return nil
}

// buildJob freezes the model broadcast value (plus a delta against the
// last successful broadcast, on engines with the capability), partitions
// the batch's records and packages everything into the stages' job. It
// also returns the clone list to install as lastBroadcast once the
// broadcast succeeds. The full model remains the fallback for fresh
// workers, reconnects and algorithms whose every micro-cluster changes
// per batch.
func (p *Pipeline) buildJob(records []stream.Record) (*stageJob, []MicroCluster, error) {
	list := p.model.CloneList()
	p.modelVersion++
	model := NewModelBroadcast(p.cfg.Algorithm, p.modelVersion, list)
	var delta mbsp.Item
	if differ, ok := p.cfg.Algorithm.(SnapshotDiffer); ok &&
		p.lastBroadcast != nil && p.cfg.Engine.Capabilities().DeltaBroadcast {
		if d, ok := differ.DiffState(p.lastBroadcast, list); ok {
			d.FromVersion, d.Version = p.modelVersion-1, p.modelVersion
			delta = d
			p.stats.DeltaBroadcasts++
		}
	}
	items := make([]mbsp.Item, len(records))
	for i, rec := range records {
		items[i] = rec
	}
	parts, err := mbsp.RoundRobin(items, p.cfg.Engine.Parallelism())
	if err != nil {
		return nil, nil, err
	}
	job := &stageJob{model: model, modelDelta: delta, inputs: parts}
	if !p.configSent {
		job.config = TaskConfig{
			Params:        p.cfg.Algorithm.Params(),
			Ordered:       p.cfg.Order == OrderAware,
			PreMerge:      !p.cfg.DisablePreMerge,
			OutlierGroups: uint64(p.cfg.Engine.Parallelism()),
		}
	}
	return job, list, nil
}

func collectUpdates(items mbsp.Partition) ([]Update, error) {
	updates := make([]Update, len(items))
	for i, item := range items {
		u, ok := item.(Update)
		if !ok {
			return nil, fmt.Errorf("core: local-update output %d is %T, want Update", i, item)
		}
		updates[i] = u
	}
	return updates, nil
}

func (p *Pipeline) accountUpdates(updates []Update) {
	for _, u := range updates {
		switch u.Kind {
		case KindUpdated:
			p.stats.UpdatedMCs++
		case KindCreated:
			p.stats.CreatedMCs++
			p.stats.OutlierRecords += u.Absorbed
		}
	}
}

func (p *Pipeline) accountEngineMetrics() {
	// Fold the engine's per-stage task metrics into run totals, then
	// clear them so the next batch starts fresh. Runs on the error path
	// too, so failed stages and the retries leading up to a failure still
	// show in the stats.
	for _, sm := range p.cfg.Engine.Metrics() {
		p.stats.StragglerTasks += sm.Stragglers()
		p.stats.TotalTasks += len(sm.Tasks)
		p.stats.TaskRetries += sm.Retries()
		p.stats.SpeculativeLaunches += sm.SpeculativeLaunches()
		p.stats.SpeculativeWins += sm.SpeculativeWins()
		if sm.Failed {
			p.stats.FailedStages++
		}
	}
	p.cfg.Engine.ResetMetrics()
	// Worker losses can be detected on the broadcast path too, so this is
	// a level (not a delta): recompute it whenever metrics are folded.
	p.stats.LostWorkers = p.cfg.Engine.Parallelism() - p.cfg.Engine.AliveWorkers()
}
