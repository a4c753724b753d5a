package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"diststream/internal/vclock"
)

// This file implements the sharded global update: the micro-cluster
// keyspace is partitioned into S shards by a stable hash of the MC id,
// the per-MC portion of the global update (absorb/replace/insert) runs
// as parallel per-shard reducers, and the cross-shard residue (merges,
// deletions, pruning, decay bookkeeping) runs serialized after a
// barrier. The result is byte-identical to the serial GlobalUpdate
// because the parallel phase only contains operations that commute
// across shards:
//
//   - two updates to the same MC id always land in the same shard, where
//     they are applied in the batch's (OrderTime, OrderSeq) order —
//     last-wins over whole-MC replacement clones, exactly the serial
//     outcome (§IV-C2 semantics);
//   - replacements of distinct ids touch disjoint model positions, so
//     their relative order is immaterial;
//   - creations need ids assigned in global sorted order, so the planner
//     pre-assigns the ids the serial path would allocate and the fold
//     admits them in that order, asserting the prediction held;
//   - everything order-sensitive across shards — deletion, merging,
//     budget enforcement, decay sweeps — stays in the serialized residue,
//     where it sees exactly the model state the serial path would see.
//
// The planner is worker-count-independent: the shard of an MC depends
// only on its id and the shard count, never on how many reducers execute
// the shards, so any pool size produces the same fragments and the same
// fold.

// ShardedGlobalUpdater is an optional Algorithm capability: a
// decomposition of GlobalUpdate into parallel per-shard reducers plus a
// serialized residue, driven through a ShardedRun. Implementations must
// produce byte-identical model state (EncodeState) to their serial
// GlobalUpdate for every input; the shard equivalence battery enforces
// this for the shipped implementations. Algorithms without the
// capability transparently fall back to the serial path.
type ShardedGlobalUpdater interface {
	GlobalUpdateSharded(model *Model, updates []Update, now vclock.Time, run *ShardedRun) error
}

// ShardOf maps a micro-cluster id to its shard with a stable integer
// hash (splitmix64). The mapping depends only on the id and the shard
// count — not on worker count, batch composition, or insertion history —
// so re-planning the same model with the same shard count always routes
// identically.
func ShardOf(id uint64, shards int) int {
	if shards <= 1 {
		return 0
	}
	return int(scrambleKey(id) % uint64(shards))
}

// ReducerPool runs per-shard reducer functions. With one effective
// worker it runs inline on the caller's goroutine — no goroutines, no
// synchronization — so a sharded update on a single-core box pays zero
// scheduling overhead over a plain loop.
type ReducerPool struct {
	workers int
}

// NewReducerPool returns a pool with the given worker bound; workers <= 0
// selects GOMAXPROCS.
func NewReducerPool(workers int) *ReducerPool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &ReducerPool{workers: workers}
}

// Workers returns the pool's worker bound.
func (p *ReducerPool) Workers() int { return p.workers }

// Run executes f(0..n-1), using up to min(workers, n) goroutines pulling
// items from a shared counter. Errors are collected per item and the
// first one in item order is returned, so the surfaced error does not
// depend on goroutine scheduling. A panic inside a parallel f is
// converted to an error (inline execution lets it propagate, like any
// serial update would).
func (p *ReducerPool) Run(n int, f func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := p.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							errs[i] = fmt.Errorf("core: reducer item %d panicked: %v", i, r)
						}
					}()
					errs[i] = f(i)
				}()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ShardFragment is one shard's independent contribution to the global
// update: the final positions it owns that this batch touched, with the
// post-update micro-cluster for each, in admission order. The checksum
// (the same fail-loud discipline as the PR-5 delta ChecksumMCs, but a
// cheap word-mix over positions, ids and weights — no per-MC centroid
// materialization) pins the fragment between Reduce and Fold, so a
// sharded implementation that reorders or mutates fragments in flight
// fails loudly instead of folding silently-divergent state.
type ShardFragment struct {
	Shard     int
	Positions []int32
	Upserts   []MicroCluster
	Checksum  uint64
}

// checksum mixes the fragment's positions with each upsert's id and
// weight bits through the splitmix64 finalizer — one multiply chain per
// word instead of ChecksumMCs's byte-wise FNV over materialized
// centroids, cheap enough to pay on every batch.
func (f *ShardFragment) checksum() uint64 {
	h := scrambleKey(uint64(len(f.Upserts)))
	for i, mc := range f.Upserts {
		h = scrambleKey(h ^ uint64(f.Positions[i]))
		h = scrambleKey(h ^ mc.ID())
		h = scrambleKey(h ^ math.Float64bits(mc.Weight()))
	}
	return h
}

// ShardPlanner builds ShardPlans, reusing its internal buffers across
// batches so a steady-state pipeline plans without allocating. At most
// one plan per planner is live at a time (the next Plan call recycles
// the previous plan's storage).
type ShardPlanner struct {
	plan ShardPlan
}

// NewShardPlanner returns an empty planner.
func NewShardPlanner() *ShardPlanner {
	return &ShardPlanner{}
}

// ShardPlan is the serial prologue of a sharded global update: a
// classification of the batch's updates against the current model. It
// records, for the model layout the update phase will produce (base
// admission order with creations appended), which positions each shard
// owns, which positions the batch touched, and the ids the fold will
// allocate to creations — everything the parallel phase needs without
// touching the live model.
//
// Classification happens at plan time against the same state the serial
// path would observe: an update whose base id is live replaces it; an
// update whose id matches a creation admitted earlier in this batch
// replaces that creation (the serial path's Get would find it
// mid-batch); anything else — creations, and updates whose base vanished
// — is admitted as new, with its id pre-assigned in global update order
// so the fold's sequential Adds reproduce the serial allocator exactly.
type ShardPlan struct {
	shards  int
	baseLen int
	// final[pos] is the post-update-phase micro-cluster at admission
	// position pos (last-wins across the batch); ids[pos] its (possibly
	// pre-assigned) id; touched[pos] whether the batch wrote it.
	final   []MicroCluster
	ids     []uint64
	touched []bool
	// positions[s] lists the final positions shard s owns, ascending.
	positions [][]int32
	// creations holds the micro-clusters the fold must admit, in global
	// update order; firstNew is the id the first one will receive.
	creations []MicroCluster
	firstNew  uint64
	// newIDs resolves a pre-assigned creation id back to its position
	// (allocated only when an update references a mid-batch creation or a
	// vanished base).
	newIDs map[uint64]int32
}

// Plan classifies updates (already in application order) against model
// into a ShardPlan for the given shard count. The model is only read.
// Updates must reference ids allocated before this batch (the pipeline
// guarantees this); unknown update kinds are rejected.
func (pl *ShardPlanner) Plan(model *Model, updates []Update, shards int) (*ShardPlan, error) {
	if shards < 1 {
		shards = 1
	}
	p := &pl.plan
	p.shards = shards
	p.baseLen = len(model.mcs)
	p.firstNew = model.next
	p.final = append(p.final[:0], model.mcs...)
	p.ids = p.ids[:0]
	for _, mc := range model.mcs {
		p.ids = append(p.ids, mc.ID())
	}
	if cap(p.touched) < p.baseLen {
		p.touched = make([]bool, p.baseLen)
	} else {
		p.touched = p.touched[:p.baseLen]
		for i := range p.touched {
			p.touched[i] = false
		}
	}
	p.creations = p.creations[:0]
	p.newIDs = nil
	nextID := model.next

	for _, u := range updates {
		create := false
		switch u.Kind {
		case KindUpdated:
			if pos, ok := model.index[u.MC.ID()]; ok {
				p.final[pos] = u.MC
				p.touched[pos] = true
			} else if pos, ok := p.newIDs[u.MC.ID()]; ok {
				// The update targets a creation admitted earlier in this
				// batch: the serial path's Get would find it and replace it.
				p.final[pos] = u.MC
			} else {
				// Base vanished: the serial path re-admits the update.
				create = true
			}
		case KindCreated:
			create = true
		default:
			return nil, fmt.Errorf("core: shard plan: unknown update kind %d", u.Kind)
		}
		if create {
			pos := int32(len(p.final))
			p.final = append(p.final, u.MC)
			p.ids = append(p.ids, nextID)
			p.touched = append(p.touched, true)
			p.creations = append(p.creations, u.MC)
			if p.newIDs == nil {
				p.newIDs = make(map[uint64]int32, 4)
			}
			p.newIDs[nextID] = pos
			nextID++
		}
	}

	// Route every final position to its shard in one pass; the per-shard
	// slices keep their capacity across batches, so steady-state routing
	// does not allocate.
	if cap(p.positions) < shards {
		p.positions = make([][]int32, shards)
	} else {
		p.positions = p.positions[:shards]
	}
	for s := range p.positions {
		p.positions[s] = p.positions[s][:0]
	}
	for pos, id := range p.ids {
		s := ShardOf(id, shards)
		p.positions[s] = append(p.positions[s], int32(pos))
	}
	return p, nil
}

// Shards returns the plan's shard count.
func (p *ShardPlan) Shards() int { return p.shards }

// BaseLen returns the model length the plan was computed against;
// positions >= BaseLen are creations.
func (p *ShardPlan) BaseLen() int { return p.baseLen }

// FinalLen returns the model length after the update phase (before any
// residue deletions): base length plus creations.
func (p *ShardPlan) FinalLen() int { return len(p.final) }

// NumCreations returns how many micro-clusters the fold will admit.
func (p *ShardPlan) NumCreations() int { return len(p.creations) }

// FinalMC returns the post-update-phase micro-cluster at final position
// pos. For untouched positions this is the live model object (read-only
// until the fold); for touched ones it is the batch's replacement or
// creation.
func (p *ShardPlan) FinalMC(pos int) MicroCluster { return p.final[pos] }

// FinalID returns the id at final position pos (pre-assigned for
// creations; the fold asserts the prediction).
func (p *ShardPlan) FinalID(pos int) uint64 { return p.ids[pos] }

// Touched reports whether the batch wrote final position pos.
func (p *ShardPlan) Touched(pos int) bool { return p.touched[pos] }

// ShardPositions returns the final positions shard s owns, in ascending
// (admission) order. The slice is owned by the plan; do not mutate.
func (p *ShardPlan) ShardPositions(s int) []int32 { return p.positions[s] }

// Reduce produces shard s's fragment: the touched positions it owns, in
// admission order, with their final micro-clusters and a content
// checksum. Reduce only reads the plan, so all shards may reduce
// concurrently.
func (p *ShardPlan) Reduce(s int) *ShardFragment {
	frag := &ShardFragment{Shard: s}
	n := 0
	for _, pos := range p.positions[s] {
		if p.touched[pos] {
			n++
		}
	}
	if n > 0 {
		frag.Positions = make([]int32, 0, n)
		frag.Upserts = make([]MicroCluster, 0, n)
		for _, pos := range p.positions[s] {
			if !p.touched[pos] {
				continue
			}
			frag.Positions = append(frag.Positions, pos)
			frag.Upserts = append(frag.Upserts, p.final[pos])
		}
	}
	frag.Checksum = frag.checksum()
	return frag
}

// Fold applies the fragments to the model, serialized: replacements by
// ascending shard index (disjoint positions, so any order yields the
// same state — shard order makes it deterministic), then creations in
// global update order so the allocator hands out exactly the pre-assigned
// ids. Fragment checksums are re-verified first; a mismatch means the
// fragments were corrupted between Reduce and Fold.
func (p *ShardPlan) Fold(model *Model, frags []*ShardFragment) error {
	if len(frags) != p.shards {
		return fmt.Errorf("core: shard fold: %d fragments for %d shards", len(frags), p.shards)
	}
	for s, frag := range frags {
		if frag == nil {
			return fmt.Errorf("core: shard fold: shard %d produced no fragment", s)
		}
		if frag.Shard != s {
			return fmt.Errorf("core: shard fold: fragment %d labeled shard %d", s, frag.Shard)
		}
		if sum := frag.checksum(); sum != frag.Checksum {
			return fmt.Errorf("core: shard fold: shard %d fragment checksum mismatch: got %#x, want %#x",
				s, sum, frag.Checksum)
		}
		for i, pos := range frag.Positions {
			if int(pos) >= p.baseLen {
				continue // creations are admitted below, in global order
			}
			// Positional replace: the plan resolved the position, so the
			// fold skips the id -> position lookup the serial path pays
			// per update.
			if err := model.ReplaceAt(int(pos), frag.Upserts[i]); err != nil {
				return fmt.Errorf("core: shard fold: %w", err)
			}
		}
	}
	for i, mc := range p.creations {
		want := p.firstNew + uint64(i)
		if id := model.Add(mc); id != want {
			return fmt.Errorf("core: shard fold: creation admitted as id %d, planner predicted %d", id, want)
		}
	}
	// An update that targeted a mid-batch creation replaced it in the
	// plan's final layout; mirror that on the live model now that the
	// creation holds its id.
	for i, mc := range p.creations {
		pos := p.baseLen + i
		if p.final[pos] != mc {
			if err := model.ReplaceAt(pos, p.final[pos]); err != nil {
				return fmt.Errorf("core: shard fold: %w", err)
			}
		}
	}
	return nil
}

// ShardedRun drives one sharded global update: it carries the shard
// count, the reducer pool and the planner, and splits the wall time an
// implementation spends into the parallel apply phase and the serialized
// fold/residue phase (feeding RunStats.GlobalApply/GlobalFold).
type ShardedRun struct {
	shards    int
	pool      *ReducerPool
	planner   *ShardPlanner
	applyWall time.Duration
	foldWall  time.Duration
}

// NewShardedRun builds a run over the given shard count. A nil pool gets
// a GOMAXPROCS-bounded one; a nil planner gets a fresh one (the pipeline
// passes its persistent planner so steady-state planning reuses buffers).
func NewShardedRun(shards int, pool *ReducerPool, planner *ShardPlanner) *ShardedRun {
	if shards < 1 {
		shards = 1
	}
	if pool == nil {
		pool = NewReducerPool(0)
	}
	if planner == nil {
		planner = NewShardPlanner()
	}
	return &ShardedRun{shards: shards, pool: pool, planner: planner}
}

// Shards returns the shard count.
func (r *ShardedRun) Shards() int { return r.shards }

// Pool returns the reducer pool, for implementations that parallelize
// residue-internal work (e.g. nearest-neighbor recomputation) beyond the
// per-shard Parallel calls.
func (r *ShardedRun) Pool() *ReducerPool { return r.pool }

// Plan classifies updates against model with the run's shard count,
// reusing the run's planner buffers.
func (r *ShardedRun) Plan(model *Model, updates []Update) (*ShardPlan, error) {
	return r.planner.Plan(model, updates, r.shards)
}

// Parallel runs f once per shard on the reducer pool and accounts the
// wall time to the apply phase. It is a barrier: every shard completes
// (or the first error by shard index is returned) before it returns.
func (r *ShardedRun) Parallel(f func(shard int) error) error {
	start := time.Now()
	err := r.pool.Run(r.shards, f)
	r.applyWall += time.Since(start)
	return err
}

// Residue runs the serialized cross-shard phase and accounts the wall
// time to the fold phase.
func (r *ShardedRun) Residue(f func() error) error {
	start := time.Now()
	err := f()
	r.foldWall += time.Since(start)
	return err
}

// ApplyWall returns the accumulated parallel-phase wall time.
func (r *ShardedRun) ApplyWall() time.Duration { return r.applyWall }

// FoldWall returns the accumulated serialized-phase wall time.
func (r *ShardedRun) FoldWall() time.Duration { return r.foldWall }
