package core

import (
	"encoding/gob"
	"fmt"
	"slices"

	"diststream/internal/mbsp"
	"diststream/internal/stream"
	"diststream/internal/vclock"
)

// Broadcast ids and op names used by the pipeline. They are fixed so that
// remote workers, which register the same ops, resolve identically.
const (
	// BroadcastModel carries the batch's *ModelBroadcast.
	BroadcastModel = "diststream.model"
	// BroadcastConfig carries the TaskConfig.
	BroadcastConfig = "diststream.config"
	// OpAssign is the record-parallel closest-micro-cluster stage (§V-A).
	OpAssign = "diststream.assign"
	// OpLocalUpdate is the model-parallel local update stage (§V-B).
	OpLocalUpdate = "diststream.local-update"
)

// OutlierKeyBase marks shuffle keys that carry outlier records rather
// than micro-cluster ids: keys >= OutlierKeyBase route to outlier groups.
const OutlierKeyBase = uint64(1) << 63

// TaskConfig is the per-pipeline configuration broadcast to workers.
type TaskConfig struct {
	// Params reconstructs the algorithm on the worker.
	Params Params
	// Ordered selects the order-aware update mechanism; false runs the
	// unordered baseline.
	Ordered bool
	// PreMerge enables the §V-C outlier pre-merge optimization.
	PreMerge bool
	// OutlierGroups is the number of round-robin outlier key groups
	// (normally the parallelism degree).
	OutlierGroups uint64
}

// RegisterWireTypes registers the core types that cross executor
// boundaries with gob. Algorithm packages register their own
// micro-cluster types.
func RegisterWireTypes() {
	gob.Register(TaskConfig{})
	gob.Register(Update{})
	gob.Register(Params{})
}

// RegisterOps installs the two pipeline operations into an mbsp registry,
// resolving algorithms against algos. Both the driver process and every
// worker binary must call this with identically configured registries.
func RegisterOps(reg *mbsp.Registry, algos *AlgorithmRegistry) error {
	if reg == nil || algos == nil {
		return fmt.Errorf("core: RegisterOps requires registries")
	}
	// Model frames arriving at a worker resolve their algorithm against
	// the same registry the ops use.
	deltaAlgos.Store(algos)
	if err := reg.Register(OpAssign, makeAssignOp()); err != nil {
		return err
	}
	return reg.Register(OpLocalUpdate, makeLocalUpdateOp(algos))
}

// taskEnv resolves the broadcasts both ops need.
func taskEnv(ctx *mbsp.TaskContext) (Snapshot, TaskConfig, error) {
	sv, err := ctx.Broadcast(BroadcastModel)
	if err != nil {
		return nil, TaskConfig{}, err
	}
	model, ok := sv.(*ModelBroadcast)
	if !ok {
		return nil, TaskConfig{}, fmt.Errorf("core: model broadcast is %T, want *ModelBroadcast", sv)
	}
	cv, err := ctx.Broadcast(BroadcastConfig)
	if err != nil {
		return nil, TaskConfig{}, err
	}
	cfg, ok := cv.(TaskConfig)
	if !ok {
		return nil, TaskConfig{}, fmt.Errorf("core: config broadcast is %T, want TaskConfig", cv)
	}
	if cfg.OutlierGroups == 0 {
		cfg.OutlierGroups = 1
	}
	return model.Search, cfg, nil
}

// makeAssignOp builds the assign stage: for each record of the task's
// partition, find the closest micro-cluster in the (stale) snapshot and
// emit (micro-cluster id, record); records outside every maximum boundary
// become outliers, dealt round-robin across outlier key groups.
//
// The output is allocation-free per record: all KeyedItems live in one
// backing array sized up front, the partition stores pointers into it
// (boxing a pointer into `any` does not allocate), and each item reuses
// the input's existing record box instead of re-boxing the copy. The
// shuffle accepts both the value and pointer forms.
//
// Snapshots implementing BatchNearester classify the whole partition in
// one call (see batch.go) — bit-identical results, but the flat-index
// snapshots get the blocked many-vs-many kernel's cache reuse; others
// (the D-Stream grid) take the per-record loop below.
func makeAssignOp() mbsp.OpFunc {
	return func(ctx *mbsp.TaskContext, in mbsp.Partition) (mbsp.Partition, error) {
		snap, cfg, err := taskEnv(ctx)
		if err != nil {
			return nil, err
		}
		if bn, ok := snap.(BatchNearester); ok {
			return assignBatched(bn, cfg, in)
		}
		out := make(mbsp.Partition, len(in))
		keyed := make([]mbsp.KeyedItem, len(in))
		for i, item := range in {
			rec, ok := item.(stream.Record)
			if !ok {
				return nil, fmt.Errorf("core: assign input %d is %T, want stream.Record", i, item)
			}
			id, absorbable, found := snap.Nearest(rec)
			if !(found && absorbable) {
				id = OutlierKeyBase | (rec.Seq % cfg.OutlierGroups)
			}
			keyed[i] = mbsp.KeyedItem{Key: id, Item: item}
			out[i] = &keyed[i]
		}
		return out, nil
	}
}

// makeLocalUpdateOp builds the local-update stage: each task receives
// groups of records keyed by micro-cluster id (or outlier group), orders
// each group's records by arrival (order-aware mode), folds increments
// into a clone of the stale micro-cluster, and emits Update values. For
// outlier groups it creates new micro-clusters, pre-merging within the
// group when enabled.
func makeLocalUpdateOp(algos *AlgorithmRegistry) mbsp.OpFunc {
	return func(ctx *mbsp.TaskContext, in mbsp.Partition) (mbsp.Partition, error) {
		snap, cfg, err := taskEnv(ctx)
		if err != nil {
			return nil, err
		}
		algo, err := algos.New(cfg.Params)
		if err != nil {
			return nil, err
		}
		var out mbsp.Partition
		for gi, item := range in {
			group, ok := item.(mbsp.Group)
			if !ok {
				return nil, fmt.Errorf("core: local-update input %d is %T, want mbsp.Group", gi, item)
			}
			records, err := groupRecords(group)
			if err != nil {
				return nil, err
			}
			orderRecords(records, cfg.Ordered)
			if group.Key >= OutlierKeyBase {
				out = append(out, createOutlierMCs(algo, records, cfg.PreMerge)...)
				continue
			}
			update, err := updateExisting(algo, snap, group.Key, records)
			if err != nil {
				return nil, err
			}
			out = append(out, update)
		}
		return out, nil
	}
}

// groupRecords extracts and type-checks a group's records.
func groupRecords(group mbsp.Group) ([]stream.Record, error) {
	records := make([]stream.Record, len(group.Items))
	for i, item := range group.Items {
		rec, ok := item.(stream.Record)
		if !ok {
			return nil, fmt.Errorf("core: group %d item %d is %T, want stream.Record", group.Key, i, item)
		}
		records[i] = rec
	}
	return records, nil
}

// orderRecords sorts records by arrival in order-aware mode. In unordered
// mode it models the baseline of [13], which "does not distinguish the
// data arrival orders": processing order is scrambled deterministically
// and timestamps are coarsened to the group's latest arrival, so decay is
// applied at batch granularity and no record is favored for recency
// within a batch — the update "fails to favor recent records" (§VII-B2).
//
// Why coarsening rather than leaving the scrambled true timestamps in
// place: with the naive λ = β^(-|Δt|) update, the total decay applied to
// a group is β^(-Σ|Δt_i|), and Σ|Δt_i| over a permutation of the group's
// arrival times is minimized by sorted order (where it telescopes to the
// window span) — any substantial permutation makes Σ|Δt| grow linearly in
// the group size and annihilates the micro-cluster regardless of the
// data. No published unordered implementation behaves that way; batch-
// granularity timestamps are the realistic reading. EXPERIMENTS.md
// discusses this at length.
func orderRecords(records []stream.Record, ordered bool) {
	if ordered {
		// Non-reflective generic sort; ByArrival is a total order on
		// (Timestamp, Seq), so stability is not load-bearing here and
		// the result matches the previous sort.SliceStable exactly.
		slices.SortStableFunc(records, stream.ByArrival)
		return
	}
	var latest vclock.Time
	for _, r := range records {
		if r.Timestamp > latest {
			latest = r.Timestamp
		}
	}
	for i := range records {
		records[i].Timestamp = latest
	}
	// Precompute the scramble keys once instead of hashing inside a
	// reflection-driven comparator; Seq ties are impossible (sequence
	// numbers are unique), so the key order is total and stable-sorting
	// pairs reproduces sort.SliceStable's output.
	type scrambled struct {
		key uint64
		rec stream.Record
	}
	pairs := make([]scrambled, len(records))
	for i, r := range records {
		pairs[i] = scrambled{key: scrambleKey(r.Seq), rec: r}
	}
	slices.SortStableFunc(pairs, func(a, b scrambled) int {
		switch {
		case a.key < b.key:
			return -1
		case a.key > b.key:
			return 1
		}
		return 0
	})
	for i, p := range pairs {
		records[i] = p.rec
	}
}

// updateExisting folds records into a clone of the stale micro-cluster.
func updateExisting(algo Algorithm, snap Snapshot, key uint64, records []stream.Record) (Update, error) {
	base := snap.Get(key)
	if base == nil {
		return Update{}, fmt.Errorf("core: micro-cluster %d not in snapshot", key)
	}
	mc := base.Clone()
	for _, rec := range records {
		algo.Update(mc, rec)
	}
	last := records[len(records)-1]
	return Update{
		Kind:      KindUpdated,
		MC:        mc,
		Absorbed:  len(records),
		OrderTime: last.Timestamp,
		OrderSeq:  last.Seq,
	}, nil
}

// createOutlierMCs turns an outlier group's records into new
// micro-clusters. With pre-merge, each record is first offered to the
// micro-clusters already created in this group (§V-C: "many outlier
// micro-clusters are from the same new cluster when data distribution is
// evolving"); without it, every record becomes its own micro-cluster.
func createOutlierMCs(algo Algorithm, records []stream.Record, preMerge bool) mbsp.Partition {
	type pending struct {
		mc       MicroCluster
		absorbed int
		first    stream.Record
	}
	var created []pending
	for _, rec := range records {
		if preMerge {
			merged := false
			for i := range created {
				if algo.AbsorbIntoNew(created[i].mc, rec) {
					algo.Update(created[i].mc, rec)
					created[i].absorbed++
					merged = true
					break
				}
			}
			if merged {
				continue
			}
		}
		created = append(created, pending{mc: algo.Create(rec), absorbed: 1, first: rec})
	}
	out := make(mbsp.Partition, len(created))
	for i, p := range created {
		out[i] = Update{
			Kind:      KindCreated,
			MC:        p.mc,
			Absorbed:  p.absorbed,
			OrderTime: p.first.Timestamp,
			OrderSeq:  p.first.Seq,
		}
	}
	return out
}
