package core

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"diststream/internal/mbsp"
)

// This file implements the one form in which a model version crosses a
// socket: a SnapshotDelta. Workers and subscribers that hold the
// previous version get only the micro-clusters created, updated or
// removed since it; everyone else gets the delta from the empty model
// (FullDelta), which carries every micro-cluster. Either way the
// receiver rebuilds the search snapshot itself (ApplySnapshotDelta).
// Correctness rests on three pillars:
//
//   - the diff is computed against the exact clone list last broadcast,
//     with per-algorithm bit-exact equality, so an unchanged micro-cluster
//     on the receiver is identical to the driver's copy;
//   - the receiver rebuilds the snapshot through the same NewSnapshot the
//     driver uses, so the receiver-visible snapshot is bit-identical to
//     the driver's;
//   - a checksum over the resulting micro-cluster set catches any base
//     mismatch, and every failure (missing base, unknown algorithm,
//     checksum mismatch) makes the executor resend the full model.

// SnapshotDiffer is an optional Algorithm capability: producing and
// applying snapshot deltas for the delta broadcast path. All shipped
// algorithms implement it via the generic DiffMCLists/ApplyMCDelta
// helpers plus a typed, bit-exact micro-cluster equality.
type SnapshotDiffer interface {
	// DiffState computes the delta from the previously broadcast clone
	// list to the new one. ok is false when a delta would not be smaller
	// than the full snapshot (e.g. decay touched every micro-cluster), in
	// which case the caller broadcasts the full snapshot.
	DiffState(old, new []MicroCluster) (d *SnapshotDelta, ok bool)
	// ApplyDelta rebuilds the new clone list from the previous one and a
	// delta. It must fail when old is not the base d was computed from.
	ApplyDelta(old []MicroCluster, d *SnapshotDelta) ([]MicroCluster, error)
}

// ModelBroadcast is the per-batch value published under BroadcastModel:
// the frozen search snapshot tasks read, next to the exact clone list and
// Params it was built from. Only MCs and Params ever cross a socket (as
// FullDelta, or as a diff against the previous version); the receiver
// rebuilds Search with ApplySnapshotDelta.
type ModelBroadcast struct {
	Params Params
	// Version is the pipeline's broadcast sequence number.
	Version uint64
	// MCs is the admission-ordered clone list Search was built from; the
	// base the next delta applies to. Immutable once published.
	MCs    []MicroCluster
	Search Snapshot
}

// NewModelBroadcast builds version's broadcast value from a clone list.
func NewModelBroadcast(algo Algorithm, version uint64, mcs []MicroCluster) *ModelBroadcast {
	return &ModelBroadcast{Params: algo.Params(), Version: version, MCs: mcs, Search: algo.NewSnapshot(mcs)}
}

// SnapshotDelta is the difference between two consecutively broadcast
// model versions. It implements mbsp.BroadcastDelta: applied to the
// receiver's current *ModelBroadcast (or to none) it yields the next
// one, rebuilt through the algorithm's own NewSnapshot so the result is
// bit-identical to the driver's.
type SnapshotDelta struct {
	// Params reconstructs the algorithm on the worker (the apply needs
	// NewSnapshot), independent of the config broadcast.
	Params Params
	// FromVersion and Version are the broadcast sequence numbers this
	// delta spans. FromVersion 0 marks the delta from the empty model
	// (FullDelta); executors track their own per-worker versions.
	FromVersion, Version uint64
	// Order lists the new snapshot's micro-cluster ids in admission
	// order; it fully determines membership.
	Order []uint64
	// Removed lists ids present in the base but absent from the new
	// snapshot (redundant with Order; kept for validation and stats).
	Removed []uint64
	// Upserts holds the created or changed micro-clusters, in Order
	// order.
	Upserts []MicroCluster
	// Checksum is ChecksumMCs over the new snapshot's full list; a
	// mismatch after apply means the base was not what the driver
	// assumed, and the executor falls back to the full model.
	Checksum uint64
}

var _ mbsp.BroadcastDelta = (*SnapshotDelta)(nil)

// FullDelta builds the delta from the empty model to mcs: every
// micro-cluster is an upsert, so it applies against any base, and its
// checksum guards the result like any other delta's.
func FullDelta(p Params, version uint64, mcs []MicroCluster) *SnapshotDelta {
	d := &SnapshotDelta{
		Params:   p,
		Version:  version,
		Order:    make([]uint64, len(mcs)),
		Upserts:  mcs,
		Checksum: ChecksumMCs(mcs),
	}
	for i, mc := range mcs {
		d.Order[i] = mc.ID()
	}
	return d
}

// deltaAlgos is the algorithm registry delta application resolves
// factories against. RegisterOps stores the registry here, which both the
// driver and every worker binary call; concurrent systems all register
// the shipped algorithms, so last-wins is benign.
var deltaAlgos atomic.Pointer[AlgorithmRegistry]

// ApplyDelta implements mbsp.BroadcastDelta: it rebuilds the next model
// version from the worker's current one (nil when it holds none). Any
// failure is a signal for the executor to resend the full model, never
// a correctness hazard.
func (d *SnapshotDelta) ApplyDelta(old mbsp.Item) (mbsp.Item, error) {
	var base []MicroCluster
	if old != nil {
		cur, ok := old.(*ModelBroadcast)
		if !ok {
			return nil, fmt.Errorf("core: delta base is %T, want *ModelBroadcast", old)
		}
		base = cur.MCs
	}
	algos := deltaAlgos.Load()
	if algos == nil {
		return nil, errors.New("core: delta apply before RegisterOps: no algorithm registry")
	}
	algo, err := algos.New(d.Params)
	if err != nil {
		return nil, err
	}
	return ApplySnapshotDelta(algo, base, d)
}

// ApplySnapshotDelta applies d to base through the algorithm's own
// ApplyDelta (ApplyMCDelta for algorithms without SnapshotDiffer) and
// rebuilds the search snapshot with its NewSnapshot. The TCP worker and
// the subscription replica both install models through it. d comes off
// a socket, so a micro-cluster the algorithm cannot digest (say, mixed
// dimensionalities) is an error, not a panic.
func ApplySnapshotDelta(algo Algorithm, base []MicroCluster, d *SnapshotDelta) (m *ModelBroadcast, err error) {
	defer func() {
		if r := recover(); r != nil {
			m, err = nil, fmt.Errorf("core: apply model v%d: %v", d.Version, r)
		}
	}()
	var mcs []MicroCluster
	if differ, ok := algo.(SnapshotDiffer); ok {
		mcs, err = differ.ApplyDelta(base, d)
	} else {
		mcs, err = ApplyMCDelta(base, d)
	}
	if err != nil {
		return nil, err
	}
	return &ModelBroadcast{Params: d.Params, Version: d.Version, MCs: mcs, Search: algo.NewSnapshot(mcs)}, nil
}

// DiffMCLists computes the generic part of a snapshot delta: which
// micro-clusters of new are absent from or changed against old (per the
// algorithm's bit-exact equal), which old ids disappeared, and the new
// admission order. ok is false when shipping the delta would not beat the
// full snapshot — every micro-cluster changed, as happens each batch for
// algorithms whose global update decays the whole model — so the caller
// falls back to the full broadcast and nothing regresses.
func DiffMCLists(old, new []MicroCluster, equal func(a, b MicroCluster) bool) (*SnapshotDelta, bool) {
	oldByID := make(map[uint64]MicroCluster, len(old))
	for _, mc := range old {
		oldByID[mc.ID()] = mc
	}
	d := &SnapshotDelta{Order: make([]uint64, len(new))}
	for i, mc := range new {
		id := mc.ID()
		d.Order[i] = id
		if base, ok := oldByID[id]; ok && equal(base, mc) {
			continue
		}
		d.Upserts = append(d.Upserts, mc)
	}
	if len(d.Upserts) >= len(new) {
		return nil, false
	}
	newIDs := make(map[uint64]struct{}, len(new))
	for _, id := range d.Order {
		newIDs[id] = struct{}{}
	}
	for _, mc := range old {
		if _, ok := newIDs[mc.ID()]; !ok {
			d.Removed = append(d.Removed, mc.ID())
		}
	}
	d.Checksum = ChecksumMCs(new)
	return d, true
}

// ApplyMCDelta rebuilds the new clone list from the base list and a
// delta. Unchanged micro-clusters are carried over by reference — safe
// because tasks clone before mutating — and the checksum verifies the
// result matches the driver's list exactly.
func ApplyMCDelta(old []MicroCluster, d *SnapshotDelta) ([]MicroCluster, error) {
	oldByID := make(map[uint64]MicroCluster, len(old))
	for _, mc := range old {
		oldByID[mc.ID()] = mc
	}
	for _, id := range d.Removed {
		if _, ok := oldByID[id]; !ok {
			return nil, fmt.Errorf("core: delta removes micro-cluster %d, which the base does not hold", id)
		}
	}
	upserts := make(map[uint64]MicroCluster, len(d.Upserts))
	for _, mc := range d.Upserts {
		upserts[mc.ID()] = mc
	}
	out := make([]MicroCluster, len(d.Order))
	for i, id := range d.Order {
		if mc, ok := upserts[id]; ok {
			out[i] = mc
			continue
		}
		mc, ok := oldByID[id]
		if !ok {
			return nil, fmt.Errorf("core: delta expects micro-cluster %d in the base, which does not hold it", id)
		}
		out[i] = mc
	}
	if sum := ChecksumMCs(out); sum != d.Checksum {
		return nil, fmt.Errorf("core: delta checksum mismatch: got %#x, want %#x", sum, d.Checksum)
	}
	return out, nil
}

// BitsEqual reports bit-pattern equality of two float64s. Delta equality
// must be bit-exact, not numeric: ==(−0, +0) is true but their checksums
// differ, and a "numerically equal" carry-over would make every apply
// fail its checksum and degrade to permanent full broadcasts.
func BitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// VecBitsEqual reports element-wise bit-pattern equality of two vectors.
func VecBitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// ChecksumMCs hashes the observable content of a micro-cluster list —
// ids, float bit patterns of weight, timestamps and centers, in order —
// with FNV-1a. Driver and worker compute it over what should be the same
// list, so any divergence (a stale or foreign base) surfaces as a
// mismatch.
func ChecksumMCs(mcs []MicroCluster) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	mix(uint64(len(mcs)))
	for _, mc := range mcs {
		mix(mc.ID())
		mix(math.Float64bits(mc.Weight()))
		mix(math.Float64bits(float64(mc.CreatedAt())))
		mix(math.Float64bits(float64(mc.LastUpdated())))
		center := mc.Center()
		mix(uint64(len(center)))
		for _, x := range center {
			mix(math.Float64bits(x))
		}
	}
	return h
}
