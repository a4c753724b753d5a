package core

import (
	"fmt"
	"sync"

	"diststream/internal/mbsp"
	"diststream/internal/stream"
)

// Batched assign: the assign stage classifies a whole task's records in
// one Snapshot call instead of one per record, so flat-index snapshots
// can drive the blocked many-vs-many kernel (vector.BatchArgminBelow)
// and reuse centers tiles across the record block. The batched path is
// an optional capability discovered by type-assert, like
// ShardedGlobalUpdater: the assign op takes the batched path exactly
// when the snapshot implements it, and snapshots that don't (the D-Stream
// grid) keep the per-record loop. The results are bit-identical either
// way — TestAssignBatchedMatchesScalar and the facade-level EncodeState
// equivalence tests enforce that by hiding the capability behind a
// test-only snapshot wrapper.

// BatchNearester is an optional Snapshot capability: classify a block of
// records in one call. ids[i], absorb[i] and found[i] must receive
// exactly what Nearest(recs[i]) would return, bit-identically — same
// argmin, same absorb decision, same empty/NaN handling. The three
// slices are grown when their capacity is too short and returned, so
// callers can reuse scratch across calls.
type BatchNearester interface {
	NearestAll(recs []stream.Record, ids []uint64, absorb, found []bool) ([]uint64, []bool, []bool)
}

// GrowNearestOut resizes the three NearestAll result slices to n,
// reallocating only when capacity is too short. Snapshot implementations
// call it first so the per-record loop can index freely.
func GrowNearestOut(n int, ids []uint64, absorb, found []bool) ([]uint64, []bool, []bool) {
	if cap(ids) < n {
		ids = make([]uint64, n)
	}
	if cap(absorb) < n {
		absorb = make([]bool, n)
	}
	if cap(found) < n {
		found = make([]bool, n)
	}
	return ids[:n], absorb[:n], found[:n]
}

// NearestRows is pooled scratch for Snapshot.NearestAll implementations:
// the row/distance buffers a FlatIndex.NearestAll call fills. Algorithms
// borrow one around the call so a d=768 task does not regress to
// per-call allocation.
type NearestRows struct {
	Rows  []int
	Dists []float64
}

var nearestRowsPool = sync.Pool{New: func() any { return new(NearestRows) }}

// GetNearestRows borrows scratch from the pool.
func GetNearestRows() *NearestRows { return nearestRowsPool.Get().(*NearestRows) }

// Release returns the scratch to the pool.
func (r *NearestRows) Release() { nearestRowsPool.Put(r) }

// assignScratch pools the per-task record block and classification
// buffers, so batched assign at any dimensionality allocates only the
// output partition (which must outlive the task).
type assignScratch struct {
	recs   []stream.Record
	ids    []uint64
	absorb []bool
	found  []bool
}

var assignPool = sync.Pool{New: func() any { return new(assignScratch) }}

// assignBatched is the batched body of the assign op: unbox the task's
// records into a pooled block, classify them in one NearestAll call, and
// emit with the same zero-alloc KeyedItem backing array and outlier
// dealing as the scalar loop.
func assignBatched(bn BatchNearester, cfg TaskConfig, in mbsp.Partition) (mbsp.Partition, error) {
	sc := assignPool.Get().(*assignScratch)
	defer func() {
		// Drop record payload references before pooling so the scratch
		// does not pin a retired batch's vectors.
		clear(sc.recs)
		sc.recs = sc.recs[:0]
		assignPool.Put(sc)
	}()
	if cap(sc.recs) < len(in) {
		sc.recs = make([]stream.Record, 0, len(in))
	}
	recs := sc.recs[:0]
	for i, item := range in {
		rec, ok := item.(stream.Record)
		if !ok {
			return nil, fmt.Errorf("core: assign input %d is %T, want stream.Record", i, item)
		}
		recs = append(recs, rec)
	}
	sc.recs = recs
	sc.ids, sc.absorb, sc.found = bn.NearestAll(recs, sc.ids, sc.absorb, sc.found)
	out := make(mbsp.Partition, len(in))
	keyed := make([]mbsp.KeyedItem, len(in))
	for i := range recs {
		id := sc.ids[i]
		if !(sc.found[i] && sc.absorb[i]) {
			id = OutlierKeyBase | (recs[i].Seq % cfg.OutlierGroups)
		}
		keyed[i] = mbsp.KeyedItem{Key: id, Item: in[i]}
		out[i] = &keyed[i]
	}
	return out, nil
}
