package core

import (
	"strings"
	"testing"

	"diststream/internal/mbsp"
	"diststream/internal/vector"
)

func toyEqual(a, b MicroCluster) bool {
	x, ok := a.(*toyMC)
	if !ok {
		return false
	}
	y, ok := b.(*toyMC)
	if !ok {
		return false
	}
	if x.Id != y.Id || !BitsEqual(x.W, y.W) ||
		!BitsEqual(float64(x.Created), float64(y.Created)) ||
		!BitsEqual(float64(x.Updated), float64(y.Updated)) ||
		!VecBitsEqual(x.Sum, y.Sum) || len(x.UpdLog) != len(y.UpdLog) {
		return false
	}
	for i := range x.UpdLog {
		if x.UpdLog[i] != y.UpdLog[i] {
			return false
		}
	}
	return true
}

func deltaMC(id uint64, w float64, coords ...float64) *toyMC {
	return &toyMC{Id: id, Sum: vector.Vector(coords), W: w, Created: 1, Updated: 2}
}

func TestDiffApplyRoundTrip(t *testing.T) {
	old := []MicroCluster{deltaMC(1, 1, 0, 0), deltaMC(2, 2, 5, 5), deltaMC(3, 3, 9, 9)}
	// 1 unchanged, 2 updated, 3 removed, 4 created.
	next := []MicroCluster{deltaMC(1, 1, 0, 0), deltaMC(2, 2.5, 5, 6), deltaMC(4, 1, -3, -3)}

	d, ok := DiffMCLists(old, next, toyEqual)
	if !ok {
		t.Fatal("DiffMCLists declined a sparse delta")
	}
	if len(d.Upserts) != 2 || d.Upserts[0].ID() != 2 || d.Upserts[1].ID() != 4 {
		t.Fatalf("Upserts = %v", d.Upserts)
	}
	if len(d.Removed) != 1 || d.Removed[0] != 3 {
		t.Fatalf("Removed = %v", d.Removed)
	}
	if len(d.Order) != 3 || d.Order[0] != 1 || d.Order[1] != 2 || d.Order[2] != 4 {
		t.Fatalf("Order = %v", d.Order)
	}

	out, err := ApplyMCDelta(old, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(next) {
		t.Fatalf("applied list has %d micro-clusters, want %d", len(out), len(next))
	}
	// The unchanged micro-cluster is carried over by reference.
	if out[0] != old[0] {
		t.Error("unchanged micro-cluster was not carried over by reference")
	}
	for i := range next {
		if !toyEqual(out[i], next[i]) {
			t.Errorf("applied[%d] = %+v, want %+v", i, out[i], next[i])
		}
	}
}

func TestDiffAllChangedFallsBack(t *testing.T) {
	old := []MicroCluster{deltaMC(1, 1, 0, 0), deltaMC(2, 2, 5, 5)}
	next := []MicroCluster{deltaMC(1, 1.5, 0, 1), deltaMC(2, 2.5, 5, 6)}
	if _, ok := DiffMCLists(old, next, toyEqual); ok {
		t.Error("DiffMCLists produced a delta no smaller than the full snapshot")
	}
	// Same-size via churn: one update plus one create on a 2-element list.
	next2 := []MicroCluster{deltaMC(1, 1.5, 0, 1), deltaMC(2, 2, 5, 5), deltaMC(3, 1, 7, 7)}
	if d, ok := DiffMCLists(old, next2, toyEqual); !ok || len(d.Upserts) != 2 {
		t.Errorf("sparse-enough delta rejected: ok=%v d=%+v", ok, d)
	}
}

func TestApplyChecksumMismatchFails(t *testing.T) {
	old := []MicroCluster{deltaMC(1, 1, 0, 0), deltaMC(2, 2, 5, 5)}
	next := []MicroCluster{deltaMC(1, 1, 0, 0), deltaMC(2, 2.5, 5, 6)}
	d, ok := DiffMCLists(old, next, toyEqual)
	if !ok {
		t.Fatal("diff declined")
	}
	// A base that drifted from what the driver diffed against: same ids,
	// different bits. The checksum must catch it.
	stale := []MicroCluster{deltaMC(1, 7, 0, 0), deltaMC(2, 2, 5, 5)}
	if _, err := ApplyMCDelta(stale, d); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("stale base not caught: err = %v", err)
	}
}

func TestApplyMissingBaseFails(t *testing.T) {
	old := []MicroCluster{deltaMC(1, 1, 0, 0), deltaMC(2, 2, 5, 5)}
	next := []MicroCluster{deltaMC(1, 1, 0, 0), deltaMC(2, 2.5, 5, 6)}
	d, ok := DiffMCLists(old, next, toyEqual)
	if !ok {
		t.Fatal("diff declined")
	}
	// Micro-cluster 1 is carried over (not in the upserts), so a base
	// without it cannot satisfy the delta.
	if _, err := ApplyMCDelta(old[1:], d); err == nil {
		t.Error("delta applied over a base missing a carried-over micro-cluster")
	}
	dRemove := &SnapshotDelta{Order: []uint64{1}, Removed: []uint64{9}, Checksum: ChecksumMCs(old[:1])}
	if _, err := ApplyMCDelta(old, dRemove); err == nil {
		t.Error("delta removing an unknown micro-cluster applied")
	}
}

func TestSnapshotDeltaApplyRebuildsSnapshot(t *testing.T) {
	algos := NewAlgorithmRegistry()
	if err := algos.Register("toy", func(Params) (Algorithm, error) { return newToyAlgo(), nil }); err != nil {
		t.Fatal(err)
	}
	prev := deltaAlgos.Swap(algos)
	defer deltaAlgos.Store(prev)

	algo := newToyAlgo()
	old := []MicroCluster{deltaMC(1, 1, 0, 0), deltaMC(2, 2, 5, 5)}
	next := []MicroCluster{deltaMC(1, 1, 0, 0), deltaMC(2, 2.5, 5, 6), deltaMC(3, 1, 9, 9)}
	d, ok := DiffMCLists(old, next, toyEqual)
	if !ok {
		t.Fatal("diff declined")
	}
	d.Params = algo.Params()

	applied, err := d.ApplyDelta(NewModelBroadcast(algo, 1, old))
	if err != nil {
		t.Fatal(err)
	}
	m, ok := applied.(*ModelBroadcast)
	if !ok {
		t.Fatalf("applied value is %T, want *ModelBroadcast", applied)
	}
	snap, ok := m.Search.(*toySnapshot)
	if !ok {
		t.Fatalf("rebuilt search snapshot is %T, want *toySnapshot", m.Search)
	}
	if len(snap.mcs) != 3 || len(m.MCs) != 3 {
		t.Fatalf("rebuilt model holds %d/%d micro-clusters, want 3", len(snap.mcs), len(m.MCs))
	}
	for i := range next {
		if !toyEqual(snap.mcs[i], next[i]) || m.MCs[i] != snap.mcs[i] {
			t.Errorf("rebuilt[%d] = %+v, want %+v", i, snap.mcs[i], next[i])
		}
	}

	// The delta from the empty model applies onto no base at all, and
	// onto any base, to the same list.
	full := FullDelta(algo.Params(), 2, next)
	for _, base := range []mbsp.Item{nil, NewModelBroadcast(algo, 1, old)} {
		applied, err := full.ApplyDelta(base)
		if err != nil {
			t.Fatalf("full delta onto %T: %v", base, err)
		}
		if got := applied.(*ModelBroadcast).MCs; ChecksumMCs(got) != ChecksumMCs(next) {
			t.Errorf("full delta onto %T rebuilt a different list", base)
		}
	}

	// A base of the wrong shape is rejected, not mangled.
	if _, err := d.ApplyDelta(42); err == nil {
		t.Error("delta applied onto a non-snapshot base")
	}
}
