package core

import (
	"math"
	"math/rand"
	"testing"

	"diststream/internal/mbsp"
	"diststream/internal/stream"
	"diststream/internal/vector"
)

// flatToySnapshot is toySnapshot rebuilt over a FlatIndex, implementing
// both the scalar Nearest and the BatchNearester capability, so one
// fixture exercises both assign paths against identical state.
type flatToySnapshot struct {
	mcs    []MicroCluster
	idx    FlatIndex
	radius float64
}

func newFlatToySnapshot(mcs []MicroCluster, radius float64) *flatToySnapshot {
	return &flatToySnapshot{mcs: mcs, idx: BuildFlatIndex(mcs), radius: radius}
}

func (s *flatToySnapshot) Nearest(rec stream.Record) (uint64, bool, bool) {
	best, bestD := s.idx.Nearest(rec.Values)
	if best < 0 {
		return 0, false, false
	}
	return s.idx.IDs[best], math.Sqrt(bestD) <= s.radius, true
}

func (s *flatToySnapshot) NearestAll(recs []stream.Record, ids []uint64, absorb, found []bool) ([]uint64, []bool, []bool) {
	ids, absorb, found = GrowNearestOut(len(recs), ids, absorb, found)
	nr := GetNearestRows()
	nr.Rows, nr.Dists = s.idx.NearestAll(recs, nr.Rows, nr.Dists)
	for i, row := range nr.Rows {
		if row < 0 {
			ids[i], absorb[i], found[i] = 0, false, false
			continue
		}
		ids[i] = s.idx.IDs[row]
		absorb[i] = math.Sqrt(nr.Dists[i]) <= s.radius
		found[i] = true
	}
	nr.Release()
	return ids, absorb, found
}

func (s *flatToySnapshot) Get(id uint64) MicroCluster {
	if i, ok := s.idx.IndexOf(id); ok {
		return s.mcs[i]
	}
	return nil
}

func (s *flatToySnapshot) Len() int { return len(s.mcs) }

type mapBroadcasts map[string]mbsp.Item

func (m mapBroadcasts) Get(id string) (mbsp.Item, bool) {
	v, ok := m[id]
	return v, ok
}

// scalarSnapshot hides every optional capability of the snapshot it
// wraps — BatchNearester in particular — so the assign op takes its
// per-record loop: the oracle the batched path is held to.
type scalarSnapshot struct{ Snapshot }

func assignCtx(snap Snapshot, groups uint64) *mbsp.TaskContext {
	return mbsp.NewTaskContext(OpAssign, 0, 0, mapBroadcasts{
		BroadcastModel:  &ModelBroadcast{Search: snap},
		BroadcastConfig: TaskConfig{OutlierGroups: groups},
	})
}

// TestFlatIndexNearestAllMatchesNearest checks the blocked NearestAll
// against the per-record scalar path: random blocks straddling
// packBlockRows, records with NaN coordinates (no row compares below
// +Inf → -1), mismatched dimensionalities (scalar fallback), and the
// empty index.
func TestFlatIndexNearestAllMatchesNearest(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dims := []int{1, 2, 5, 17, 128}
	for trial := 0; trial < 30; trial++ {
		dim := dims[rng.Intn(len(dims))]
		nmc := 1 + rng.Intn(40)
		mcs := make([]MicroCluster, nmc)
		for i := range mcs {
			sum := make(vector.Vector, dim)
			for j := range sum {
				sum[j] = rng.NormFloat64() * 5
			}
			mcs[i] = &toyMC{Id: uint64(i + 1), Sum: sum, W: 1}
		}
		idx := BuildFlatIndex(mcs)
		n := rng.Intn(2*packBlockRows + 3)
		recs := make([]stream.Record, n)
		for i := range recs {
			vals := make(vector.Vector, dim)
			for j := range vals {
				vals[j] = rng.NormFloat64() * 5
			}
			switch rng.Intn(20) {
			case 0:
				vals[rng.Intn(dim)] = math.NaN()
			case 1:
				// Shorter record: both paths compare center prefixes.
				vals = vals[:rng.Intn(dim)+0]
			}
			recs[i] = stream.Record{Seq: uint64(i), Values: vals}
		}
		rows, dists := idx.NearestAll(nil, nil, nil)
		if len(rows) != 0 || len(dists) != 0 {
			t.Fatalf("NearestAll(nil) = %d rows", len(rows))
		}
		rows, dists = idx.NearestAll(recs, rows, dists)
		for i, rec := range recs {
			wantRow, wantD := idx.Nearest(rec.Values)
			if rows[i] != wantRow || !sameFloat(dists[i], wantD) {
				t.Fatalf("trial %d rec %d: NearestAll = (%d, %v), Nearest = (%d, %v)",
					trial, i, rows[i], dists[i], wantRow, wantD)
			}
		}
	}

	empty := BuildFlatIndex(nil)
	rows, dists := empty.NearestAll([]stream.Record{{Values: vector.Vector{1, 2}}}, nil, nil)
	if rows[0] != -1 || !math.IsInf(dists[0], 1) {
		t.Fatalf("empty index NearestAll = (%d, %v), want (-1, +Inf)", rows[0], dists[0])
	}
}

func sameFloat(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// TestAssignBatchedMatchesScalar runs the assign op twice over the same
// partition — batched, and per record through a scalarSnapshot — and
// requires identical keyed output, including outlier dealing for records
// outside every boundary and for NaN records that match no row.
func TestAssignBatchedMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	mcs := make([]MicroCluster, 12)
	for i := range mcs {
		sum := vector.Vector{rng.NormFloat64() * 3, rng.NormFloat64() * 3, rng.NormFloat64() * 3}
		mcs[i] = &toyMC{Id: uint64(100 + i), Sum: sum, W: 1}
	}
	snap := newFlatToySnapshot(mcs, 1.5)
	in := make(mbsp.Partition, 600)
	for i := range in {
		vals := vector.Vector{rng.NormFloat64() * 4, rng.NormFloat64() * 4, rng.NormFloat64() * 4}
		if i%97 == 0 {
			vals[1] = math.NaN()
		}
		in[i] = stream.Record{Seq: uint64(i), Values: vals}
	}
	op := makeAssignOp()
	batched, err := op(assignCtx(snap, 3), in)
	if err != nil {
		t.Fatalf("batched assign: %v", err)
	}
	scalar, err := op(assignCtx(scalarSnapshot{snap}, 3), in)
	if err != nil {
		t.Fatalf("scalar assign: %v", err)
	}

	if len(batched) != len(scalar) || len(batched) != len(in) {
		t.Fatalf("lengths: batched %d, scalar %d, in %d", len(batched), len(scalar), len(in))
	}
	outliers := 0
	for i := range batched {
		b := batched[i].(*mbsp.KeyedItem)
		s := scalar[i].(*mbsp.KeyedItem)
		if b.Key != s.Key {
			t.Fatalf("item %d: batched key %d, scalar key %d", i, b.Key, s.Key)
		}
		if b.Item.(stream.Record).Seq != uint64(i) {
			t.Fatalf("item %d: batched path emitted the wrong record", i)
		}
		if b.Key >= OutlierKeyBase {
			outliers++
			if want := OutlierKeyBase | (uint64(i) % 3); b.Key != want {
				t.Fatalf("item %d: outlier key %d, want %d", i, b.Key, want)
			}
		}
	}
	if outliers == 0 {
		t.Fatal("fixture produced no outliers; boundary test not exercised")
	}
	if outliers == len(in) {
		t.Fatal("fixture produced only outliers; absorb path not exercised")
	}
}

// TestAssignBatchedEmptySnapshot checks that an empty capable snapshot
// deals every record to outlier groups, as the scalar path does.
func TestAssignBatchedEmptySnapshot(t *testing.T) {
	snap := newFlatToySnapshot(nil, 1)
	in := mbsp.Partition{
		stream.Record{Seq: 5, Values: vector.Vector{1, 2}},
		stream.Record{Seq: 6, Values: vector.Vector{3, 4}},
	}
	out, err := makeAssignOp()(assignCtx(snap, 4), in)
	if err != nil {
		t.Fatalf("assign: %v", err)
	}
	for i, item := range out {
		k := item.(*mbsp.KeyedItem).Key
		want := OutlierKeyBase | (in[i].(stream.Record).Seq % 4)
		if k != want {
			t.Fatalf("item %d: key %d, want %d", i, k, want)
		}
	}
}

// TestAssignBatchedBadInput checks the batched path reports non-record
// items like the scalar path does.
func TestAssignBatchedBadInput(t *testing.T) {
	snap := newFlatToySnapshot([]MicroCluster{&toyMC{Id: 1, Sum: vector.Vector{0, 0}, W: 1}}, 1)
	_, err := makeAssignOp()(assignCtx(snap, 1), mbsp.Partition{"not a record"})
	if err == nil {
		t.Fatal("batched assign accepted a non-record item")
	}
}
