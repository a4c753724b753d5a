package core

import (
	"math"
	"sync"

	"diststream/internal/stream"
	"diststream/internal/vector"
)

// FlatIndex is the flat per-batch search structure behind the
// linear-scan snapshots: all micro-cluster centers packed into one
// row-major matrix, with precomputed squared row norms, the per-row
// micro-cluster ids, and an id → row map for O(1) lookup. It is built
// once per snapshot (driver side) and broadcast to every assign task, so
// the per-record work is a single one-vs-many kernel call over
// contiguous memory instead of a pointer-chasing scan over []Vector.
//
// Boundaries is optional per-row data for algorithms whose absorb test
// is a radius around the center (CluStream's RadiusFactor·RMS,
// clustree's per-MC boundary); algorithms with a global threshold
// (denstream's ε, simple's radius) leave it nil.
type FlatIndex struct {
	Centers    vector.Matrix
	Norms      []float64
	Boundaries []float64
	IDs        []uint64
	ByID       map[uint64]int
}

// BuildFlatIndex packs the centers of mcs into a FlatIndex. All centers
// must share one dimensionality (they come from a single model, so a
// mismatch is a programming error and panics, matching the implicit
// panic of the scalar distance scan it replaces).
func BuildFlatIndex(mcs []MicroCluster) FlatIndex {
	idx := FlatIndex{
		IDs:  make([]uint64, len(mcs)),
		ByID: make(map[uint64]int, len(mcs)),
	}
	if len(mcs) == 0 {
		return idx
	}
	centers := make([]vector.Vector, len(mcs))
	for i, mc := range mcs {
		centers[i] = mc.Center()
		idx.IDs[i] = mc.ID()
		idx.ByID[mc.ID()] = i
	}
	m, err := vector.MatrixFromRows(centers)
	if err != nil {
		panic("core: BuildFlatIndex: " + err.Error())
	}
	idx.Centers = m
	idx.Norms = m.RowNorms(nil)
	return idx
}

// Len returns the number of indexed micro-clusters.
func (f *FlatIndex) Len() int { return len(f.IDs) }

// Nearest returns the row index of the center closest to x and its exact
// squared Euclidean distance, or (-1, +Inf) for an empty index. The
// decision is bit-identical to the scalar SquaredDistance scan (see
// vector.ArgminBelow).
func (f *FlatIndex) Nearest(x vector.Vector) (int, float64) {
	return vector.ArgminBelow(x, f.Centers)
}

// packBlockRows is the record-block height NearestAll packs per kernel
// call. It bounds pooled scratch (256 rows x 768 dims = 1.5 MiB worst
// case for the supported workloads) while keeping blocks tall enough
// that the tiled kernel amortizes each centers tile over many records;
// the BenchmarkBatchNearestKernel sweep shows throughput flat from ~64
// rows up, so 256 is comfortably past the knee.
const packBlockRows = 256

// packScratch is the pooled packing buffer behind NearestAll.
type packScratch struct{ data []float64 }

var packPool = sync.Pool{New: func() any { return new(packScratch) }}

// NearestAll classifies every record against the index in blocked
// many-vs-many kernel calls: rows[i] and dists[i] receive exactly what
// Nearest(recs[i].Values) returns, bit-identically (vector.BatchArgminBelow
// carries the exactness argument; FuzzBatchNearest enforces it). Both
// slices are grown when their capacity is too short and returned so
// callers can reuse scratch across calls. Records are copied into a
// pooled row-major block of at most packBlockRows rows per kernel call,
// so a task-sized call allocates nothing in steady state.
//
// Records whose dimensionality differs from the centers' fall back to
// the per-record scalar scan (same results by construction — a shorter
// record compares against center prefixes in both paths, a longer one
// panics in both).
func (f *FlatIndex) NearestAll(recs []stream.Record, rows []int, dists []float64) ([]int, []float64) {
	if cap(rows) < len(recs) {
		rows = make([]int, len(recs))
	}
	rows = rows[:len(recs)]
	if cap(dists) < len(recs) {
		dists = make([]float64, len(recs))
	}
	dists = dists[:len(recs)]
	if len(recs) == 0 {
		return rows, dists
	}
	if f.Len() == 0 {
		for i := range rows {
			rows[i], dists[i] = -1, math.Inf(1)
		}
		return rows, dists
	}
	cols := f.Centers.Cols
	for i := range recs {
		if len(recs[i].Values) != cols {
			for j := range recs {
				rows[j], dists[j] = vector.ArgminBelow(recs[j].Values, f.Centers)
			}
			return rows, dists
		}
	}
	sc := packPool.Get().(*packScratch)
	for b0 := 0; b0 < len(recs); b0 += packBlockRows {
		b1 := min(b0+packBlockRows, len(recs))
		n := b1 - b0
		if need := n * cols; cap(sc.data) < need {
			sc.data = make([]float64, need)
		}
		data := sc.data[:n*cols]
		for i := 0; i < n; i++ {
			copy(data[i*cols:(i+1)*cols], recs[b0+i].Values)
		}
		xs := vector.Matrix{Data: data, Rows: n, Cols: cols}
		// Full slice expressions pin capacity so the kernel writes in
		// place instead of growing a copy.
		vector.BatchArgminBelow(rows[b0:b1:b1], dists[b0:b1:b1], xs, f.Centers)
	}
	packPool.Put(sc)
	return rows, dists
}

// IndexOf returns the row of the micro-cluster with the given id.
func (f *FlatIndex) IndexOf(id uint64) (int, bool) {
	i, ok := f.ByID[id]
	return i, ok
}

// Row returns the center stored at the given row as a view into the
// matrix storage.
func (f *FlatIndex) Row(i int) vector.Vector { return f.Centers.Row(i) }
