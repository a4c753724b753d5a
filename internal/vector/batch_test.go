package vector

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randMatrix fills a rows x cols matrix from rng at the given scale.
func randMatrix(rng *rand.Rand, rows, cols int, scale float64) Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * scale
	}
	return m
}

func TestBatchArgminMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	// Sizes straddle the tile boundaries for both small and large dims:
	// tileRows(2) = 64, tileRows(768) = 4.
	for trial := 0; trial < 60; trial++ {
		dims := []int{1, 2, 3, 7, 32, 128, 768}[trial%7]
		n := rng.Intn(2*tileRows(dims) + 3)
		rows := rng.Intn(2*tileRows(dims) + 3)
		xs := randMatrix(rng, n, dims, 5)
		m := randMatrix(rng, rows, dims, 5)
		// Duplicate a center occasionally to force exact ties.
		if rows > 1 && trial%3 == 0 {
			copy(m.Data[(rows-1)*dims:], m.Data[:dims])
		}
		idxs, dists := BatchArgminBelow(nil, nil, xs, m)
		for i := 0; i < n; i++ {
			wantIdx, wantD := ArgminBelow(xs.Row(i), m)
			if idxs[i] != wantIdx || dists[i] != wantD {
				t.Fatalf("trial %d (d=%d, n=%d, rows=%d) record %d: batch (%d, %v) vs scalar (%d, %v)",
					trial, dims, n, rows, i, idxs[i], dists[i], wantIdx, wantD)
			}
		}
	}
}

func TestBatchArgminScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	xs := randMatrix(rng, 9, 16, 3)
	m := randMatrix(rng, 21, 16, 3)
	idxs := make([]int, 0, 32)
	dists := make([]float64, 0, 32)
	outI, outD := BatchArgminBelow(idxs, dists, xs, m)
	if &outI[0] != &idxs[:1][0] || &outD[0] != &dists[:1][0] {
		t.Error("BatchArgminBelow reallocated despite sufficient capacity")
	}
	if len(outI) != 9 || len(outD) != 9 {
		t.Fatalf("lengths = %d, %d, want 9", len(outI), len(outD))
	}
}

func TestBatchArgminEmptyBlocks(t *testing.T) {
	m := NewMatrix(3, 4)
	// Zero records: nothing written, empty result.
	idxs, dists := BatchArgminBelow(nil, nil, Matrix{Cols: 4}, m)
	if len(idxs) != 0 || len(dists) != 0 {
		t.Errorf("zero records: %v %v", idxs, dists)
	}
	// Zero centers: every record unmatched, like ArgminBelow.
	xs := NewMatrix(5, 4)
	idxs, dists = BatchArgminBelow(nil, nil, xs, Matrix{Cols: 4})
	for i := range idxs {
		if idxs[i] != -1 || !math.IsInf(dists[i], 1) {
			t.Errorf("record %d vs empty centers: (%d, %v)", i, idxs[i], dists[i])
		}
	}
}

func TestBatchSquaredDistancesToBothForms(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	// Below the threshold: direct form, exact.
	xs := randMatrix(rng, 7, NormExpansionMinDim-1, 4)
	m := randMatrix(rng, 11, NormExpansionMinDim-1, 4)
	dst := BatchSquaredDistancesTo(nil, xs, m, m.RowNorms(nil))
	for i := 0; i < xs.Rows; i++ {
		for k := 0; k < m.Rows; k++ {
			if want := SquaredDistance(xs.Row(i), m.Row(k)); dst[i*m.Rows+k] != want {
				t.Fatalf("direct form (%d,%d): %v != %v", i, k, dst[i*m.Rows+k], want)
			}
		}
	}
	// At and above the threshold: expansion, approximately equal.
	xs = randMatrix(rng, 7, 128, 4)
	m = randMatrix(rng, 11, 128, 4)
	dst = BatchSquaredDistancesTo(dst, xs, m, m.RowNorms(nil))
	for i := 0; i < xs.Rows; i++ {
		for k := 0; k < m.Rows; k++ {
			want := SquaredDistance(xs.Row(i), m.Row(k))
			if math.Abs(dst[i*m.Rows+k]-want) > 1e-9*(1+want) {
				t.Fatalf("expansion (%d,%d): %v vs %v", i, k, dst[i*m.Rows+k], want)
			}
		}
	}
}

// TestNormExpansionErrorHighDim quantifies the norm-expansion error at
// d=768 in the two regimes the NormExpansionMinDim docs promise:
// well-separated pairs stay within NormExpansionRelError relative error,
// and the |x| ≈ |c| >> |x-c| cancellation regime blows past it — the
// measured reason the decision path (BatchArgminBelow) never uses the
// expansion.
func TestNormExpansionErrorHighDim(t *testing.T) {
	const dim = 768
	rng := rand.New(rand.NewSource(20))

	// Well-separated: records and centers drawn at the same scale, with
	// |x-c|² comparable to |x|². Relative error must honor the bound.
	xs := randMatrix(rng, 16, dim, 1)
	m := randMatrix(rng, 16, dim, 1)
	dst := BatchSquaredDistancesTo(nil, xs, m, m.RowNorms(nil))
	var worstSep float64
	for i := 0; i < xs.Rows; i++ {
		for k := 0; k < m.Rows; k++ {
			want := SquaredDistance(xs.Row(i), m.Row(k))
			xx, cc := dot(xs.Row(i), xs.Row(i)), dot(m.Row(k), m.Row(k))
			if want < max(xx, cc)/4 {
				continue // not in the documented separation regime
			}
			if rel := math.Abs(dst[i*m.Rows+k]-want) / want; rel > worstSep {
				worstSep = rel
			}
		}
	}
	if worstSep > NormExpansionRelError {
		t.Errorf("well-separated relative error %.3e exceeds documented bound %.3e", worstSep, NormExpansionRelError)
	}
	t.Logf("d=%d well-separated worst relative error: %.3e (bound %.3e)", dim, worstSep, NormExpansionRelError)

	// Cancellation: centers = record + tiny offset, both with large norm
	// (|x| ≈ |c| ≈ sqrt(d)·10 while |x-c| ≈ 1e-6). The expansion
	// subtracts two ~|x|² quantities to recover a ~1e-12 difference.
	x := New(dim)
	for j := range x {
		x[j] = 10 + rng.NormFloat64()
	}
	close := NewMatrix(4, dim)
	for i := 0; i < close.Rows; i++ {
		copy(close.Data[i*dim:(i+1)*dim], x)
		close.Data[i*dim+i] += 1e-6 // |x-c|² = 1e-12
	}
	xone := Matrix{Data: x, Rows: 1, Cols: dim}
	dst = BatchSquaredDistancesTo(dst, xone, close, close.RowNorms(nil))
	var worstClose float64
	for k := 0; k < close.Rows; k++ {
		want := SquaredDistance(x, close.Row(k))
		rel := math.Abs(dst[k]-want) / want
		if rel > worstClose {
			worstClose = rel
		}
	}
	t.Logf("d=%d cancellation worst relative error: %.3e", dim, worstClose)
	if worstClose < 1e-4 {
		t.Errorf("cancellation regime relative error %.3e unexpectedly small — the exactness argument for the decision path assumes this regime is lossy", worstClose)
	}
}

// FuzzBatchNearest is the differential fuzzer for the blocked
// many-vs-many kernel: for arbitrary record blocks and center matrices —
// NaN, ±Inf, -0, denormals, duplicate rows, empty blocks and sizes
// straddling the tile boundaries included — BatchArgminBelow must agree
// exactly with the per-record scalar SquaredDistance scan on every
// winning index and distance.
func FuzzBatchNearest(f *testing.F) {
	f.Add(uint8(3), uint8(5), uint8(4), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(0), uint8(7), uint8(3), []byte{9})            // empty record block
	f.Add(uint8(5), uint8(0), uint8(3), []byte{})             // empty centers
	f.Add(uint8(65), uint8(67), uint8(2), []byte{0xff, 0})    // straddles tileRows(2)=64
	f.Add(uint8(9), uint8(5), uint8(255), []byte{0xf8, 0x7f}) // high dim, tiny tiles
	f.Fuzz(func(t *testing.T, nRecs, nRows, nCols uint8, raw []byte) {
		n := int(nRecs % 80)
		rows := int(nRows % 80)
		cols := int(nCols)%200 + 1
		specials := []float64{0, math.Copysign(0, -1), 1, -1, math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300, 5e-324}
		next := func(i int) float64 {
			if len(raw) == 0 {
				return float64(i%7) - 3
			}
			off := (i * 8) % len(raw)
			var buf [8]byte
			for j := 0; j < 8; j++ {
				buf[j] = raw[(off+j)%len(raw)]
			}
			bits := binary.LittleEndian.Uint64(buf[:])
			switch bits % 4 {
			case 0:
				return specials[int(bits/4)%len(specials)]
			case 1:
				return float64(int64(bits)%1000) / 8
			default:
				return math.Float64frombits(bits)
			}
		}
		k := 0
		fill := func(m Matrix) {
			for i := range m.Data {
				m.Data[i] = next(k)
				k++
			}
		}
		xs := Matrix{Data: make([]float64, n*cols), Rows: n, Cols: cols}
		m := Matrix{Data: make([]float64, rows*cols), Rows: rows, Cols: cols}
		fill(xs)
		fill(m)
		// Duplicate rows with probability ~1/2 to force exact ties.
		if rows > 1 && len(raw) > 0 && raw[0]%2 == 0 {
			copy(m.Data[(rows-1)*cols:], m.Data[:cols])
		}
		idxs, dists := BatchArgminBelow(nil, nil, xs, m)
		rowVecs := make([]Vector, rows)
		for i := range rowVecs {
			rowVecs[i] = m.Row(i)
		}
		for i := 0; i < n; i++ {
			wantIdx, wantD := scalarArgmin(xs.Row(i), rowVecs)
			if idxs[i] != wantIdx {
				t.Fatalf("record %d argmin: batch %d vs scalar %d (n=%d rows=%d cols=%d)", i, idxs[i], wantIdx, n, rows, cols)
			}
			if wantIdx >= 0 && idxs[i] >= 0 && dists[i] != wantD && !(math.IsNaN(dists[i]) && math.IsNaN(wantD)) {
				t.Fatalf("record %d distance: batch %v vs scalar %v at row %d", i, dists[i], wantD, idxs[i])
			}
		}
	})
}

// BenchmarkBatchNearestKernel sweeps the blocked many-vs-many argmin
// across the dimension regimes the assign path sees (d=2 toy, d=32/54
// paper datasets, d=128/768 embedding streams) and across record-tile
// heights, against the per-record one-vs-many kernel it replaces. The
// tileRows constants in batch.go are chosen from this table.
func BenchmarkBatchNearestKernel(b *testing.B) {
	const centers = 256
	for _, dim := range []int{2, 32, 128, 768} {
		rng := rand.New(rand.NewSource(int64(dim)))
		n := 1024
		if dim >= 768 {
			n = 256
		}
		xs := randMatrix(rng, n, dim, 5)
		m := randMatrix(rng, centers, dim, 5)
		idxs := make([]int, n)
		dists := make([]float64, n)
		b.Run(fmt.Sprintf("d%d/perRecord", dim), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for r := 0; r < n; r++ {
					idxs[r], dists[r] = ArgminBelow(xs.Row(r), m)
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "rec/s")
		})
		for _, rt := range []int{4, 16, 64, 256} {
			b.Run(fmt.Sprintf("d%d/tile%d", dim, rt), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					batchArgminTiled(idxs, dists, xs, m, rt, rt)
				}
				b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "rec/s")
			})
		}
		b.Run(fmt.Sprintf("d%d/auto", dim), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				BatchArgminBelow(idxs, dists, xs, m)
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "rec/s")
		})
	}
}

// BenchmarkBatchDistanceForm measures the direct-form vs norm-expansion
// tradeoff across dimensions — the measurement behind
// NormExpansionMinDim. Both forms run over the same tiling; only the
// inner pair loop differs.
func BenchmarkBatchDistanceForm(b *testing.B) {
	const n, centers = 256, 256
	for _, dim := range []int{2, 8, 16, 32, 64, 128, 768} {
		rng := rand.New(rand.NewSource(int64(dim) + 1))
		xs := randMatrix(rng, n, dim, 5)
		m := randMatrix(rng, centers, dim, 5)
		norms := m.RowNorms(nil)
		dst := make([]float64, n*centers)
		direct := func() {
			t := tileRows(dim)
			for r0 := 0; r0 < xs.Rows; r0 += t {
				r1 := min(r0+t, xs.Rows)
				for c0 := 0; c0 < m.Rows; c0 += t {
					c1 := min(c0+t, m.Rows)
					for r := r0; r < r1; r++ {
						x := xs.Row(r)
						out := dst[r*m.Rows : (r+1)*m.Rows]
						for i := c0; i < c1; i++ {
							row := m.Row(i)
							var sum float64
							for j := range x {
								d := x[j] - row[j]
								sum += d * d
							}
							out[i] = sum
						}
					}
				}
			}
		}
		expansion := func() {
			t := tileRows(dim)
			for r0 := 0; r0 < xs.Rows; r0 += t {
				r1 := min(r0+t, xs.Rows)
				for c0 := 0; c0 < m.Rows; c0 += t {
					c1 := min(c0+t, m.Rows)
					for r := r0; r < r1; r++ {
						x := xs.Row(r)
						out := dst[r*m.Rows : (r+1)*m.Rows]
						xx := dot(x, x)
						for i := c0; i < c1; i++ {
							out[i] = xx - 2*dot(x, m.Row(i)) + norms[i]
						}
					}
				}
			}
		}
		b.Run(fmt.Sprintf("d%d/direct", dim), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				direct()
			}
		})
		b.Run(fmt.Sprintf("d%d/expansion", dim), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				expansion()
			}
		})
	}
}
