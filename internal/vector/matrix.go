package vector

import "fmt"

// Matrix is a dense row-major matrix: row i occupies
// Data[i*Cols : (i+1)*Cols]. It is the flat storage behind the one-vs-many
// distance kernels: keeping all rows in one contiguous allocation turns
// the per-row pointer chase of a []Vector into a sequential sweep the
// hardware prefetcher can follow, and lets the kernels run their inner
// loops over re-sliced rows with bounds checks hoisted out.
type Matrix struct {
	Data []float64
	Rows int
	Cols int
}

// NewMatrix returns a zeroed rows x cols matrix in one allocation.
func NewMatrix(rows, cols int) Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("vector: NewMatrix(%d, %d): negative dimension", rows, cols))
	}
	return Matrix{Data: make([]float64, rows*cols), Rows: rows, Cols: cols}
}

// MatrixFromRows packs the given equal-length vectors into a fresh
// row-major matrix. An empty input yields a 0x0 matrix.
func MatrixFromRows(rows []Vector) (Matrix, error) {
	if len(rows) == 0 {
		return Matrix{}, nil
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return Matrix{}, fmt.Errorf("%w: row %d has %d components, want %d", ErrDimensionMismatch, i, len(r), cols)
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

// Row returns row i as a Vector view sharing the matrix storage. The
// returned slice has capacity clamped to the row, so appends cannot
// clobber the next row.
func (m Matrix) Row(i int) Vector {
	off := i * m.Cols
	return Vector(m.Data[off : off+m.Cols : off+m.Cols])
}

// SetRow copies v into row i.
func (m Matrix) SetRow(i int, v Vector) {
	copy(m.Data[i*m.Cols:(i+1)*m.Cols], v)
}

// Clone returns a deep copy.
func (m Matrix) Clone() Matrix {
	out := m
	out.Data = append([]float64(nil), m.Data...)
	return out
}

// RowNorms writes the squared L2 norm of each row into dst (allocating
// when dst is too short) and returns it. These are the precomputed |c|²
// terms of the SquaredDistancesTo expansion.
func (m Matrix) RowNorms(dst []float64) []float64 {
	if cap(dst) < m.Rows {
		dst = make([]float64, m.Rows)
	}
	dst = dst[:m.Rows]
	for i := 0; i < m.Rows; i++ {
		dst[i] = dot(m.Row(i), m.Row(i))
	}
	return dst
}

// dot is a 4-way unrolled inner product with four independent
// accumulators. The re-slicing of b to a's length hoists the bounds
// check out of the loop; the independent accumulators let the CPU run
// the multiply-adds in parallel. Summation order differs from a naive
// loop, which is fine here: dot feeds the expansion kernel, whose
// results are approximate by construction (see SquaredDistancesTo).
func dot(a, b Vector) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < len(a); i++ {
		s0 += a[i] * b[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// SquaredDistancesTo writes the squared Euclidean distance from x to
// every row of m into dst (allocating when dst is too short) and returns
// it, using the expansion
//
//	|x - c|² = |x|² - 2·x·c + |c|²
//
// with the |c|² terms precomputed (norms must be m.RowNorms). Per row it
// costs one inner product instead of the subtract-square-accumulate of
// the direct form — fewer operations and a blocked, prefetch-friendly
// sweep over the flat matrix.
//
// The expansion reorders floating-point operations, so results can
// differ from the direct form by cancellation error (large when
// |x| ≈ |c| >> |x-c|). Use it where approximate distances are acceptable
// (diagnostics, pruning, throughput measurements); decision paths that
// must reproduce the scalar argmin bit-for-bit use ArgminBelow instead.
func SquaredDistancesTo(dst []float64, x Vector, m Matrix, norms []float64) []float64 {
	if cap(dst) < m.Rows {
		dst = make([]float64, m.Rows)
	}
	dst = dst[:m.Rows]
	xx := dot(x, x)
	for i := 0; i < m.Rows; i++ {
		dst[i] = xx - 2*dot(x, m.Row(i)) + norms[i]
	}
	return dst
}

// ArgminBelow returns the index of the row of m closest to x in squared
// Euclidean distance, together with that exact squared distance. It
// returns (-1, +Inf) when the matrix has no rows or no row compares
// below +Inf (every distance NaN).
//
// The decision is bit-identical to the reference scalar scan
//
//	for i, c := range rows { if SquaredDistance(x, c) < best { ... } }
//
// because each row's distance is accumulated in index order with a
// single accumulator (Go never reassociates floating-point arithmetic),
// and the early exit only abandons rows whose partial sum already
// reaches the running best: remaining terms are ≥ 0 (or NaN), so the
// full sum could not have compared below the best either. NaN partial
// sums fail the abandon test and fail the final comparison, exactly as
// in the scalar scan. The winning row is always summed to completion, so
// the returned distance is the exact scalar value, fit for the √d
// boundary comparison.
func ArgminBelow(x Vector, m Matrix) (int, float64) {
	return ArgminBelowBound(x, m, inf)
}

// ArgminBelowBound is ArgminBelow with the running best seeded at bound:
// only rows whose exact squared distance compares strictly below bound
// can win, and the early exit prunes against bound from the first row.
// It returns (-1, bound) when no row beats the bound. Callers scanning
// several candidate sets against one shared best (e.g. the tree search's
// leaf visits) thread the winner's distance through as the next bound,
// which reproduces one continuous scalar scan over the concatenated
// candidates.
func ArgminBelowBound(x Vector, m Matrix, bound float64) (int, float64) {
	best := -1
	bestD := bound
	cols := m.Cols
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*cols : i*cols+cols]
		row = row[:len(x)] // hoist the bounds check; panics on dim mismatch like SquaredDistance
		var sum float64
		j := 0
		for ; j+4 <= len(x); j += 4 {
			d0 := x[j] - row[j]
			sum += d0 * d0
			d1 := x[j+1] - row[j+1]
			sum += d1 * d1
			d2 := x[j+2] - row[j+2]
			sum += d2 * d2
			d3 := x[j+3] - row[j+3]
			sum += d3 * d3
			if sum >= bestD {
				// Running-best early exit: terms are non-negative, so
				// this row can no longer win. NaN sums fall through to
				// the (failing) final comparison instead.
				break
			}
		}
		if j+4 > len(x) {
			for ; j < len(x); j++ {
				d := x[j] - row[j]
				sum += d * d
			}
		}
		if sum < bestD {
			best, bestD = i, sum
		}
	}
	return best, bestD
}

// inf avoids importing math for a constant.
var inf = func() float64 {
	one := 1.0
	zero := one - one
	return one / zero
}()
