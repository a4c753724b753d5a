// Package timingtest holds what the throughput-ratio acceptance tests
// share: a lock that keeps them from overlapping across test binaries,
// and a paired measurement that gates on the median ratio.
package timingtest

import (
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// MedianRatio measures `pairs` interleaved baseline/loaded pairs —
// run(false), then run(true), swapping which goes first on every other
// pair — and returns the median of the per-pair loaded/baseline ratios.
// Drift on the host (a neighbour starting or stopping, the heap growing
// across runs) then lands on both halves of a pair, not on every loaded
// run. `go test ./...` runs packages in parallel, so the measurement
// holds a lock file in os.TempDir() that every MedianRatio caller on the
// machine shares.
func MedianRatio(tb testing.TB, pairs int, run func(loaded bool) float64) float64 {
	tb.Helper()
	unlock, err := lockFile(filepath.Join(os.TempDir(), "diststream-timing-tests.lock"))
	if err != nil {
		tb.Fatalf("timing lock: %v", err)
	}
	defer unlock()
	ratios := make([]float64, pairs)
	for i := range ratios {
		var base, loaded float64
		if i%2 == 0 {
			base, loaded = run(false), run(true)
		} else {
			loaded, base = run(true), run(false)
		}
		ratios[i] = loaded / base
		tb.Logf("pair %d: baseline %.0f rec/s, loaded %.0f rec/s (ratio %.3f)", i, base, loaded, ratios[i])
	}
	sort.Float64s(ratios)
	return ratios[len(ratios)/2]
}
