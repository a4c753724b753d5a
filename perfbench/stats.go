package main

import (
	"math"
	"sort"
)

// percentile is one order statistic of a sample together with the sample
// size it was taken from, so a reader can tell how many samples lie beyond
// it.
type percentile struct {
	Value float64
	N     int
}

// beyond returns how many samples lie above the p-th percentile's rank.
func (q percentile) beyond(p float64) int {
	return q.N - nearestRank(p, q.N)
}

// nearestRank is the 1-based rank of the p-th percentile in n sorted
// samples: the smallest rank whose cumulative share reaches p.
func nearestRank(p float64, n int) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentileOf returns the p-th percentile (0 < p <= 100) of values by the
// nearest-rank rule. values is not modified. An empty sample yields
// {0, 0}.
func percentileOf(values []float64, p float64) percentile {
	if len(values) == 0 {
		return percentile{}
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return percentile{Value: s[nearestRank(p, len(s))-1], N: len(s)}
}

// median is percentileOf(values, 50).Value.
func median(values []float64) float64 { return percentileOf(values, 50).Value }

// windowedPercentile returns the median, over every run of size
// consecutive values, of that run's p-th percentile, and how many runs
// there were; values shorter than size form a single run. On a shared
// host a stretch of contention moves a whole-sample tail percentile as far
// as the contended latency as soon as it covers the tail's share of the
// sample, and whether a run meets such a stretch is chance. The median
// over short windows moves only when contention covers most of the
// windows, as the median over windows does for throughput_rps.
func windowedPercentile(values []float64, p float64, size int) (float64, int) {
	if len(values) <= size {
		return percentileOf(values, p).Value, 1
	}
	ws := make([]float64, 0, len(values)-size+1)
	for i := 0; i+size <= len(values); i++ {
		ws = append(ws, percentileOf(values[i:i+size], p).Value)
	}
	return median(ws), len(ws)
}
