package serve

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// defaultBuckets are the latency histogram bounds in seconds — spanning
// sub-millisecond assign lookups through multi-second macro-clusterings.
var defaultBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// Histogram is a fixed-bucket, lock-free latency histogram rendering in
// Prometheus exposition format. Observations and rendering may race
// benignly (Prometheus scrapes tolerate torn cumulative reads).
type Histogram struct {
	bounds  []float64
	counts  []atomic.Uint64 // len(bounds)+1; last is +Inf
	sumBits atomic.Uint64   // float64 bits, CAS-accumulated
	count   atomic.Uint64
}

// NewHistogram returns a histogram over the default latency buckets.
func NewHistogram() *Histogram {
	return &Histogram{
		bounds: defaultBuckets,
		counts: make([]atomic.Uint64, len(defaultBuckets)+1),
	}
}

// Observe records one latency in seconds.
func (h *Histogram) Observe(sec float64) {
	i := sort.SearchFloat64s(h.bounds, sec)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + sec)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// writeProm renders the histogram's _bucket/_sum/_count series. labels is
// either empty or a `key="value"` list without braces.
func (h *Histogram) writeProm(w io.Writer, name, labels string) {
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, labelPrefix(labels), formatBound(b), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, labelPrefix(labels), cum)
	fmt.Fprintf(w, "%s_sum{%s} %g\n", name, labels, math.Float64frombits(h.sumBits.Load()))
	fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, h.count.Load())
}

func labelPrefix(labels string) string {
	if labels == "" {
		return ""
	}
	return labels + ","
}

func formatBound(b float64) string { return fmt.Sprintf("%g", b) }

// endpointMetrics tracks one query endpoint: responses by status code and
// a latency histogram over admitted (executed) requests.
type endpointMetrics struct {
	mu      sync.Mutex
	byCode  map[int]*atomic.Uint64
	latency *Histogram
}

func newEndpointMetrics() *endpointMetrics {
	return &endpointMetrics{byCode: make(map[int]*atomic.Uint64), latency: NewHistogram()}
}

func (e *endpointMetrics) observe(code int, sec float64, executed bool) {
	e.counter(code).Add(1)
	if executed {
		e.latency.Observe(sec)
	}
}

func (e *endpointMetrics) counter(code int) *atomic.Uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	c, ok := e.byCode[code]
	if !ok {
		c = new(atomic.Uint64)
		e.byCode[code] = c
	}
	return c
}

// codes returns the observed status codes in ascending order.
func (e *endpointMetrics) codes() []int {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]int, 0, len(e.byCode))
	for c := range e.byCode {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

func (e *endpointMetrics) load(code int) uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if c, ok := e.byCode[code]; ok {
		return c.Load()
	}
	return 0
}

// IngestStats is the ingest-side view a serving process exposes on
// /metrics next to its query-side stats: producer backpressure counters
// (see stream.Buffered) supplementing the per-snapshot RunStats already
// carried by the registry.
type IngestStats struct {
	// ProducerProduced/ProducerDropped/ProducerLag mirror
	// stream.BufferedStats for the ingest source, when one is wired.
	ProducerProduced uint64
	ProducerDropped  uint64
	ProducerLag      int
}
