package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// lane says which thread of control a span ran on. Driver spans tile the
// batch loop; worker spans run concurrently inside a driver stage span;
// async spans (hub encoder, replica subscriber) run beside the loop and
// belong to no batch's critical path.
type lane uint8

const (
	laneDriver lane = iota
	laneWorker
	laneAsync
)

// span is one timed call into a layer, or one named gap between two such
// calls on the driver (shuffle, sort, tail).
type span struct {
	Name  string        `json:"name"`
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
	// Batch is the batcher index of the batch the driver was cutting or
	// processing when the span started. BSP runs one batch at a time, so
	// in-process workers can read it from the recorder's atomic.
	Batch int  `json:"batch"`
	Lane  lane `json:"lane"`
	// Items counts records (or tasks) the call handled; Bytes counts wire
	// bytes it moved, where the layer reports them.
	Items  int   `json:"items,omitempty"`
	Bytes  int64 `json:"bytes,omitempty"`
	Parent int   `json:"parent"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// Gap names: driver time between two traced calls, attributed to the
// stage that runs there.
const (
	gapShuffle = "mbsp.shuffle"
	gapSort    = "core.global_sort"
	gapTail    = "core.tail"
)

// recorder keeps spans in memory for one traced phase. record and
// snapshot are safe for concurrent use; driver and closeGap, which keep
// the gap bookkeeping, run on the pipeline's batch loop only.
type recorder struct {
	epoch time.Time
	batch atomic.Int64

	mu    sync.Mutex
	spans []span

	// gap bookkeeping, driver goroutine only: mark is the end of the last
	// driver span, gap names what the driver is doing until the next one.
	mark time.Duration
	gap  string
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now()}
}

func (r *recorder) now() time.Duration { return time.Since(r.epoch) }

func (r *recorder) setBatch(b int) { r.batch.Store(int64(b)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// record stores a finished span on a non-driver lane.
func (r *recorder) record(name string, l lane, start, end time.Duration, items int, bytes int64) {
	r.add(span{Name: name, Start: start, End: end, Batch: int(r.batch.Load()), Lane: l, Items: items, Bytes: bytes})
}

// driver stores a finished driver span. The driver time since the last
// driver span, when a gap is open, is stored as that gap's span first.
// next, when non-empty, opens a new gap at end.
func (r *recorder) driver(name string, start, end time.Duration, items int, bytes int64, next string) {
	if r.gap == gapTail && name != "checkpoint.encode" {
		// The tail runs to the next batch's first pull. Only the warm-up
		// batch publishes and then keeps working (its own stages follow
		// the init publication); that stretch is not tail.
		r.gap = ""
	}
	r.closeGap(start)
	r.record(name, laneDriver, start, end, items, bytes)
	r.mark = end
	if next != "" {
		r.gap = next
	}
}

// closeGap stores the open gap up to t, if any.
func (r *recorder) closeGap(t time.Duration) {
	if r.gap != "" && t > r.mark {
		r.record(r.gap, laneDriver, r.mark, t, 0, 0)
	}
	r.gap = ""
}

// snapshot returns the spans with parents resolved: a worker or driver
// span's parent is the shortest driver span of the same batch that
// contains it; async spans are roots. Batch spans (core.batch) are the
// roots of the driver tree.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	out := append([]span(nil), r.spans...)
	r.mu.Unlock()
	byBatch := map[int][]int{}
	for i := range out {
		out[i].Parent = -1
		if out[i].Lane == laneDriver {
			byBatch[out[i].Batch] = append(byBatch[out[i].Batch], i)
		}
	}
	for i := range out {
		s := &out[i]
		if s.Lane == laneAsync || s.Name == "core.batch" {
			continue
		}
		best := -1
		for _, j := range byBatch[s.Batch] {
			p := out[j]
			if j == i || p.Start > s.Start || p.End < s.End || p.dur() < s.dur() {
				continue
			}
			if p.dur() == s.dur() && s.Lane == laneDriver && p.Name != "core.batch" {
				continue // identical driver intervals: neither nests the other
			}
			if best < 0 || p.dur() < out[best].dur() {
				best = j
			}
		}
		s.Parent = best
	}
	return out
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// union returns the total length of the union of intervals.
func union(iv [][2]time.Duration) time.Duration {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total time.Duration
	cur := iv[0]
	for _, x := range iv[1:] {
		if x[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = x
			continue
		}
		if x[1] > cur[1] {
			cur[1] = x[1]
		}
	}
	return total + cur[1] - cur[0]
}

// batchBudget is one processed batch's time split by span name.
type batchBudget struct {
	batch time.Duration
	// self is each span name's time in this batch excluding the part its
	// child spans cover; incl is its summed duration; bytes and items sum
	// the spans' counters.
	self, incl map[string]time.Duration
	bytes      map[string]int64
	items      map[string]int
	count      map[string]int
	// maxSpan is each name's longest single span (the slowest task);
	// wall is the union of its spans' intervals, which for concurrent
	// worker spans is the time at least one worker spent in it.
	maxSpan, wall map[string]time.Duration
	// unattributed is driver time inside the batch no span covers.
	unattributed time.Duration
}

// budgets splits the spans into per-batch budgets, keeping only batches
// that ran a global update (batches absorbed whole by warm-up do no
// pipeline work).
func budgets(spans []span) []batchBudget {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	var out []batchBudget
	for i, s := range spans {
		if s.Name != "core.batch" {
			continue
		}
		b := batchBudget{
			batch: s.dur(),
			self:  map[string]time.Duration{}, incl: map[string]time.Duration{},
			bytes: map[string]int64{}, items: map[string]int{}, count: map[string]int{},
			maxSpan: map[string]time.Duration{}, wall: map[string]time.Duration{},
		}
		intervals := map[string][][2]time.Duration{}
		ran := false
		var walk func(i int)
		walk = func(i int) {
			var iv [][2]time.Duration
			for _, c := range children[i] {
				iv = append(iv, [2]time.Duration{spans[c].Start, spans[c].End})
				walk(c)
			}
			n := spans[i].Name
			if n == "core.global_update" {
				ran = true
			}
			b.self[n] += spans[i].dur() - union(iv)
			b.incl[n] += spans[i].dur()
			b.bytes[n] += spans[i].Bytes
			b.items[n] += spans[i].Items
			b.count[n]++
			if d := spans[i].dur(); d > b.maxSpan[n] {
				b.maxSpan[n] = d
			}
			intervals[n] = append(intervals[n], [2]time.Duration{spans[i].Start, spans[i].End})
		}
		walk(i)
		if !ran {
			continue
		}
		for n, iv := range intervals {
			b.wall[n] = union(iv)
		}
		b.unattributed = b.self["core.batch"]
		out = append(out, b)
	}
	return out
}

// budgetRow is one line of the stage budget table.
type budgetRow struct {
	label, name string
	depth       int
}

// budgetChain is the ROADMAP stage chain, in batch order. Rows whose span
// a workload never records are left out of its table.
var budgetChain = []budgetRow{
	{"source", "stream.source", 0},
	{"init (warm-up)", "core.init", 0},
	{"snapshot build", "core.snapshot_build", 0},
	{"delta diff", "core.delta_diff", 0},
	{"broadcast", "mbsp.broadcast", 0},
	{"worker snapshot", "ops.worker_snapshot", 1},
	{"assign", "mbsp.assign_stage", 0},
	{"assign tasks", "ops.assign_task", 1},
	{"shuffle", gapShuffle, 0},
	{"local update", "mbsp.local_stage", 0},
	{"local tasks", "ops.local_task", 1},
	{"sort", gapSort, 0},
	{"global update", "core.global_update", 0},
	{"publish", "serve.publish", 0},
	{"hub", "subscribe.hub_publish", 0},
	{"tail", gapTail, 0},
	{"checkpoint encode", "checkpoint.encode", 0},
}

// medianOf takes the median over batches of f.
func medianOf(bs []batchBudget, f func(b batchBudget) float64) float64 {
	v := make([]float64, len(bs))
	for i, b := range bs {
		v[i] = f(b)
	}
	return median(v)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// printBudget writes the per-batch stage budget: median self ms, median
// bytes and share of the median batch, with unattributed driver time
// last. A driver row's self time excludes its worker rows; a worker row
// counts the time at least one worker was in it, so the rows of a batch
// add up to the batch. Replica apply runs off the batch loop and is
// listed separately.
func printBudget(w io.Writer, workload string, bs []batchBudget, async []span) {
	batchMS := medianOf(bs, func(b batchBudget) float64 { return ms(b.batch) })
	fmt.Fprintf(w, "stage budget %s: %d batches, median core.batch %.3f ms\n", workload, len(bs), batchMS)
	fmt.Fprintf(w, "  %-22s %10s %12s %7s\n", "stage", "self ms", "bytes", "share")
	for _, row := range budgetChain {
		seen := false
		for _, b := range bs {
			if b.count[row.name] > 0 {
				seen = true
				break
			}
		}
		if !seen {
			continue
		}
		self := medianOf(bs, func(b batchBudget) float64 {
			if row.depth > 0 {
				return ms(b.wall[row.name])
			}
			return ms(b.self[row.name])
		})
		bytes := medianOf(bs, func(b batchBudget) float64 { return float64(b.bytes[row.name]) })
		label := fmt.Sprintf("%*s%s", 2*row.depth, "", row.label)
		fmt.Fprintf(w, "  %-22s %10.3f %12.0f %6.1f%%\n", label, self, bytes, 100*self/batchMS)
	}
	un := medianOf(bs, func(b batchBudget) float64 { return ms(b.unattributed) })
	fmt.Fprintf(w, "  %-22s %10.3f %12s %6.1f%%\n", "unattributed", un, "", 100*un/batchMS)
	var applies []float64
	for _, s := range async {
		if s.Name == "subscribe.replica_apply" {
			applies = append(applies, ms(s.dur()))
		}
	}
	if len(applies) > 0 {
		fmt.Fprintf(w, "  %-22s %10.3f %12s %7s  (off the batch loop, per version)\n", "replica apply", median(applies), "", "-")
	}
}
