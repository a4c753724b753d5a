package main

import (
	"io"
	"time"

	"diststream/internal/stream"
)

// feed is the load generator: it replays generated records as the
// pipeline's stream.Source.
//
// With rate 0 every record is ready at once: a closed loop in which the
// pipeline pulls as fast as it can. With rate > 0 the warm-up records are
// ready at once and record warm+i is due at start+i/rate, where start is
// set by release once the system is up (the first publication). Next
// holds a record back until it is due: an open loop. The schedule is
// fixed at release, so a consumer that stalls finds the records that fell
// due meanwhile ready at once, and the stall shows as lateness (how long
// a due record waited for the consumer to ask for it) rather than as a
// slower schedule. Pacing inside Next is equivalent to a generator
// goroutine filling an unbounded queue on the same schedule, without the
// goroutine.
//
// A record the consumer asks for early is handed over when the sleep
// for it ends, which on a loaded host can be a millisecond past its due
// time. That oversleep is the generator's, not the system's; it is
// recorded so batch latency can leave it out.
type feed struct {
	in    *input
	n     int
	rate  float64
	warm  int
	start time.Time
	next  int
	// late holds each paced record's pull time minus its due time; over[i]
	// is how far the sleep for record i ran past its due time.
	late []time.Duration
	over []time.Duration

	// Tracing (tr non-nil): cut[i] is the batch whose cut pulls record i
	// (cut[len(records)] is the pull that returns io.EOF). The batcher
	// reads one record past each window, so the first record of batch k is
	// pulled while batch k-1 is cut.
	tr       *recorder
	cut      []int32
	curCut   int
	cutStart time.Duration
}

// newFeed replays in's records.
func newFeed(in *input, rate float64, warm int) *feed {
	f := &feed{in: in, n: in.n, rate: rate, warm: warm, curCut: -1}
	if rate > 0 {
		f.late = make([]time.Duration, 0, in.n)
		f.over = make([]time.Duration, in.n)
	}
	return f
}

// release starts the open-loop schedule at t. Records past the warm-up
// sample pulled before release (the rest of the batch that completes
// warm-up) are not paced.
func (f *feed) release(t time.Time) { f.start = t }

// trace makes the feed mark batch boundaries: it opens a core.batch span
// at each batch's first pull, records the stream.source span of the cut,
// and publishes the current batch index to the recorder.
func (f *feed) trace(tr *recorder) {
	f.tr = tr
	batchOf := f.in.batchOf[:f.n]
	f.cut = make([]int32, f.n+1)
	for i := range batchOf {
		f.cut[i] = batchOf[i]
		if i > 0 && batchOf[i] != batchOf[i-1] {
			f.cut[i]--
		}
	}
	if f.n > 0 {
		f.cut[f.n] = batchOf[f.n-1]
	}
}

// overslept returns how far the sleep for record i ran past its due
// time: 0 when the consumer asked for it late or it does not exist.
func (f *feed) overslept(i int) time.Duration {
	if i >= len(f.over) {
		return 0
	}
	return f.over[i]
}

// due returns record i's due time; i must be at least warm.
func (f *feed) due(i int) time.Time {
	return f.start.Add(time.Duration(float64(i-f.warm) / f.rate * float64(time.Second)))
}

// Next implements stream.Source.
func (f *feed) Next() (stream.Record, error) {
	i := f.next
	if f.tr != nil && i < len(f.cut) && int(f.cut[i]) != f.curCut {
		f.startCut(int(f.cut[i]))
	}
	if i >= f.n {
		f.endCut()
		return stream.Record{}, io.EOF
	}
	if f.rate > 0 && i >= f.warm && !f.start.IsZero() {
		due := f.due(i)
		wait := time.Until(due)
		if wait > 0 {
			time.Sleep(wait)
		}
		late := time.Since(due)
		if wait > 0 {
			f.over[i] = late
		}
		f.late = append(f.late, late)
	}
	f.next++
	if f.tr != nil && int(f.in.batchOf[i]) != f.curCut {
		f.endCut() // the read-ahead record closes the window
	}
	return f.in.record(i), nil
}

// startCut closes the previous batch's span (and its tail gap) and opens
// batch c's.
func (f *feed) startCut(c int) {
	t := f.tr.now()
	f.finishBatch(t)
	f.tr.setBatch(c)
	f.curCut, f.cutStart = c, t
}

// endCut records the cut's stream.source span once the batcher has read
// one record past the window (or hit the end of the stream).
func (f *feed) endCut() {
	if f.tr == nil || f.curCut < 0 {
		return
	}
	f.tr.driver("stream.source", f.cutStart, f.tr.now(), f.in.sizes[f.curCut], 0, "")
}

// finishBatch closes the open batch span at t. Call it once after the
// run returns to close the last batch.
func (f *feed) finishBatch(t time.Duration) {
	if f.tr == nil || f.curCut < 0 {
		return
	}
	f.tr.closeGap(t)
	f.tr.record("core.batch", laneDriver, f.cutStart, t, f.in.sizes[f.curCut], 0)
}
