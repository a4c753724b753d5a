package main

import (
	"io"
	"testing"
	"time"

	"diststream/internal/harness"
	"diststream/internal/stream"
	"diststream/internal/vclock"
)

func testInput(n int) *input {
	recs := make([]stream.Record, n)
	for i := range recs {
		recs[i] = stream.Record{Seq: uint64(i), Timestamp: vclock.Time(i), Values: []float64{float64(i)}}
	}
	return &input{ds: harness.Dataset{Records: recs}, n: n, span: vclock.Duration(n)}
}

// A consumer that stalls must see the records that fell due during the
// stall as late, and must not push the schedule back: the last record is
// still due at start + (n-1)/rate.
func TestFeedTurnsStallIntoLateness(t *testing.T) {
	const (
		n     = 400
		rate  = 2000.0 // one record every 0.5ms
		stall = 100 * time.Millisecond
		at    = 100
	)
	f := newFeed(testInput(n), rate, 0)
	start := time.Now()
	f.release(start)
	for i := 0; ; i++ {
		if i == at {
			time.Sleep(stall)
		}
		if _, err := f.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	schedule := time.Duration(float64(n-1) / rate * float64(time.Second))
	if elapsed > schedule+stall/2 {
		t.Fatalf("run took %v: the stall slowed the %v schedule down", elapsed, schedule)
	}
	if len(f.late) != n {
		t.Fatalf("recorded %d lateness samples, want %d", len(f.late), n)
	}
	// Record `at` was due 50ms in and pulled after the 100ms stall.
	if f.late[at] < stall*9/10 {
		t.Fatalf("record %d late by %v, want about %v", at, f.late[at], stall)
	}
	// The backlog drains at once, so the lateness falls off by one
	// inter-record gap per record until the feed is back on schedule.
	if f.late[at+50] < stall/2 || f.late[at+50] > f.late[at] {
		t.Fatalf("record %d late by %v, want the backlog still draining", at+50, f.late[at+50])
	}
	p95 := percentileOf(durationsMS(f.late), 95).Value
	if p95 < 50 {
		t.Fatalf("lateness p95 %.1fms does not show the stall", p95)
	}
	if late := f.late[at-1]; late > stall/4 {
		t.Fatalf("record before the stall late by %v", late)
	}
	// The generator slept for no record the consumer asked for late.
	for i := at; i < at+50; i++ {
		if over := f.overslept(i); over != 0 {
			t.Fatalf("record %d, asked for late, overslept %v", i, over)
		}
	}
}

func TestFeedReplaysPassesInOrder(t *testing.T) {
	in := testInput(3)
	in.n = 7
	f := newFeed(in, 0, 0)
	var prev stream.Record
	for i := 0; i < in.n; i++ {
		r, err := f.Next()
		if err != nil {
			t.Fatal(err)
		}
		if r.Seq != uint64(i) || r.Values[0] != float64(i%3) || (i > 0 && r.Timestamp <= prev.Timestamp) {
			t.Fatalf("record %d = %v after %v", i, r, prev)
		}
		prev = r
	}
	if _, err := f.Next(); err != io.EOF {
		t.Fatalf("after the stream: %v, want io.EOF", err)
	}
}
