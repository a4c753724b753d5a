package main

import "testing"

func TestPercentileOfPicksNearestRank(t *testing.T) {
	values := make([]float64, 200)
	for i := range values {
		values[i] = float64(200 - i) // 200, 199, ..., 1: unsorted input
	}
	cases := []struct {
		p      float64
		want   float64
		beyond int
	}{
		{50, 100, 100},
		{95, 190, 10},
		{99, 198, 2},
		{100, 200, 0},
		{0.1, 1, 199},
	}
	for _, c := range cases {
		got := percentileOf(values, c.p)
		if got.Value != c.want || got.N != len(values) || got.beyond(c.p) != c.beyond {
			t.Errorf("p%v = %+v beyond %d, want value %v n %d beyond %d",
				c.p, got, got.beyond(c.p), c.want, len(values), c.beyond)
		}
	}
	if values[0] != 200 {
		t.Fatal("percentileOf reordered its input")
	}
}

func TestPercentileOfSmallSamples(t *testing.T) {
	if got := percentileOf(nil, 95); got.N != 0 || got.Value != 0 {
		t.Fatalf("empty sample: %+v", got)
	}
	got := percentileOf([]float64{3, 1, 2}, 95)
	if got.Value != 3 || got.N != 3 || got.beyond(95) != 0 {
		t.Fatalf("p95 of 3 samples: %+v beyond %d", got, got.beyond(95))
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2 {
		t.Fatalf("median of 4 samples = %v, want the lower middle 2", m)
	}
}

func TestWindowedPercentileIgnoresASlowStretch(t *testing.T) {
	// 200 samples cycling 1..20, so every 20-sample window has p95 19,
	// with one slow stretch of 20 samples at 100.
	values := make([]float64, 200)
	for i := range values {
		values[i] = float64(i%20 + 1)
	}
	for i := 40; i < 60; i++ {
		values[i] = 100
	}
	if whole := percentileOf(values, 95).Value; whole != 100 {
		t.Fatalf("whole-sample p95 = %v, want the slow stretch's 100", whole)
	}
	got, n := windowedPercentile(values, 95, 20)
	if got != 19 || n != 181 {
		t.Fatalf("windowed p95 = %v over %d windows, want 19 over 181", got, n)
	}
	if got, n := windowedPercentile(values[:15], 95, 20); got != 15 || n != 1 {
		t.Fatalf("short sample: windowed p95 = %v over %d windows, want 15 over 1", got, n)
	}
}
