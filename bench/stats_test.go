package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ p, want float64 }{
		{50, 50}, {99, 100}, {10, 10}, {11, 20}, {25, 30}, {100, 100}, {0.1, 10},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(p=%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// 1000 samples: exactly 10 lie beyond p99.
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got := percentile(big, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
}

func TestMedianAndMean(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median reordered its argument")
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v", got)
	}
}

// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25];
// statistics.quantiles([1.0, 4.0, 2.0, 8.0, 16.0], n=4) == [1.5, 4.0, 12.0].
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 4, 2, 8, 16})
	if !near(q1, 1.5) || !near(q3, 12) {
		t.Errorf("quartiles = %v, %v; want 1.5, 12", q1, q3)
	}
	if got := relSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("relSpread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestBlockMedianRate(t *testing.T) {
	// Five blocks of 100 ops; one block is 10x slower (a GC landed in it).
	durs := []time.Duration{
		10 * time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond,
		20 * time.Millisecond, 10 * time.Millisecond,
	}
	if got := blockMedianRate(durs, 100); !near(got, 10000) {
		t.Errorf("blockMedianRate = %v, want 10000 (the slow block is ignored)", got)
	}
}

func TestAggregateMedianOfRoundsForTimingMeanForCounts(t *testing.T) {
	specs := []metricSpec{
		{Name: "t_us", Timing: true},
		{Name: "n_per_op"},
		{Name: "absent_us", Timing: true},
	}
	per := []map[string]float64{
		{"t_us": 10, "n_per_op": 1},
		{"t_us": 90, "n_per_op": 2},
		{"t_us": 20, "n_per_op": 6},
	}
	got := aggregate(specs, per)
	if got["t_us"] != 20 {
		t.Errorf("timing metric = %v, want the median of rounds 20", got["t_us"])
	}
	if got["n_per_op"] != 3 {
		t.Errorf("count metric = %v, want the mean of rounds 3", got["n_per_op"])
	}
	if _, ok := got["absent_us"]; ok {
		t.Error("a metric no round produced must not appear")
	}
}
