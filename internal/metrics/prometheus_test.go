package metrics

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// TestWritePrometheusGolden pins the full exposition format — HELP/TYPE
// lines, label escaping, counter/gauge typing, histogram bucket ladders —
// against a golden file, so accidental format drift fails loudly instead
// of silently breaking scrapers.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()

	c := r.Counter("curp_test_ops_total", "Operations processed.", L("path", "fast"))
	c.Add(41)
	c.Inc()
	r.Counter("curp_test_ops_total", "Operations processed.", L("path", "slow")).Add(7)
	// Re-registration returns the same instrument: this must not reset or
	// duplicate the series.
	r.Counter("curp_test_ops_total", "Operations processed.", L("path", "fast")).Inc()

	g := r.Gauge("curp_test_window_ops", "Unsynced window size.")
	g.Set(12)
	g.Add(-2)

	r.GaugeFunc("curp_test_fraction", "A float-valued callback gauge.",
		func() float64 { return 0.625 })
	r.CounterFunc("curp_test_cb_total", "A callback counter.",
		func() uint64 { return 99 })

	// Label values exercising every escape: backslash, quote, newline.
	r.Counter("curp_test_escaped_total", `Help with a \ backslash.`,
		L("weird", "a\\b\"c\nd")).Add(3)

	h := r.Histogram("curp_test_latency_seconds", "Op latency.", L("op", "update"))
	h.ObserveDuration(75 * time.Microsecond)  // ≤ 100µs bucket
	h.ObserveDuration(75 * time.Microsecond)  // same bucket: cumulativity
	h.ObserveDuration(300 * time.Microsecond) // ≤ 500µs bucket
	h.ObserveDuration(80 * time.Millisecond)  // ≤ 100ms bucket
	h.ObserveDuration(30 * time.Second)       // beyond the ladder: only +Inf

	sh := r.SizeHistogram("curp_test_batch_entries", "Sync batch sizes.")
	sh.Observe(1)
	sh.Observe(3)
	sh.Observe(500)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	got := buf.Bytes()

	golden := filepath.Join("testdata", "exposition.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("exposition differs from golden file\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestHistogramBucketCumulativity checks the le buckets are monotone
// non-decreasing and end exactly at _count, independent of the golden
// file.
func TestHistogramBucketCumulativity(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("x_seconds", "x")
	for i := 0; i < 1000; i++ {
		h.Observe(int64(i) * 37_000) // 0..37ms spread
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var prev, count int64 = -1, -1
	for _, line := range strings.Split(buf.String(), "\n") {
		switch {
		case strings.HasPrefix(line, "x_seconds_bucket"):
			v, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			if v < prev {
				t.Errorf("bucket counts not cumulative: %d after %d (%q)", v, prev, line)
			}
			prev = v
		case strings.HasPrefix(line, "x_seconds_count"):
			count, _ = strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		}
	}
	if count != 1000 {
		t.Errorf("_count = %d, want 1000", count)
	}
	if prev != count {
		t.Errorf("+Inf bucket = %d, want _count = %d", prev, count)
	}
}
