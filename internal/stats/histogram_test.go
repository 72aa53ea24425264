package stats

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestBucketRoundTrip(t *testing.T) {
	// Every representative value must land in a bucket whose [low, high]
	// range contains it.
	values := []int64{0, 1, 2, 63, 64, 65, 127, 128, 1000, 4096, 1 << 20, 1 << 40, math.MaxInt64 / 2}
	for _, v := range values {
		i := bucketIndex(v)
		lo, hi := bucketLow(i), bucketHigh(i)
		if v < lo || v > hi {
			t.Errorf("value %d mapped to bucket %d with range [%d,%d]", v, i, lo, hi)
		}
	}
}

func TestBucketMonotonic(t *testing.T) {
	prev := -1
	for v := int64(0); v < 100000; v += 7 {
		i := bucketIndex(v)
		if i < prev {
			t.Fatalf("bucketIndex not monotonic at %d: %d < %d", v, i, prev)
		}
		prev = i
	}
}

func TestBucketRoundTripQuick(t *testing.T) {
	f := func(v int64) bool {
		if v < 0 {
			v = -v
		}
		i := bucketIndex(v)
		return v >= bucketLow(i) && v <= bucketHigh(i)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Percentile(50) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	for i := int64(1); i <= 100; i++ {
		h.Record(i)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d, want 100", h.Count())
	}
	if h.Min() != 1 || h.Max() != 100 {
		t.Fatalf("min/max = %d/%d, want 1/100", h.Min(), h.Max())
	}
	if h.Sum() != 5050 {
		t.Fatalf("sum = %d, want 5050", h.Sum())
	}
	if m := h.Mean(); math.Abs(m-50.5) > 0.001 {
		t.Fatalf("mean = %f, want 50.5", m)
	}
	// With 6 sub-bucket bits, values ≤ 4096 are near-exact.
	if p := h.Percentile(50); p < 49 || p > 52 {
		t.Fatalf("p50 = %d, want ≈50", p)
	}
	if p := h.Percentile(99); p < 98 || p > 100 {
		t.Fatalf("p99 = %d, want ≈99", p)
	}
	if p := h.Percentile(100); p != 100 {
		t.Fatalf("p100 = %d, want 100", p)
	}
	if p := h.Percentile(0); p != 1 {
		t.Fatalf("p0 = %d, want 1", p)
	}
}

func TestHistogramRecordN(t *testing.T) {
	var a, b Histogram
	for i := 0; i < 10; i++ {
		a.Record(42)
	}
	b.RecordN(42, 10)
	b.RecordN(42, 0)  // no-op
	b.RecordN(42, -5) // no-op
	if a.Count() != b.Count() || a.Sum() != b.Sum() {
		t.Fatalf("RecordN mismatch: %v vs %v", a.String(), b.String())
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b, whole Histogram
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		v := int64(rng.Intn(1_000_000))
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
		whole.Record(v)
	}
	a.Merge(&b)
	if a.Count() != whole.Count() || a.Sum() != whole.Sum() {
		t.Fatalf("merge: count/sum mismatch: %d/%d vs %d/%d", a.Count(), a.Sum(), whole.Count(), whole.Sum())
	}
	if a.Min() != whole.Min() || a.Max() != whole.Max() {
		t.Fatalf("merge: min/max mismatch")
	}
	for _, p := range []float64{10, 50, 90, 99} {
		if a.Percentile(p) != whole.Percentile(p) {
			t.Fatalf("merge: p%.0f mismatch: %d vs %d", p, a.Percentile(p), whole.Percentile(p))
		}
	}
	var empty Histogram
	a.Merge(&empty) // merging empty is a no-op
	if a.Count() != whole.Count() {
		t.Fatal("merging empty histogram changed count")
	}
}

func TestHistogramPercentileAccuracy(t *testing.T) {
	// Percentile estimates must be within the bucket relative-error bound
	// (2^-6 ≈ 1.6%) of the exact value for a large uniform sample.
	var h Histogram
	rng := rand.New(rand.NewSource(7))
	var exact []float64
	for i := 0; i < 50000; i++ {
		v := int64(rng.Intn(10_000_000)) + 100
		h.Record(v)
		exact = append(exact, float64(v))
	}
	sort.Float64s(exact)
	for _, p := range []float64{1, 25, 50, 75, 90, 99, 99.9} {
		want := PercentileOf(exact, p)
		got := float64(h.Percentile(p))
		if relErr := math.Abs(got-want) / want; relErr > 0.04 {
			t.Errorf("p%v: got %.0f want %.0f (rel err %.3f)", p, got, want, relErr)
		}
	}
}

func TestCDFAndCCDF(t *testing.T) {
	var h Histogram
	for i := int64(1); i <= 1000; i++ {
		h.Record(i * 100)
	}
	cdf := h.CDF()
	if len(cdf) == 0 {
		t.Fatal("empty CDF")
	}
	// CDF fractions must be non-decreasing, ending at 1.0.
	prev := 0.0
	for _, p := range cdf {
		if p.Fraction < prev {
			t.Fatalf("CDF not monotone at %v", p)
		}
		prev = p.Fraction
	}
	if got := cdf[len(cdf)-1].Fraction; math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("CDF should end at 1.0, got %f", got)
	}
	ccdf := h.CCDF()
	if len(ccdf) == 0 {
		t.Fatal("empty CCDF")
	}
	// CCDF starts at 1.0 and is non-increasing.
	if math.Abs(ccdf[0].Fraction-1.0) > 1e-9 {
		t.Fatalf("CCDF should start at 1.0, got %f", ccdf[0].Fraction)
	}
	prev = 2.0
	for _, p := range ccdf {
		if p.Fraction > prev {
			t.Fatalf("CCDF not non-increasing at %v", p)
		}
		prev = p.Fraction
	}
	var empty Histogram
	if empty.CDF() != nil || empty.CCDF() != nil {
		t.Fatal("empty histogram distributions should be nil")
	}
}

func TestHistogramReset(t *testing.T) {
	var h Histogram
	h.Record(5)
	h.Reset()
	if h.Count() != 0 || h.Sum() != 0 || h.Max() != 0 {
		t.Fatal("reset did not clear histogram")
	}
}

func TestHistogramString(t *testing.T) {
	var h Histogram
	h.Record(10)
	if s := h.String(); !strings.Contains(s, "n=1") {
		t.Fatalf("unexpected String: %q", s)
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Record(-5)
	if h.Min() != 0 || h.Count() != 1 {
		t.Fatal("negative values should clamp to 0")
	}
	h.RecordN(-7, 2)
	if h.Count() != 3 || h.Sum() != 0 {
		t.Fatal("negative RecordN should clamp to 0")
	}
}

func TestSummary(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Fatalf("n = %d", s.N())
	}
	if math.Abs(s.Mean()-5) > 1e-9 {
		t.Fatalf("mean = %f, want 5", s.Mean())
	}
	if math.Abs(s.Variance()-32.0/7.0) > 1e-9 {
		t.Fatalf("variance = %f, want %f", s.Variance(), 32.0/7.0)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min/max = %f/%f", s.Min(), s.Max())
	}
	var empty Summary
	if empty.Mean() != 0 || empty.Variance() != 0 || empty.Stddev() != 0 {
		t.Fatal("empty summary should report zeros")
	}
}

func TestMedianAndPercentileOf(t *testing.T) {
	if m := Median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median odd = %f", m)
	}
	if m := Median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Fatalf("median even = %f", m)
	}
	if m := Median(nil); m != 0 {
		t.Fatalf("median empty = %f", m)
	}
	xs := []float64{5, 3, 1, 4, 2}
	if p := PercentileOf(xs, 50); p != 3 {
		t.Fatalf("p50 = %f", p)
	}
	if p := PercentileOf(xs, 100); p != 5 {
		t.Fatalf("p100 = %f", p)
	}
	if p := PercentileOf(xs, 0); p != 1 {
		t.Fatalf("p0 = %f", p)
	}
	if p := PercentileOf(nil, 50); p != 0 {
		t.Fatalf("empty percentile = %f", p)
	}
	// Input must not be mutated.
	if xs[0] != 5 {
		t.Fatal("PercentileOf mutated its input")
	}
}

func TestMedianDuration(t *testing.T) {
	ds := []time.Duration{3 * time.Millisecond, 1 * time.Millisecond, 2 * time.Millisecond}
	if m := MedianDuration(ds); m != 2*time.Millisecond {
		t.Fatalf("median = %v", m)
	}
	if ds[0] != 3*time.Millisecond {
		t.Fatal("MedianDuration mutated input")
	}
	if m := MedianDuration(nil); m != 0 {
		t.Fatalf("empty = %v", m)
	}
	even := []time.Duration{10, 20, 30, 40}
	if m := MedianDuration(even); m != 25 {
		t.Fatalf("even median = %v", m)
	}
}

func TestTable(t *testing.T) {
	tb := NewTable("Fig X", "config", "p50", "thru")
	tb.AddRow("curp f=3", 7.3, 100)
	tb.AddRow("orig", 13.8*time.Microsecond.Seconds()*1e6, time.Duration(13800))
	out := tb.String()
	for _, want := range []string{"Fig X", "config", "curp f=3", "7.30", "13.8us"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestFormatMicros(t *testing.T) {
	if s := FormatMicros(7300 * time.Nanosecond); s != "7.3us" {
		t.Fatalf("got %q", s)
	}
}

func BenchmarkHistogramRecord(b *testing.B) {
	var h Histogram
	for i := 0; i < b.N; i++ {
		h.Record(int64(i & 0xfffff))
	}
}
