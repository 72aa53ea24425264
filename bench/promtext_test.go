package main

import (
	"os"
	"strings"
	"testing"
)

const golden = "../internal/metrics/testdata/exposition.golden"

// The parser reads what internal/metrics writes: its golden exposition.
func TestParsePromGolden(t *testing.T) {
	f, err := os.Open(golden)
	if err != nil {
		t.Skipf("golden exposition not present: %v", err)
	}
	defer f.Close()
	snap, err := parseProm(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		match []string
		want  float64
	}{
		{"curp_test_cb_total", nil, 99},
		{"curp_test_fraction", nil, 0.625},
		{"curp_test_ops_total", nil, 50}, // summed over path=fast|slow
		{"curp_test_ops_total", []string{"path", "slow"}, 7},
		{"curp_test_escaped_total", []string{"weird", "a\\b\"c\nd"}, 3},
		{"curp_test_latency_seconds_count", []string{"op", "update"}, 5},
		{"curp_test_latency_seconds_bucket", []string{"op", "update", "le", "0.0001"}, 2},
		{"curp_test_latency_seconds_bucket", []string{"le", "+Inf"}, 5},
		{"curp_test_batch_entries_sum", nil, 504},
		{"curp_test_window_ops", nil, 10},
		{"curp_test_missing", nil, 0},
	} {
		if got := snap.sum(c.name, c.match...); !near(got, c.want) {
			t.Errorf("sum(%s %v) = %v, want %v", c.name, c.match, got, c.want)
		}
	}
}

func TestPromDelta(t *testing.T) {
	parse := func(text string) promSnapshot {
		snap, err := parseProm(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	d := promDelta{
		before: parse(`# HELP x_total help
x_total{node="a"} 10
x_total{node="b"} 5
h_seconds_sum{node="a"} 1.5
h_seconds_count{node="a"} 3
`),
		after: parse(`x_total{node="a"} 14
x_total{node="b"} 6
h_seconds_sum{node="a"} 2.5
h_seconds_count{node="a"} 7
`),
	}
	if got := d.counter("x_total"); got != 5 {
		t.Errorf("counter delta over nodes = %v, want 5", got)
	}
	if got := d.counter("x_total", "node", "b"); got != 1 {
		t.Errorf("counter delta of node b = %v, want 1", got)
	}
	if got := d.histMean("h_seconds"); !near(got, 0.25) {
		t.Errorf("histMean = %v, want (2.5-1.5)/(7-3)", got)
	}
	if got := d.histMean("absent_seconds"); got != 0 {
		t.Errorf("histMean of an absent family = %v, want 0", got)
	}
	if _, err := parseProm(strings.NewReader("broken{a=\"1\" 3\n")); err == nil {
		t.Error("malformed line accepted")
	}
}
