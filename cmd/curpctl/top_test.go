package main

import (
	"strings"
	"testing"
	"time"
)

func TestParsePromText(t *testing.T) {
	in := strings.Join([]string{
		"# HELP curp_heal_events_total Heal-loop lifecycle events, by kind.",
		"# TYPE curp_heal_events_total counter",
		`curp_heal_events_total{kind="master-failover",node="a"} 2`,
		`curp_heal_events_total{kind="witness-replaced",node="a"} 3`,
		`curp_partition_sync_lag_ops{node="a"} 7`,
		"curp_partition_epoch 1",
		"",
		"not-a-metric-line",
		`curp_master_op_duration_seconds_bucket{op="update",le="+Inf"} 4`,
	}, "\n")
	m := parsePromText(strings.NewReader(in))
	if got := m["curp_heal_events_total"]; got != 5 {
		t.Errorf("heal events summed across kinds = %v, want 5", got)
	}
	if got := m["curp_partition_sync_lag_ops"]; got != 7 {
		t.Errorf("sync lag = %v, want 7", got)
	}
	if got := m["curp_partition_epoch"]; got != 1 {
		t.Errorf("epoch = %v, want 1", got)
	}
	if got := m["curp_master_op_duration_seconds_bucket"]; got != 4 {
		t.Errorf("bucket series keep their suffixed name, got %v", got)
	}
}

func TestShardRates(t *testing.T) {
	t0 := time.Unix(100, 0)
	prev := shardSample{at: t0, m: map[string]float64{
		"curp_partition_speculative_ops_total": 1000,
		"curp_partition_conflict_syncs_total":  10,
	}}
	cur := shardSample{at: t0.Add(2 * time.Second), m: map[string]float64{
		"curp_partition_speculative_ops_total": 1200,
		"curp_partition_conflict_syncs_total":  20,
	}}
	rate, fast := shardRates(cur, prev)
	if rate != 100 {
		t.Errorf("rate = %v, want 100 ops/s", rate)
	}
	if fast != "95.0" {
		t.Errorf("fast%% = %q, want 95.0", fast)
	}

	// No baseline on the first refresh.
	if rate, fast := shardRates(cur, shardSample{}); rate != 0 || fast != "-" {
		t.Errorf("first refresh = (%v, %q), want (0, -)", rate, fast)
	}

	// Counter went backwards: the master was replaced and its counters
	// restarted — report idle rather than a huge negative rate.
	restarted := shardSample{at: t0.Add(4 * time.Second), m: map[string]float64{
		"curp_partition_speculative_ops_total": 5,
	}}
	if rate, _ := shardRates(restarted, cur); rate != 0 {
		t.Errorf("restarted counters rate = %v, want 0", rate)
	}
}
