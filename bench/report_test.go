package main

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"
)

// fakeRound is a synthetic round of workload w in which every latency class
// the workload performs has its own, distinct distribution, and every
// counter its own value: if two metrics come out equal, one is a copy.
func fakeRound(w *workloadSpec) *roundResult {
	r := &roundResult{nOps: 10000, setup: 1234 * time.Millisecond}
	base := map[latClass]int64{classWrite: 40_000, classRead: 11_000, classTxn: 210_000, classConflict: 7_700_000}
	for c := latClass(0); c < numClasses; c++ {
		if !w.performs(c) {
			continue
		}
		for i := 0; i < 2500; i++ {
			r.lat[c] = append(r.lat[c], base[c]+int64(i)*base[c]/1000) // base .. 3.5x base
		}
	}
	for i := 0; i < blocksPerRound; i++ {
		r.blockDur = append(r.blockDur, time.Duration(50+i)*time.Millisecond)
	}
	r.fast, r.synced, r.slow = 9000, 700, 300
	r.mallocs, r.allocBytes, r.retained, r.heapEnd = 1_730_000, 156_000_000, 17_000_000, 120<<20
	r.gcCycles, r.gcCPUFraction, r.cpu = 9, 0.043, 830*time.Millisecond
	return r
}

func TestEndToEndResultHasEveryDeclaredMetricOnce(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		vals := aggregate(endToEnd, []map[string]float64{roundMetrics(w, fakeRound(w))})
		if len(vals) != len(endToEnd) {
			t.Errorf("%s: %d values for %d declared end-to-end metrics", w.Name, len(vals), len(endToEnd))
		}
		res := buildResult(endToEnd, vals, 10000, 0)
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		var back struct {
			Correct   *bool                      `json:"correct"`
			Attempted *int                       `json:"attempted"`
			Failed    *int                       `json:"failed"`
			Metrics   map[string]json.RawMessage `json:"metrics"`
		}
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatal(err)
		}
		if back.Correct == nil || back.Attempted == nil || back.Failed == nil || len(back.Metrics) != len(endToEnd) {
			t.Fatalf("%s: result line %s", w.Name, raw)
		}
		seen := map[string]string{}
		for _, m := range endToEnd {
			v, ok := res.Metrics[m.Name]
			if !ok {
				t.Errorf("%s: %s missing from the result line", w.Name, m.Name)
				continue
			}
			if v.Unit != m.Unit {
				t.Errorf("%s: %s unit %q, declared %q", w.Name, m.Name, v.Unit, m.Unit)
			}
			if v.Value == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", w.Name, m.Name)
			}
			key := fmt.Sprint(v.Value)
			if other, dup := seen[key]; dup {
				t.Errorf("%s: %s and %s are byte-identical (%s): one is an alias of the other", w.Name, m.Name, other, key)
			}
			seen[key] = m.Name
		}
	}
}

// The PR 12 failure: read, transaction and conflict latencies reported on
// workloads that perform none. Here such a metric has no value on those
// workloads (the human table omits it, the driver's line carries 0) and a
// value of its own where the operation exists.
func TestPerLayerRoundMetricsOnlyWhereTheOperationExists(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		vals := map[string]float64{}
		roundLayerMetrics(w, fakeRound(w), 2300, vals)
		seen := map[string]string{}
		for name, v := range vals {
			m := findMetric(perLayer, name)
			if m == nil {
				t.Errorf("%s: %s is not a declared per-layer metric", w.Name, name)
				continue
			}
			if !m.appliesTo(w) {
				t.Errorf("%s: %s emitted on a workload that never performs its operation", w.Name, name)
			}
			key := fmt.Sprint(v)
			if other, dup := seen[key]; dup {
				t.Errorf("%s: %s and %s are byte-identical (%s)", w.Name, name, other, key)
			}
			seen[key] = name
		}
		res := buildResult(perLayer, vals, 1, 0)
		if len(res.Metrics) != len(perLayer) {
			t.Errorf("%s: the driver's line carries %d of %d per-layer metrics", w.Name, len(res.Metrics), len(perLayer))
		}
		for _, m := range perLayer {
			if _, has := vals[m.Name]; !m.appliesTo(w) && (has || res.Metrics[m.Name].Value != 0) {
				t.Errorf("%s: %s must be absent from the table and 0 on the driver's line", w.Name, m.Name)
			}
		}
	}
	only := map[string]string{
		"curp.read_p50_us": "ycsb-a", "curp.read_p99_us": "ycsb-a",
		"curp.txn_p50_us": "shard-txn", "curp.txn_p99_us": "shard-txn",
		"curp.conflict_p50_us": "geo-conflict", "curp.conflict_write_rtts": "geo-conflict",
	}
	for name, home := range only {
		m := findMetric(perLayer, name)
		for i := range workloads {
			if got := m.appliesTo(&workloads[i]); got != (workloads[i].Name == home) {
				t.Errorf("%s applies to %s = %v", name, workloads[i].Name, got)
			}
		}
	}
}

func TestWorsening(t *testing.T) {
	lower := &metricSpec{Better: "lower"}
	higher := &metricSpec{Better: "higher"}
	if got := worsening(lower, 100, 110); !near(got, 0.10) {
		t.Errorf("latency 100 -> 110 worsens by %v", got)
	}
	if got := worsening(higher, 100, 90); !near(got, 0.10) {
		t.Errorf("throughput 100 -> 90 worsens by %v", got)
	}
	if got := worsening(higher, 100, 120); got >= 0 {
		t.Errorf("throughput 100 -> 120 is an improvement, got %v", got)
	}
}
