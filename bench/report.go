package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// roundMetrics derives the end-to-end metric values of one round. Only
// metrics whose operation the round performed appear.
func roundMetrics(w *workloadSpec, r *roundResult) map[string]float64 {
	m := map[string]float64{
		"setup_s":   r.setup.Seconds(),
		"ops_per_s": blockMedianRate(r.blockDur, r.nOps/blocksPerRound),
	}
	writes := nsToUs(r.lat[classWrite])
	m["write_p50_us"] = percentile(writes, 50)
	if upd := r.fast + r.synced + r.slow; upd > 0 {
		m["fastpath_ratio"] = float64(r.fast) / float64(upd)
	}
	ops := float64(r.nOps)
	m["allocs_per_op"] = float64(r.mallocs) / ops
	m["alloc_b_per_op"] = float64(r.allocBytes) / ops
	m["heap_retained_b_per_op"] = float64(r.retained) / ops
	return m
}

// aggregate folds per-round values into the invocation's value: median of
// rounds for timing metrics, mean of rounds for counts.
func aggregate(specs []metricSpec, perRound []map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for _, s := range specs {
		var xs []float64
		for _, m := range perRound {
			if v, ok := m[s.Name]; ok {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			continue
		}
		if s.Timing {
			out[s.Name] = median(xs)
		} else {
			out[s.Name] = mean(xs)
		}
	}
	return out
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output, the one the driver reads.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildResult fills the result line with every declared metric of specs:
// the driver wants each of them on every workload, so a metric whose
// operation this workload never performs is carried as 0 (see README.md,
// "not performed").
func buildResult(specs []metricSpec, vals map[string]float64, attempted, failed int) resultLine {
	res := resultLine{Correct: true, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, s := range specs {
		res.Metrics[s.Name] = metricValue{Value: vals[s.Name], Unit: s.Unit}
	}
	return res
}

// printTable writes the human-readable metric table: name, value, unit,
// direction, bound (end-to-end only) and the number of samples behind it.
func printTable(w io.Writer, title string, specs []metricSpec, vals map[string]float64, samples map[string]int, flag string) {
	fmt.Fprintf(w, "%s\n", title)
	names := make([]string, 0, len(vals))
	for _, s := range specs {
		if _, ok := vals[s.Name]; ok {
			names = append(names, s.Name)
		}
	}
	width := 0
	for _, n := range names {
		width = max(width, len(n))
	}
	for _, n := range names {
		s := findMetric(specs, n)
		line := fmt.Sprintf("  %-*s %14.4f %-6s better=%-6s", width, n, vals[n], s.Unit, s.Better)
		if s.Bound > 0 {
			line += fmt.Sprintf(" bound=%.2f", s.Bound)
		}
		if k, ok := samples[n]; ok {
			line += fmt.Sprintf(" n=%d", k)
		}
		if flag != "" {
			line += " " + flag
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
}

// emit prints the result line. It is the only thing on the last line of
// standard output.
func emit(res resultLine) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(os.Stdout, string(b))
	return err
}

// timedRounds runs the invocation's rounds of workload w and returns the
// per-round results and the host speed read before each. A round that fails
// its correctness check aborts the invocation: no metric is printed for
// results that are wrong.
func timedRounds(ctx context.Context, w *workloadSpec, seed int64, nOps, nRounds int) ([]*roundResult, []float64, error) {
	var (
		out   []*roundResult
		spins []float64
	)
	for round := 0; round < nRounds; round++ {
		p := newPlan(w, seed, round, nOps)
		spins = append(spins, spinMs())
		r, err := runRound(ctx, p, round, roundHooks{})
		if err != nil {
			return nil, nil, fmt.Errorf("%s round %d: %w", w.Name, round, err)
		}
		out = append(out, r)
	}
	return out, spins, nil
}
