package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runQuick is the smoke mode: one round at 2% of the ops on every workload,
// checked like a full round. Its numbers are flagged quick and mean nothing.
func runQuick(ctx context.Context, seed int64) error {
	if err := printEnv(nil, seed, 0); err != nil {
		return err
	}
	for i := range workloads {
		w := &workloads[i]
		nOps := opsFor(w, 0, true)
		rs, _, err := timedRounds(ctx, w, seed, nOps, 1)
		if err != nil {
			return err
		}
		vals, samples, _, failed := summarize(w, rs)
		if failed > 0 {
			return fmt.Errorf("%s: %d operations failed", w.Name, failed)
		}
		printTable(os.Stdout, fmt.Sprintf("%s end-to-end (1 round of %d ops)", w.Name, nOps), endToEnd, vals, samples, "quick")
	}
	return nil
}

// runLayersOnly prints the layer loops' table.
func runLayersOnly(ctx context.Context) error {
	if err := printEnv(nil, 0, 0); err != nil {
		return err
	}
	vals, err := runLayers(ctx, layerLoop)
	if err != nil {
		return err
	}
	printTable(os.Stdout, fmt.Sprintf("layer loops (%v each, median of %d windows)", layerLoop, loopWindows), perLayer, vals, nil, "")
	return nil
}

// invoke runs this binary once on a workload and returns the metric values
// of its result line.
func invoke(ctx context.Context, self, workload string, seed int64, seconds float64) (map[string]float64, error) {
	cmd := exec.CommandContext(ctx, self,
		"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w: %s", workload, seed, err, strings.TrimSpace(stderr.String()))
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	if !res.Correct || res.Failed > 0 {
		return nil, fmt.Errorf("%s seed %d: correct=%v failed=%d", workload, seed, res.Correct, res.Failed)
	}
	vals := map[string]float64{}
	for name, v := range res.Metrics {
		vals[name] = v.Value
	}
	return vals, nil
}

// worsening is how much worse b is than a, as a share of a, in the
// direction the metric counts as worse (negative when b is better).
func worsening(m *metricSpec, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// runSelftest is the A/A comparison: two interleaved sets of n invocations
// of this same binary per workload, every invocation on its own seed. The
// benchmark is trustworthy only if two sets of runs of identical code agree
// within the bounds it will later hold changes to: for every end-to-end
// metric the two medians must differ by less than the bound, and each set's
// inter-quartile range (as a share of its median) must stay within it.
func runSelftest(ctx context.Context, seed int64, seconds float64, n int) error {
	if n < 5 {
		return errors.New("-selftest needs -n of at least 5")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := printEnv(nil, seed, 0); err != nil {
		return err
	}
	failures := 0
	for i := range workloads {
		w := &workloads[i]
		sets := [2]map[string][]float64{{}, {}}
		for run := 0; run < 2*n; run++ {
			vals, err := invoke(ctx, self, w.Name, seed+int64(run), seconds)
			if err != nil {
				return err
			}
			for name, v := range vals {
				sets[run%2][name] = append(sets[run%2][name], v)
			}
		}
		fmt.Printf("%s A/A (%d + %d invocations, interleaved)\n", w.Name, n, n)
		fmt.Printf("  %-24s %14s %14s %8s %8s %8s %6s\n", "metric", "median A", "median B", "diff", "iqr A", "iqr B", "bound")
		for j := range endToEnd {
			m := &endToEnd[j]
			a, b := sets[0][m.Name], sets[1][m.Name]
			ma, mb := median(a), median(b)
			diff := math.Max(worsening(m, ma, mb), worsening(m, mb, ma))
			sa, sb := relSpread(a), relSpread(b)
			verdict := ""
			if diff > m.Bound {
				verdict += " MEDIANS DIFFER BY MORE THAN THE BOUND"
			}
			if m.Name != "setup_s" && math.Max(sa, sb) > m.Bound { // set-up is timed three times a run, not thousands
				verdict += " SPREAD WIDER THAN THE BOUND"
			}
			if verdict != "" {
				failures++
			}
			fmt.Printf("  %-24s %14.4f %14.4f %7.2f%% %7.2f%% %7.2f%% %5.0f%%%s\n",
				m.Name, ma, mb, 100*diff, 100*sa, 100*sb, 100*m.Bound, verdict)
		}
	}
	if failures > 0 {
		return fmt.Errorf("selftest: %d metric/workload pairs do not repeat within their bound between two sets of the same code", failures)
	}
	fmt.Println("selftest: every end-to-end metric repeats within its bound between the two sets")
	return nil
}
