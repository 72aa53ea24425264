package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"

	"curp"
	"curp/internal/metrics"
)

// The traced round decomposes the client's view of an operation with two
// sets of spans: the benchmark's own (one per public call, recorded around
// the call in round.go) and the program's PR 9 spans, which the benchmark
// reads the way an operator would, through Cluster.TraceHandler. A traced
// round is never mixed into end-to-end numbers.

// ledgerStages are the program stages the ledger reports by name; any other
// stage (lock-wait, ctrl-propose) is summed as "other".
var ledgerStages = []string{"master-queue", "apply", "witness-record", "sync-wait", "backup-append"}

// progSpans accumulates the program's spans by trace, deduplicated by span
// ID: every node keeps its last 128 promoted traces, so the collector is
// drained after each block and the same span is seen more than once.
type progSpans map[uint64]map[uint64]metrics.WireSpan

// drain reads every node's promoted traces through the public handler.
func (ps progSpans) drain(cl *curp.Cluster) error {
	rec := httptest.NewRecorder()
	cl.TraceHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/trace", nil))
	if rec.Code != 200 {
		return fmt.Errorf("GET /trace: status %d", rec.Code)
	}
	var dumps []metrics.TraceDump
	if err := json.Unmarshal(rec.Body.Bytes(), &dumps); err != nil {
		return fmt.Errorf("GET /trace: %w", err)
	}
	for _, d := range dumps {
		for _, t := range d.Traces {
			m := ps[t.TraceID]
			if m == nil {
				m = map[uint64]metrics.WireSpan{}
				ps[t.TraceID] = m
			}
			for _, s := range t.Spans {
				m[s.SpanID] = s
			}
		}
	}
	return nil
}

// opLedger is one traced operation's client span split into the self time of
// each program stage and the residual no program span covers. The parts sum
// to total exactly.
type opLedger struct {
	total    int64
	stage    map[string]int64
	residual int64
}

// splitSpan partitions the interval [start,end) of one client span among
// the program spans that overlap it: every instant belongs to the covering
// span that started last (the innermost, since nested spans start later;
// of parallel legs, the one that began last), or to the residual when no
// span covers it.
func splitSpan(start, end int64, spans []metrics.WireSpan) opLedger {
	led := opLedger{total: end - start, stage: map[string]int64{}}
	type iv struct {
		a, b  int64
		stage string
	}
	var ivs []iv
	cuts := []int64{start, end}
	for _, s := range spans {
		a, b := max(s.Start, start), min(s.Start+s.Dur, end)
		if a >= b {
			continue
		}
		ivs = append(ivs, iv{a, b, s.Stage})
		cuts = append(cuts, a, b)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	for i := 0; i+1 < len(cuts); i++ {
		a, b := cuts[i], cuts[i+1]
		if a == b {
			continue
		}
		best := -1
		for k, v := range ivs {
			if v.a <= a && v.b >= b && (best < 0 || v.a > ivs[best].a) {
				best = k
			}
		}
		if best < 0 {
			led.residual += b - a
		} else {
			led.stage[ivs[best].stage] += b - a
		}
	}
	return led
}

// traceLedger is the decomposition of the median traced operation.
type traceLedger struct {
	matched    int                // client spans that had program spans to split
	band       int                // of those, the ones in the median band
	clientUs   float64            // mean client span of the band
	stageUs    map[string]float64 // mean self time per stage, band ops
	otherUs    float64            // stages not in ledgerStages
	residualUs float64
}

// buildLedger matches each program trace to the client span during which its
// first span started (one client, closed loop: client spans do not overlap),
// splits every matched update span (client.put or client.flush; reads and
// transactions are left out so the ledger is that of a write), and averages
// over the median band: the matched operations between the 40th and 60th
// percentile of client span length. Averages add up, medians do not, and the
// band keeps the average within a few percent of the client span p50. With
// prog == nil (no trace endpoint) every update span counts, unsplit.
func buildLedger(client []span, prog progSpans) traceLedger {
	byOp := map[int][]metrics.WireSpan{}
	for _, tr := range prog {
		first := int64(0)
		for _, s := range tr {
			if first == 0 || s.Start < first {
				first = s.Start
			}
		}
		i := sort.Search(len(client), func(i int) bool { return client[i].End > first })
		if i == len(client) || client[i].Start > first {
			continue // warm-up, preload or check traffic
		}
		for _, s := range tr {
			byOp[i] = append(byOp[i], s)
		}
	}
	var leds []opLedger
	for i, c := range client {
		if c.Name != "client.put" && c.Name != "client.flush" {
			continue
		}
		if spans, ok := byOp[i]; ok || prog == nil {
			leds = append(leds, splitSpan(c.Start, c.End, spans))
		}
	}
	sort.Slice(leds, func(i, j int) bool { return leds[i].total < leds[j].total })
	out := traceLedger{matched: len(leds), stageUs: map[string]float64{}}
	band := leds[len(leds)*4/10 : (len(leds)*6+9)/10]
	out.band = len(band)
	if len(band) == 0 {
		return out
	}
	named := map[string]bool{}
	for _, s := range ledgerStages {
		named[s] = true
	}
	n := float64(len(band)) * 1e3
	for _, l := range band {
		out.clientUs += float64(l.total) / n
		out.residualUs += float64(l.residual) / n
		for stage, ns := range l.stage {
			if named[stage] {
				out.stageUs[stage] += float64(ns) / n
			} else {
				out.otherUs += float64(ns) / n
			}
		}
	}
	return out
}

// outDir is where span files go: beside the benchmark's sources when run
// from the repository root, else the working directory.
func outDir() string {
	if st, err := os.Stat("bench"); err == nil && st.IsDir() {
		return filepath.Join("bench", "out")
	}
	return "out"
}

// writeSpans saves the benchmark's own spans of the traced round.
func writeSpans(workload string, spans []span) (string, error) {
	dir := outDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".spans.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(spans); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// tracedResult is what the traced round adds to a roundResult.
type tracedResult struct {
	round  *roundResult
	delta  promDelta
	ledger traceLedger
	traced bool // program spans were available (single-partition workloads)
}

// runTracedRound runs one round with the benchmark's spans on and, on
// single-partition workloads, the client switched to 100% trace sampling.
func runTracedRound(ctx context.Context, p *plan, round int) (*tracedResult, error) {
	tr := &tracedResult{}
	prog := progSpans{}
	var single *curp.Cluster
	hooks := roundHooks{
		recordSpans: true,
		beforeTimed: func(st *stack) (err error) {
			if cl, ok := st.client.(*curp.Client); ok {
				cl.TraceAll()
				single = st.single
			}
			tr.delta.before, err = scrape(st)
			return err
		},
		afterTimed: func(st *stack) (err error) {
			tr.delta.after, err = scrape(st)
			return err
		},
	}
	var drainErr error
	hooks.betweenBlocks = func() {
		if single != nil && drainErr == nil {
			drainErr = prog.drain(single)
		}
	}
	var err error
	if tr.round, err = runRound(ctx, p, round, hooks); err != nil {
		return nil, err
	}
	if drainErr != nil {
		return nil, drainErr
	}
	if single == nil {
		prog = nil
	}
	tr.traced = single != nil
	tr.ledger = buildLedger(tr.round.spans, prog)
	return tr, nil
}
