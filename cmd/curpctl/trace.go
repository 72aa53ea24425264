package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"curp/internal/addrbook"
	"curp/internal/metrics"
)

// trace is the distributed-tracing half of the observability plane:
// `curpctl trace` lists every promoted trace the cluster still holds, and
// `curpctl trace <id>` stitches that trace's spans — fetched from every
// node's /trace endpoint — into one causal tree and renders a waterfall
// with per-stage latency attribution. Like top, it reads only the
// observability endpoints (curpd's RPC-port+500 convention) and never
// touches the data path.

// obsEndpoints lists every node's observability endpoint (/trace, /events)
// under the curpd port layout: per shard the dashboard (coordinator + live
// master), the failover-stable master endpoint, the coordinator follower
// replicas, the backups and witnesses, and the self-healing spare slots.
// Spares that were never promoted simply refuse the connection and are
// skipped.
func obsEndpoints(book addrbook.Book, shards, coordinators, f int) []string {
	var eps []string
	for s := 0; s < shards; s++ {
		eps = append(eps, book.Metrics(s, addrbook.Coordinator, 0), book.Metrics(s, addrbook.Master, 0))
		for i := 1; i < coordinators; i++ {
			eps = append(eps, book.Metrics(s, addrbook.Coordinator, i))
		}
		for i := 0; i < f; i++ {
			eps = append(eps,
				book.Metrics(s, addrbook.Backup, i), book.Metrics(s, addrbook.Witness, i),
				book.Metrics(s, addrbook.Spare, i), book.Metrics(s, addrbook.SpareWitness, i))
		}
	}
	return eps
}

// fetchDumps GETs one endpoint's /trace (optionally ?id=) and decodes
// either JSON shape: curpd's endpoints answer with an array of TraceDump
// documents (one per node behind the endpoint), a bare
// metrics.Collector.TraceHandler with a single object.
func fetchDumps(client *http.Client, endpoint, id string) ([]metrics.TraceDump, error) {
	url := "http://" + endpoint + "/trace"
	if id != "" {
		url += "?id=" + id
	}
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %d", endpoint, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	trimmed := strings.TrimSpace(string(body))
	if strings.HasPrefix(trimmed, "[") {
		var dumps []metrics.TraceDump
		if err := json.Unmarshal(body, &dumps); err != nil {
			return nil, fmt.Errorf("%s: %v", endpoint, err)
		}
		return dumps, nil
	}
	var d metrics.TraceDump
	if err := json.Unmarshal(body, &d); err != nil {
		return nil, fmt.Errorf("%s: %v", endpoint, err)
	}
	return []metrics.TraceDump{d}, nil
}

// runTrace implements `trace [id]`. extra lists additional /trace
// endpoints beyond the port convention — e.g. an embedded process or a
// benchmark client exposing its client-side collector.
func runTrace(book addrbook.Book, shards, coordinators, f int, timeout time.Duration, extra []string, args []string) {
	eps := append(obsEndpoints(book, shards, coordinators, f), extra...)
	client := &http.Client{Timeout: timeout}
	if len(args) < 2 {
		listTraces(client, eps)
		return
	}
	id, err := metrics.ParseTraceID(args[1])
	exitOn(err)
	showTrace(client, eps, id)
}

// gatherSpans fetches id's spans from every endpoint and dedupes them:
// the dashboard re-serves the master's collector, so the same span record
// arrives via several URLs.
func gatherSpans(client *http.Client, eps []string, id string) []metrics.WireSpan {
	seen := make(map[uint64]bool)
	var spans []metrics.WireSpan
	for _, ep := range eps {
		dumps, err := fetchDumps(client, ep, id)
		if err != nil {
			continue // down spare / unreachable node: best-effort stitch
		}
		for _, d := range dumps {
			for _, t := range d.Traces {
				for _, s := range t.Spans {
					if !seen[s.SpanID] {
						seen[s.SpanID] = true
						spans = append(spans, s)
					}
				}
			}
		}
	}
	return spans
}

// traceRow is one promoted trace aggregated across every node that holds
// part of it, for the list view.
type traceRow struct {
	id         uint64
	spans      int
	start, end int64 // unix ns
	roles      map[string]bool
	verdict    string
	errText    string
}

func listTraces(client *http.Client, eps []string) {
	rows := make(map[uint64]*traceRow)
	seenSpan := make(map[uint64]bool)
	seenNode := make(map[string]bool) // node+role answered already (dashboard double-serves)
	reached := 0
	for _, ep := range eps {
		dumps, err := fetchDumps(client, ep, "")
		if err != nil {
			continue
		}
		reached++
		for _, d := range dumps {
			key := d.Role + "|" + d.Node
			if seenNode[key] {
				continue
			}
			seenNode[key] = true
			for _, t := range d.Traces {
				r := rows[t.TraceID]
				if r == nil {
					r = &traceRow{id: t.TraceID, roles: make(map[string]bool)}
					rows[t.TraceID] = r
				}
				for _, s := range t.Spans {
					if seenSpan[s.SpanID] {
						continue
					}
					seenSpan[s.SpanID] = true
					r.spans++
					r.roles[s.Role] = true
					if r.start == 0 || s.Start < r.start {
						r.start = s.Start
					}
					if e := s.Start + s.Dur; e > r.end {
						r.end = e
					}
					if r.verdict == "" && metrics.InterestingVerdict(s.Verdict) {
						r.verdict = s.Verdict
					}
					if r.errText == "" && s.Err != "" {
						r.errText = s.Err
					}
				}
			}
		}
	}
	if reached == 0 {
		fmt.Fprintln(os.Stderr, "error: no /trace endpoint reachable (is the cluster up with -metrics?)")
		os.Exit(1)
	}
	if len(rows) == 0 {
		fmt.Printf("no promoted traces on %d reachable endpoint(s) — every op stayed on the happy path\n", reached)
		fmt.Println("(promotion needs a slow span past -trace-threshold, an error, or a fast-path eviction)")
		return
	}
	sorted := make([]*traceRow, 0, len(rows))
	for _, r := range rows {
		sorted = append(sorted, r)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].start > sorted[j].start })
	fmt.Printf("%-17s %-12s %9s %6s  %-31s %s\n", "TRACE", "START", "WALL", "SPANS", "ROLES", "WHY-KEPT")
	for _, r := range sorted {
		why := r.verdict
		if why == "" && r.errText != "" {
			why = "error: " + r.errText
		}
		if why == "" {
			why = "slow"
		}
		fmt.Printf("%-17s %-12s %9s %6d  %-31s %s\n",
			metrics.FormatTraceID(r.id),
			time.Unix(0, r.start).Format("15:04:05.000"),
			fmtDur(time.Duration(r.end-r.start)),
			r.spans,
			strings.Join(sortedKeys(r.roles), ","),
			why)
	}
	fmt.Printf("\n%d trace(s) from %d endpoint(s); `curpctl trace <id>` renders the waterfall\n", len(sorted), reached)
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// showTrace stitches one trace's spans into a causal tree and prints the
// waterfall plus the per-stage attribution that answers "where did the
// latency go, and what evicted this op from the 1-RTT path?".
func showTrace(client *http.Client, eps []string, id uint64) {
	spans := gatherSpans(client, eps, metrics.FormatTraceID(id))
	if len(spans) == 0 {
		fmt.Fprintf(os.Stderr, "trace %s: no spans found (ring wrapped, or wrong -shards/-f layout?)\n", metrics.FormatTraceID(id))
		os.Exit(1)
	}
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].SpanID < spans[j].SpanID
	})

	byID := make(map[uint64]bool, len(spans))
	for _, s := range spans {
		byID[s.SpanID] = true
	}
	children := make(map[uint64][]metrics.WireSpan)
	var roots []metrics.WireSpan
	for _, s := range spans {
		if s.Parent != 0 && byID[s.Parent] {
			children[s.Parent] = append(children[s.Parent], s)
		} else {
			// True root, or an orphan whose parent span fell out of every
			// ring — render it top-level rather than dropping it.
			roots = append(roots, s)
		}
	}

	start, end := spans[0].Start, spans[0].Start
	roles := make(map[string]bool)
	nodes := make(map[string]bool)
	for _, s := range spans {
		if s.Start < start {
			start = s.Start
		}
		if e := s.Start + s.Dur; e > end {
			end = e
		}
		roles[s.Role] = true
		nodes[s.Node] = true
	}
	wall := end - start
	if wall <= 0 {
		wall = 1
	}

	fmt.Printf("trace %s — %s wall, %d spans, %d nodes (%s)\n",
		metrics.FormatTraceID(id), fmtDur(time.Duration(wall)), len(spans), len(nodes),
		strings.Join(sortedKeys(roles), ", "))
	printVerdictLine(spans)
	fmt.Println()
	fmt.Printf("%9s %9s  %-32s %s\n", "OFFSET", "DUR", "WATERFALL", "SPAN")
	for _, r := range roots {
		printSpanTree(r, children, start, wall, 0)
	}
	printAttribution(spans, wall)
}

// printVerdictLine names the span that evicted the op from the fast path
// (the reason the trace was promoted), or the error if that came first.
func printVerdictLine(spans []metrics.WireSpan) {
	for _, s := range spans {
		if metrics.InterestingVerdict(s.Verdict) {
			op := s.Op
			if op == "" {
				op = "-"
			}
			fmt.Printf("verdict: %s (stage %s, op %s, %s %s)\n", s.Verdict, s.Stage, op, s.Role, s.Node)
			return
		}
	}
	for _, s := range spans {
		if s.Err != "" {
			fmt.Printf("error: %s (stage %s, %s %s)\n", s.Err, s.Stage, s.Role, s.Node)
			return
		}
	}
	fmt.Println("verdict: fast path (promoted by latency threshold or forced sampling)")
}

const barWidth = 30

func printSpanTree(s metrics.WireSpan, children map[uint64][]metrics.WireSpan, traceStart, wall int64, depth int) {
	off := s.Start - traceStart
	lo := int(off * barWidth / wall)
	hi := int((off + s.Dur) * barWidth / wall)
	if lo >= barWidth {
		lo = barWidth - 1
	}
	if hi <= lo {
		hi = lo + 1
	}
	if hi > barWidth {
		hi = barWidth
	}
	bar := strings.Repeat(" ", lo) + strings.Repeat("█", hi-lo) + strings.Repeat(" ", barWidth-hi)

	var notes []string
	if s.Op != "" {
		notes = append(notes, "op="+s.Op)
	}
	if s.Verdict != "" {
		notes = append(notes, "verdict="+s.Verdict)
	}
	if s.Err != "" {
		notes = append(notes, "err="+s.Err)
	}
	desc := fmt.Sprintf("%s%s  %s %s", strings.Repeat("  ", depth), s.Stage, s.Role, s.Node)
	if len(notes) > 0 {
		desc += "  " + strings.Join(notes, " ")
	}
	fmt.Printf("%9s %9s  [%s] %s\n", fmtDur(time.Duration(off)), fmtDur(time.Duration(s.Dur)), bar, desc)
	for _, c := range children[s.SpanID] {
		printSpanTree(c, children, traceStart, wall, depth+1)
	}
}

// printAttribution sums per-stage time across the tree. Stages overlap by
// design (sync-wait contains backup-append; client-flush contains
// everything), so shares are of wall-clock per stage, not a partition.
func printAttribution(spans []metrics.WireSpan, wall int64) {
	totals := make(map[string]int64)
	counts := make(map[string]int)
	for _, s := range spans {
		totals[s.Stage] += s.Dur
		counts[s.Stage]++
	}
	stages := make([]string, 0, len(totals))
	for st := range totals {
		stages = append(stages, st)
	}
	sort.Slice(stages, func(i, j int) bool { return totals[stages[i]] > totals[stages[j]] })
	fmt.Println("\nstage attribution (overlapping; % of wall):")
	for _, st := range stages {
		fmt.Printf("  %-16s %9s  %3d%%  (%d span%s)\n",
			st, fmtDur(time.Duration(totals[st])), 100*totals[st]/wall, counts[st], plural(counts[st]))
	}
}

func plural(n int) string {
	if n == 1 {
		return ""
	}
	return "s"
}

// fmtDur rounds a duration to a readable precision for table columns.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	case d >= 10*time.Microsecond:
		return d.Round(time.Microsecond).String()
	}
	return d.String()
}
