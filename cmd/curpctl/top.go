package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"curp/internal/addrbook"
)

// top is the live per-shard dashboard: it polls every shard's partition
// metrics endpoint (coordinator RPC port + 500, the curpd convention),
// computes throughput and fast-path share from counter deltas between
// refreshes, and redraws a one-line-per-shard table. Reads go through the
// observability plane only — top never touches the data path, so it is
// safe to leave running against a loaded cluster.

// shardSample is one scrape of a shard's partition-level series, summed by
// metric name (the only multi-series family top reads label-blind, heal
// events by kind, wants the sum anyway), plus the label-aware class
// verdict family.
type shardSample struct {
	at      time.Time
	m       map[string]float64
	classes map[string]classVerdicts
	err     error
	// via is the fallback endpoint that answered when the shard's primary
	// dashboard (+500) was unreachable — a follower coordinator replica's
	// endpoint. Its scrape lacks the master-side families (class verdicts),
	// but the mirror-driven partition gauges keep the row alive.
	via string
}

// classVerdicts is one commutativity class's cumulative verdict counters
// from curp_master_class_verdicts_total{class=...,verdict=...}.
type classVerdicts struct {
	spec, sync float64
}

func runTop(book addrbook.Book, shards, coordinators int, timeout, interval time.Duration, iterations int) {
	client := &http.Client{Timeout: timeout}
	prev := make([]shardSample, shards)
	for i := 0; iterations <= 0 || i < iterations; i++ {
		if i > 0 {
			time.Sleep(interval)
		}
		cur := make([]shardSample, shards)
		for s := 0; s < shards; s++ {
			cur[s] = scrapeShard(client, book, s, coordinators)
		}
		render(cur, prev, interval)
		prev = cur
	}
}

// scrapeShard fetches shard s's /metrics and folds it into name→value.
// When the primary dashboard endpoint (+500, the rank-0 coordinator) is
// down — e.g. after a SIGUSR1 leader-kill drill — the follower replicas'
// endpoints (+501+i) are tried in rank order, so the row degrades to the
// mirror-driven partition gauges instead of going dark.
func scrapeShard(client *http.Client, book addrbook.Book, s, coordinators int) shardSample {
	sample := shardSample{at: time.Now()}
	for i, addr := range shardObsAddrs(book, s, coordinators) {
		body, err := fetchMetrics(client, addr)
		if err != nil {
			sample.err = err
			continue
		}
		sample.err = nil
		if i > 0 {
			sample.via = addr
		}
		sample.m = parsePromText(bytes.NewReader(body))
		sample.classes = parseClassVerdicts(bytes.NewReader(body))
		return sample
	}
	return sample
}

// fetchMetrics GETs one endpoint's /metrics body.
func fetchMetrics(client *http.Client, addr string) ([]byte, error) {
	resp, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %d", addr, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// shardObsAddrs lists shard s's observability endpoints in preference
// order: the partition dashboard (the rank-0 coordinator's endpoint), then
// each follower coordinator replica's.
func shardObsAddrs(book addrbook.Book, s, coordinators int) []string {
	addrs := []string{book.Metrics(s, addrbook.Coordinator, 0)}
	for i := 1; i < coordinators; i++ {
		addrs = append(addrs, book.Metrics(s, addrbook.Coordinator, i))
	}
	return addrs
}

// parsePromText reads Prometheus text exposition, summing every series of
// a family into one value per metric name (labels stripped). Histogram
// bucket/sum/count series keep their suffixed names and don't collide with
// the families top reads.
func parsePromText(r io.Reader) map[string]float64 {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		val, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if br := strings.IndexByte(name, '{'); br >= 0 {
			name = name[:br]
		}
		out[name] += val
	}
	return out
}

// parseClassVerdicts reads Prometheus text exposition keeping ONLY the
// curp_master_class_verdicts_total family, split by its class and verdict
// labels — the one family where summing labels away (parsePromText) would
// lose the signal top wants to show.
func parseClassVerdicts(r io.Reader) map[string]classVerdicts {
	out := make(map[string]classVerdicts)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "curp_master_class_verdicts_total{") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		val, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		class := promLabel(line[:sp], "class")
		verdict := promLabel(line[:sp], "verdict")
		if class == "" || verdict == "" {
			continue
		}
		cv := out[class]
		switch verdict {
		case "speculative":
			cv.spec += val
		case "sync":
			cv.sync += val
		}
		out[class] = cv
	}
	return out
}

// buildInfoLine scrapes shard s's observability endpoints for the
// curp_build_info gauge and renders its labels as a human line for
// `curpctl status`, e.g. `build version=dev commit=c8fcb67 go=go1.22.2`.
// Returns "" when no endpoint answers (metrics disabled): status still
// works against a -metrics-less cluster.
func buildInfoLine(book addrbook.Book, s, coordinators int, timeout time.Duration) string {
	client := &http.Client{Timeout: timeout}
	for _, addr := range shardObsAddrs(book, s, coordinators) {
		body, err := fetchMetrics(client, addr)
		if err != nil {
			continue
		}
		sc := bufio.NewScanner(bytes.NewReader(body))
		sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if !strings.HasPrefix(line, "curp_build_info{") {
				continue
			}
			return fmt.Sprintf("build version=%s commit=%s go=%s",
				promLabel(line, "version"), promLabel(line, "commit"), promLabel(line, "go"))
		}
	}
	return ""
}

// promLabel extracts one label's value from a series name's label block.
func promLabel(series, label string) string {
	i := strings.Index(series, label+`="`)
	if i < 0 {
		return ""
	}
	rest := series[i+len(label)+2:]
	end := strings.IndexByte(rest, '"')
	if end < 0 {
		return ""
	}
	return rest[:end]
}

// hotClass names the busiest commutativity class over the refresh interval
// and its speculative (1-RTT) share, e.g. `counter 98%`. Classes are
// compared by verdict-count delta since the previous scrape; plain writes
// are skipped (the other columns already cover them) and an idle interval
// reports "-".
func hotClass(cur, prev shardSample) string {
	if cur.classes == nil || prev.classes == nil {
		return "-"
	}
	best, bestTotal := "", 0.0
	var bestSpec float64
	for class, c := range cur.classes {
		if class == "write" {
			continue
		}
		p := prev.classes[class]
		dSpec, dSync := c.spec-p.spec, c.sync-p.sync
		if dSpec < 0 || dSync < 0 { // master replaced: counters restarted
			continue
		}
		if total := dSpec + dSync; total > bestTotal {
			best, bestTotal, bestSpec = class, total, dSpec
		}
	}
	if best == "" {
		return "-"
	}
	return fmt.Sprintf("%s %.0f%%", best, 100*bestSpec/bestTotal)
}

func render(cur, prev []shardSample, interval time.Duration) {
	var b strings.Builder
	// Clear screen and home the cursor; a dumb terminal just sees the
	// escapes once per refresh.
	b.WriteString("\x1b[2J\x1b[H")
	fmt.Fprintf(&b, "curpctl top — %d shard(s) — %s  (refresh %v, Ctrl-C quits)\n\n",
		len(cur), time.Now().Format("15:04:05"), interval)
	fmt.Fprintf(&b, "%-5s %9s %6s %9s %6s %7s %6s %5s %-14s %s\n",
		"SHARD", "OPS/S", "FAST%", "SYNC-LAG", "EPOCH", "HEAD", "ALIVE", "HEAL", "CLASS", "STATUS")
	var totalRate float64
	for s := range cur {
		c := cur[s]
		if c.err != nil {
			fmt.Fprintf(&b, "%-5d %9s %6s %9s %6s %7s %6s %5s %-14s UNREACHABLE: %v\n",
				s, "-", "-", "-", "-", "-", "-", "-", "-", c.err)
			continue
		}
		rate, fast := shardRates(c, prev[s])
		totalRate += rate
		status := "manual"
		if c.m["curp_partition_self_healing"] > 0 {
			status = "self-healing"
		}
		if c.via != "" {
			status += " (degraded: via " + c.via + ")"
		}
		fmt.Fprintf(&b, "%-5d %9.0f %6s %9.0f %6.0f %7.0f %3.0f/%-2.0f %5.0f %-14s %s\n",
			s, rate, fast,
			c.m["curp_partition_sync_lag_ops"],
			c.m["curp_partition_epoch"],
			c.m["curp_partition_head_lsn"],
			c.m["curp_partition_nodes_alive"], c.m["curp_partition_nodes_total"],
			c.m["curp_heal_events_total"],
			hotClass(c, prev[s]),
			status)
	}
	fmt.Fprintf(&b, "\ntotal %.0f ops/s\n", totalRate)
	os.Stdout.WriteString(b.String())
}

// shardRates derives update throughput and the fast-path share from the
// speculative / conflict-sync counter deltas since the previous scrape.
// The first refresh has no baseline and reports zero.
func shardRates(cur, prev shardSample) (rate float64, fastPct string) {
	fastPct = "-"
	if prev.m == nil || prev.err != nil {
		return 0, fastPct
	}
	dt := cur.at.Sub(prev.at).Seconds()
	if dt <= 0 {
		return 0, fastPct
	}
	dSpec := cur.m["curp_partition_speculative_ops_total"] - prev.m["curp_partition_speculative_ops_total"]
	dConf := cur.m["curp_partition_conflict_syncs_total"] - prev.m["curp_partition_conflict_syncs_total"]
	if dSpec < 0 { // master replaced: counters restarted
		return 0, fastPct
	}
	if dSpec > 0 {
		fastPct = fmt.Sprintf("%.1f", 100*(dSpec-dConf)/dSpec)
	}
	return dSpec / dt, fastPct
}

// topArgs parses `top [interval [iterations]]`.
func topArgs(args []string) (time.Duration, int) {
	interval := time.Second
	iterations := 0
	if len(args) > 1 {
		d, err := time.ParseDuration(args[1])
		exitOn(err)
		interval = d
	}
	if len(args) > 2 {
		n, err := strconv.Atoi(args[2])
		exitOn(err)
		iterations = n
	}
	return interval, iterations
}
