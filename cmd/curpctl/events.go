package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"curp/internal/addrbook"
	"curp/internal/events"
)

// events is the flight-recorder half of the observability plane:
// `curpctl events` fetches every node's /events journal, merges the
// per-node rings into one causally ordered cluster timeline, and prints
// it — the first thing to read in a post-mortem, before drilling into a
// stage's trace ID with `curpctl trace` and the metrics with `top`.
// `curpctl events --follow` keeps polling and prints transitions as they
// happen (the journals' ?after=<seq> incremental filter keeps the polls
// cheap). Like top and trace it reads only the observability endpoints
// and never touches the data path.

// runEvents implements `events [--follow [interval]]`.
func runEvents(book addrbook.Book, shards, coordinators, f int, timeout time.Duration, args []string) {
	eps := obsEndpoints(book, shards, coordinators, f)
	client := &http.Client{Timeout: timeout}

	follow := false
	interval := time.Second
	if len(args) > 1 {
		if args[1] != "--follow" && args[1] != "follow" {
			fmt.Fprintf(os.Stderr, "events: unknown argument %q (want --follow)\n", args[1])
			os.Exit(2)
		}
		follow = true
		if len(args) > 2 {
			d, err := time.ParseDuration(args[2])
			exitOn(err)
			interval = d
		}
	}

	cursors := make(map[string]uint64) // role|node -> highest Seq printed
	epAfter := make(map[string]uint64) // endpoint -> ?after watermark
	merged, reached := gatherEvents(client, eps, epAfter, cursors)
	if reached == 0 {
		fmt.Fprintln(os.Stderr, "error: no /events endpoint reachable (is the cluster up with -metrics?)")
		os.Exit(1)
	}
	if len(merged) == 0 && !follow {
		fmt.Printf("no events on %d reachable endpoint(s) — no control-flow transitions recorded yet\n", reached)
		return
	}
	printEventHeader()
	for _, ev := range merged {
		printEvent(ev)
	}
	if !follow {
		fmt.Printf("\n%d event(s) from %d endpoint(s); cross-link a TRACE id with `curpctl trace <id>`\n",
			len(merged), reached)
		return
	}
	for {
		time.Sleep(interval)
		fresh, _ := gatherEvents(client, eps, epAfter, cursors)
		for _, ev := range fresh {
			printEvent(ev)
		}
	}
}

// gatherEvents fetches every endpoint's journal dumps, keeps only events
// newer than each node's cursor (the dashboard double-serves the master
// and coordinator journals, so per-node dedup is required), advances the
// cursors and per-endpoint ?after watermarks, and returns the new events
// causally ordered.
func gatherEvents(client *http.Client, eps []string, epAfter, cursors map[string]uint64) ([]events.Event, int) {
	var merged []events.Event
	reached := 0
	for _, ep := range eps {
		dumps, err := fetchEventDumps(client, ep, epAfter[ep])
		if err != nil {
			continue // down spare / unreachable node: best-effort stitch
		}
		reached++
		// The next poll can skip everything every node on this endpoint has
		// already shown us (?after is per-request, so use the minimum).
		watermark := uint64(0)
		for i, d := range dumps {
			key := d.Role + "|" + d.Node
			last := cursors[key]
			for _, ev := range d.Events {
				if ev.Seq > last {
					merged = append(merged, ev)
					last = ev.Seq
				}
			}
			cursors[key] = last
			if i == 0 || last < watermark {
				watermark = last
			}
		}
		epAfter[ep] = watermark
	}
	events.SortEvents(merged)
	return merged, reached
}

// fetchEventDumps GETs one endpoint's /events (optionally ?after=) and
// decodes either JSON shape: curpd's endpoints answer with an array of
// Dump documents (one per node behind the endpoint), a bare
// events.Journal.Handler with a single object.
func fetchEventDumps(client *http.Client, endpoint string, after uint64) ([]events.Dump, error) {
	url := "http://" + endpoint + "/events"
	if after > 0 {
		url += "?after=" + strconv.FormatUint(after, 10)
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
		var dumps []events.Dump
		if err := json.Unmarshal(body, &dumps); err != nil {
			return nil, fmt.Errorf("%s: %v", endpoint, err)
		}
		return dumps, nil
	}
	var d events.Dump
	if err := json.Unmarshal(body, &d); err != nil {
		return nil, fmt.Errorf("%s: %v", endpoint, err)
	}
	return []events.Dump{d}, nil
}

func printEventHeader() {
	fmt.Printf("%-12s %-5s %-30s %-22s %-17s %s\n",
		"TIME", "SHARD", "NODE", "KIND", "TRACE", "WHAT")
}

// printEvent renders one journal entry as a single timeline line.
func printEvent(ev events.Event) {
	shard := "-"
	if ev.Shard >= 0 {
		shard = strconv.Itoa(ev.Shard)
	}
	trace := "-"
	if ev.TraceID != "" {
		trace = ev.TraceID
	}
	var parts []string
	if ev.MasterID != 0 {
		parts = append(parts, fmt.Sprintf("master=%d", ev.MasterID))
	}
	if ev.Epoch != 0 {
		parts = append(parts, fmt.Sprintf("epoch=%d", ev.Epoch))
	}
	if ev.WitnessListVersion != 0 {
		parts = append(parts, fmt.Sprintf("wlv=%d", ev.WitnessListVersion))
	}
	if ev.Term != 0 {
		parts = append(parts, fmt.Sprintf("term=%d", ev.Term))
	}
	switch {
	case ev.OldAddr != "" && ev.NewAddr != "":
		parts = append(parts, ev.OldAddr+" -> "+ev.NewAddr)
	case ev.OldAddr != "":
		parts = append(parts, "old="+ev.OldAddr)
	case ev.NewAddr != "":
		parts = append(parts, "new="+ev.NewAddr)
	}
	if ev.Detail != "" {
		parts = append(parts, ev.Detail)
	}
	if ev.Err != "" {
		parts = append(parts, "err: "+ev.Err)
	}
	fmt.Printf("%-12s %-5s %-30s %-22s %-17s %s\n",
		time.Unix(0, ev.TimeNS).Format("15:04:05.000"),
		shard,
		ev.Role+" "+ev.Node,
		ev.Kind,
		trace,
		strings.Join(parts, " "))
}

// runHotkeys implements `hotkeys`: fetch each shard's /hotkeys sketch from
// the partition dashboard (falling back to the failover-stable master
// endpoint) and print the hottest key hashes with their count and
// overestimation-error bounds.
func runHotkeys(book addrbook.Book, shards int, timeout time.Duration) {
	client := &http.Client{Timeout: timeout}
	reached := 0
	for s := 0; s < shards; s++ {
		var dumps []events.HotKeyDump
		var lastErr error
		for _, ep := range []string{book.Metrics(s, addrbook.Coordinator, 0), book.Metrics(s, addrbook.Master, 0)} {
			got, err := fetchHotKeyDumps(client, ep)
			if err != nil {
				lastErr = err
				continue
			}
			dumps = got
			break
		}
		if dumps == nil {
			fmt.Printf("shard %d: UNREACHABLE: %v\n", s, lastErr)
			continue
		}
		reached++
		for _, d := range dumps {
			fmt.Printf("shard %d — master %s — %d observation(s)\n", s, d.Node, d.Total)
			if len(d.Keys) == 0 {
				fmt.Println("  (no key accesses recorded yet)")
				continue
			}
			fmt.Printf("  %-18s %10s %8s %7s\n", "KEY-HASH", "COUNT", "ERR", "SHARE")
			for _, k := range d.Keys {
				share := "-"
				if d.Total > 0 {
					share = fmt.Sprintf("%.1f%%", 100*float64(k.Count)/float64(d.Total))
				}
				fmt.Printf("  %018x %10d %8d %7s\n", k.Hash, k.Count, k.Err, share)
			}
		}
	}
	if reached == 0 {
		fmt.Fprintln(os.Stderr, "error: no /hotkeys endpoint reachable (is the cluster up with -metrics?)")
		os.Exit(1)
	}
}

// fetchHotKeyDumps GETs one endpoint's /hotkeys and decodes either JSON
// shape (one HotKeyDump, or an array from aggregating endpoints).
func fetchHotKeyDumps(client *http.Client, endpoint string) ([]events.HotKeyDump, error) {
	resp, err := client.Get("http://" + endpoint + "/hotkeys")
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
		var dumps []events.HotKeyDump
		if err := json.Unmarshal(body, &dumps); err != nil {
			return nil, fmt.Errorf("%s: %v", endpoint, err)
		}
		return dumps, nil
	}
	var d events.HotKeyDump
	if err := json.Unmarshal(body, &d); err != nil {
		return nil, fmt.Errorf("%s: %v", endpoint, err)
	}
	return []events.HotKeyDump{d}, nil
}
