package events

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixedClock returns a deterministic time source: the Unix epoch of the
// journal's birth plus 1ms per Record call.
func fixedClock() func() time.Time {
	base := time.Unix(1700000000, 0).UTC()
	n := 0
	return func() time.Time {
		n++
		return base.Add(time.Duration(n) * time.Millisecond)
	}
}

// goldenJournal builds the journal every wire-format test reads: a
// deterministic failover-shaped sequence including a trace-linked event.
func goldenJournal() *Journal {
	j := NewJournal("10.0.0.1:7000", "coordinator")
	j.SetShard(2)
	j.SetClock(fixedClock())
	j.Record(Event{Kind: KindFailoverDetect, MasterID: 7, OldAddr: "10.0.0.2:7100",
		Detail: "master silent for 150ms"})
	j.RecordTrace(0xdeadbeef, Event{Kind: KindFailoverPromote, MasterID: 8,
		Epoch: 4, WitnessListVersion: 9, NewAddr: "10.0.0.3:7100"})
	j.Record(Event{Kind: KindAnomaly, Detail: "sync-lag on 10.0.0.3:7100: unsynced window 900 > 8× flush threshold 100"})
	j.Record(Event{Kind: KindLeaseLost, Term: 3, Err: "lease expired"})
	return j
}

// TestHandlerGolden pins the exact /events JSON the CLI and CI smoke
// script parse. Run with -update to rewrite the golden file after an
// intentional format change.
func TestHandlerGolden(t *testing.T) {
	rec := httptest.NewRecorder()
	goldenJournal().Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/events", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /events: HTTP %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q, want application/json", ct)
	}
	golden := filepath.Join("testdata", "events_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, rec.Body.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/events -run TestHandlerGolden -update` to create it)", err)
	}
	if !bytes.Equal(rec.Body.Bytes(), want) {
		t.Errorf("GET /events drifted from the golden file.\ngot:\n%s\nwant:\n%s", rec.Body.Bytes(), want)
	}
}

// TestHandlerAfterFilter covers the ?after=<seq> incremental poll the
// curpctl events --follow loop relies on.
func TestHandlerAfterFilter(t *testing.T) {
	j := goldenJournal()
	rec := httptest.NewRecorder()
	j.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/events?after=2", nil))
	var d Dump
	if err := json.Unmarshal(rec.Body.Bytes(), &d); err != nil {
		t.Fatal(err)
	}
	if len(d.Events) != 2 {
		t.Fatalf("?after=2 returned %d events, want 2", len(d.Events))
	}
	for _, ev := range d.Events {
		if ev.Seq <= 2 {
			t.Errorf("?after=2 returned seq %d", ev.Seq)
		}
	}
	// A malformed after is ignored, not an error: dumps must stay readable.
	rec = httptest.NewRecorder()
	j.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/events?after=bogus", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &d); err != nil {
		t.Fatal(err)
	}
	if len(d.Events) != 4 {
		t.Fatalf("?after=bogus returned %d events, want all 4", len(d.Events))
	}
}

// TestJournalWireFields asserts the JSON key names the CLI, smoke script,
// and dashboards grep for — the wire contract behind the golden file.
func TestJournalWireFields(t *testing.T) {
	d := goldenJournal().Dump()
	if d.Node != "10.0.0.1:7000" || d.Role != "coordinator" || d.Shard != 2 {
		t.Fatalf("dump identity = %q %q %d", d.Node, d.Role, d.Shard)
	}
	ev := d.Events[1]
	if ev.TraceID != "deadbeef" {
		t.Fatalf("TraceID = %q, want the /trace?id= hex form deadbeef", ev.TraceID)
	}
	b, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"seq"`, `"time_ns"`, `"node"`, `"role"`, `"shard"`, `"kind"`,
		`"master_id"`, `"epoch"`, `"wlv"`, `"trace_id"`, `"new_addr"`} {
		if !bytes.Contains(b, []byte(key)) {
			t.Errorf("event JSON lacks %s: %s", key, b)
		}
	}
	// Zero-valued optionals must stay off the wire.
	if bytes.Contains(b, []byte(`"err"`)) || bytes.Contains(b, []byte(`"old_addr"`)) {
		t.Errorf("event JSON carries empty optionals: %s", b)
	}
}

// TestRingWrap: the ring keeps only the newest DefaultRingEvents entries,
// oldest first in the dump.
func TestRingWrap(t *testing.T) {
	j := NewJournal("n", "master")
	total := DefaultRingEvents + 5
	for i := 0; i < total; i++ {
		j.Record(Event{Kind: KindEpochFlip})
	}
	d := j.Dump()
	if len(d.Events) != DefaultRingEvents {
		t.Fatalf("dump has %d events, want ring size %d", len(d.Events), DefaultRingEvents)
	}
	if got := d.Events[0].Seq; got != 6 {
		t.Fatalf("oldest surviving seq = %d, want 6", got)
	}
	if got := d.Events[len(d.Events)-1].Seq; got != uint64(total) {
		t.Fatalf("newest seq = %d, want %d", got, total)
	}
}

// TestNilJournalDisabled: a nil *Journal is the disabled journal —
// every method must be a safe no-op.
func TestNilJournalDisabled(t *testing.T) {
	var j *Journal
	j.Record(Event{Kind: KindEpochFlip})
	j.RecordTrace(1, Event{Kind: KindEpochFlip})
	j.SetShard(3)
	j.SetClock(time.Now)
	if d := j.Dump(); len(d.Events) != 0 {
		t.Fatalf("nil journal dumped %d events", len(d.Events))
	}
	rec := httptest.NewRecorder()
	j.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/events", nil))
	if rec.Code != 404 {
		t.Fatalf("nil journal handler: HTTP %d, want 404", rec.Code)
	}
	if path, err := j.WriteFile(t.TempDir()); err != nil || path != "" {
		t.Fatalf("nil journal WriteFile = %q, %v", path, err)
	}
}

// TestMultiHandler: co-hosting endpoints answer with an array of dumps,
// skipping nil journals, with ?after applied per journal.
func TestMultiHandler(t *testing.T) {
	a := NewJournal("a", "coordinator")
	b := NewJournal("b", "master")
	a.Record(Event{Kind: KindLeaseAcquired})
	b.Record(Event{Kind: KindEpochFlip})
	b.Record(Event{Kind: KindEpochFlip})
	h := MultiHandler(func() []*Journal { return []*Journal{a, nil, b} })
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/events?after=1", nil))
	if !bytes.HasPrefix(bytes.TrimSpace(rec.Body.Bytes()), []byte("[")) {
		t.Fatalf("multi handler did not answer with a JSON array: %s", rec.Body.Bytes())
	}
	var dumps []Dump
	if err := json.Unmarshal(rec.Body.Bytes(), &dumps); err != nil {
		t.Fatal(err)
	}
	if len(dumps) != 2 {
		t.Fatalf("got %d dumps, want 2 (nil journal skipped)", len(dumps))
	}
	if len(dumps[0].Events) != 0 || len(dumps[1].Events) != 1 {
		t.Fatalf("?after=1 filtering: got %d and %d events, want 0 and 1",
			len(dumps[0].Events), len(dumps[1].Events))
	}
}

// TestSortEvents: cross-node merges order by time, then node, then seq.
func TestSortEvents(t *testing.T) {
	evs := []Event{
		{TimeNS: 30, Node: "a", Seq: 3},
		{TimeNS: 10, Node: "b", Seq: 1},
		{TimeNS: 20, Node: "b", Seq: 2},
		{TimeNS: 20, Node: "a", Seq: 2},
		{TimeNS: 20, Node: "a", Seq: 1},
	}
	SortEvents(evs)
	want := []struct {
		t   int64
		n   string
		seq uint64
	}{{10, "b", 1}, {20, "a", 1}, {20, "a", 2}, {20, "b", 2}, {30, "a", 3}}
	for i, w := range want {
		if evs[i].TimeNS != w.t || evs[i].Node != w.n || evs[i].Seq != w.seq {
			t.Fatalf("pos %d = {%d %s %d}, want {%d %s %d}",
				i, evs[i].TimeNS, evs[i].Node, evs[i].Seq, w.t, w.n, w.seq)
		}
	}
}

// TestFlightDump: with CURP_FLIGHT_DIR set, Close paths write one
// parseable dump per journal with a filename safe for TCP addresses;
// without it, nothing is written.
func TestFlightDump(t *testing.T) {
	dir := t.TempDir()
	t.Setenv(FlightDirEnv, dir)
	FlightDump(goldenJournal(), nil, NewJournal("127.0.0.1:7100", "master"))
	names, err := filepath.Glob(filepath.Join(dir, "curp-flightrec-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Fatalf("flight dump wrote %d files, want 2: %v", len(names), names)
	}
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		var d Dump
		if err := json.Unmarshal(b, &d); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}

	t.Setenv(FlightDirEnv, "")
	empty := t.TempDir()
	FlightDump(goldenJournal())
	if names, _ := filepath.Glob(filepath.Join(empty, "*")); len(names) != 0 {
		t.Fatalf("flight dump wrote without opt-in: %v", names)
	}
}
