// Package events is the cluster's flight recorder: a bounded per-node ring
// journal of typed control-flow transitions — elections, leases, heal
// verdicts and each failover stage, migrations, epoch flips, witness and
// backup replacement, orphaned-transaction resolution, zombie fencing —
// served as JSON at GET /events on every node's observability mux and
// stitched into one cluster timeline by `curpctl events`.
//
// The journal answers the question metrics and traces cannot: "what
// happened to the cluster between 14:02 and 14:03?". Counters (PR 6) show
// that three heals ran; per-request traces (PR 9) show one operation's
// path; the journal shows the heals themselves, in causal order, with the
// trace ID that cross-links each stage to its /trace record.
//
// Causality: every event carries a per-node monotonic sequence number (the
// journal's own order is exact) and a wall-clock timestamp (cross-node
// merges sort by time, then node, then sequence). Events emitted inside a
// traced operation also carry the trace ID, so an incident's events on
// different nodes link to the same distributed trace.
//
// A nil *Journal is fully disabled; every method is a no-op. Recording is
// one short critical section (ring write), safe from any goroutine.
package events

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"curp/internal/metrics"
)

// Event kinds. The heal loop's verdict events additionally use the
// cluster.FailoverKind strings ("master-failover", "witness-replaced",
// "backup-replaced" and their "-failed" variants) verbatim.
const (
	// Control-plane transitions.
	KindElectionWon   = "election-won"   // this replica won a leader election (Term set)
	KindElectionLost  = "election-lost"  // this replica stepped down from leadership
	KindLeaseAcquired = "lease-acquired" // the leader's quorum lease became valid
	KindLeaseLost     = "lease-lost"     // the lease expired or leadership moved

	// Master-failover stages, in causal order (§3.3, §4.6, §4.7).
	KindFailoverDetect  = "failover-detect"        // heartbeat deadline passed; heal begins
	KindFailoverEpoch   = "failover-epoch-reserve" // successor epoch reserved through the quorum
	KindFailoverFence   = "failover-fence"         // backups fenced at the new epoch (zombie defense)
	KindFailoverRestore = "failover-restore"       // successor restored from backups + witness replay
	KindFailoverPromote = "failover-promote"       // new master published through the control plane
	KindFailoverDone    = "failover-recovered"     // heartbeats rewired; partition serving again

	// Live-migration stages.
	KindMigrationFreeze = "migration-freeze" // source froze the moving ranges
	KindMigrationDrain  = "migration-drain"  // unsynced window drained to backups
	KindMigrationExport = "migration-export" // bundle exported to the target
	KindMigrationCommit = "migration-commit" // handoff committed; source dropped the ranges
	KindMigrationAbort  = "migration-abort"  // handoff abandoned; source unfroze

	// Configuration flips observed by coordinator replicas.
	KindEpochFlip         = "epoch-flip"          // partition epoch advanced in the mirror
	KindWitnessListChange = "witness-list-change" // witness configuration version advanced

	// Witness and backup lifecycle.
	KindWitnessFrozen = "witness-frozen" // recovery data taken; instance stopped accepting
	KindBackupFenced  = "backup-fenced"  // epoch raised ahead of appends (deposal fence)

	// State transfers, journaled by the receiver (a recovering master, a
	// backup being seeded): the detail names the job and the source, and at
	// the end the snapshot LSN, chunks, bytes and any resumed-from cursor.
	KindStateTransferStart = "state-transfer-start"
	KindStateTransferDone  = "state-transfer-done"

	// Data-path incidents.
	KindTxnOrphanResolved = "txn-orphan-resolved" // expired 2PC locks settled by the resolver
	KindZombieFenced      = "zombie-fenced"       // deposed master froze itself
	KindWitnessGCLost     = "witness-gc-lost"     // a gc pass lost a witness's reply (once per outage)

	// Watchdog verdicts (Anomaly.Kind carries the specific detector).
	KindAnomaly = "anomaly"
)

// Event is one journal entry. Zero-valued optional fields are omitted from
// the JSON so the common event stays one short line.
type Event struct {
	// Seq is the per-node causal sequence number (monotonic per journal).
	Seq uint64 `json:"seq"`
	// TimeNS is the wall-clock timestamp (UnixNano).
	TimeNS int64 `json:"time_ns"`
	// Node, Role, Shard identify the emitting journal.
	Node  string `json:"node"`
	Role  string `json:"role"`
	Shard int    `json:"shard"`
	// Kind is the transition type (Kind* constants or a FailoverKind name).
	Kind string `json:"kind"`
	// MasterID, Epoch, WitnessListVersion, Term carry the transition's
	// protocol coordinates when meaningful.
	MasterID           uint64 `json:"master_id,omitempty"`
	Epoch              uint64 `json:"epoch,omitempty"`
	WitnessListVersion uint64 `json:"wlv,omitempty"`
	Term               uint64 `json:"term,omitempty"`
	// TraceID cross-links the event to its distributed trace (hex, the
	// /trace?id= form) when one was in scope at the emission site.
	TraceID string `json:"trace_id,omitempty"`
	// OldAddr and NewAddr name the nodes a replacement-style transition
	// swapped.
	OldAddr string `json:"old_addr,omitempty"`
	NewAddr string `json:"new_addr,omitempty"`
	// Detail is free-form context; Err records a failure cause.
	Detail string `json:"detail,omitempty"`
	Err    string `json:"err,omitempty"`
}

// DefaultRingEvents bounds one journal's memory: control-flow transitions
// are rare (a failover emits ~10), so 1024 covers hours of churn.
const DefaultRingEvents = 1024

// Journal is one node's bounded event ring. A nil *Journal is disabled.
type Journal struct {
	node  string
	role  string
	shard atomic.Int64
	seq   atomic.Uint64
	now   func() time.Time // test hook (golden files need a fixed clock)

	mu   sync.Mutex
	ring []Event
	next int
	full bool
}

// NewJournal creates a journal for one node role.
func NewJournal(node, role string) *Journal {
	j := &Journal{node: node, role: role, ring: make([]Event, DefaultRingEvents), now: time.Now}
	j.shard.Store(-1)
	return j
}

// SetShard records the shard index stamped on events (-1 = unknown).
func (j *Journal) SetShard(i int) {
	if j != nil {
		j.shard.Store(int64(i))
	}
}

// SetClock overrides the journal's time source (tests).
func (j *Journal) SetClock(now func() time.Time) {
	if j != nil {
		j.mu.Lock()
		j.now = now
		j.mu.Unlock()
	}
}

// Record stamps ev with the journal's identity, the next sequence number,
// and the current time, then appends it to the ring.
func (j *Journal) Record(ev Event) {
	if j == nil {
		return
	}
	ev.Seq = j.seq.Add(1)
	ev.Node = j.node
	ev.Role = j.role
	ev.Shard = int(j.shard.Load())
	j.mu.Lock()
	ev.TimeNS = j.now().UnixNano()
	j.ring[j.next] = ev
	j.next++
	if j.next == len(j.ring) {
		j.next = 0
		j.full = true
	}
	j.mu.Unlock()
}

// RecordTrace is Record with the event cross-linked to traceID (0 = none).
func (j *Journal) RecordTrace(traceID uint64, ev Event) {
	if j == nil {
		return
	}
	if traceID != 0 {
		ev.TraceID = metrics.FormatTraceID(traceID)
	}
	j.Record(ev)
}

// Dump is the /events JSON document: one node's journal, oldest first.
type Dump struct {
	Node   string  `json:"node"`
	Role   string  `json:"role"`
	Shard  int     `json:"shard"`
	Events []Event `json:"events"`
}

// Dump snapshots the ring, oldest event first.
func (j *Journal) Dump() Dump {
	d := Dump{Events: []Event{}}
	if j == nil {
		return d
	}
	d.Node, d.Role, d.Shard = j.node, j.role, int(j.shard.Load())
	j.mu.Lock()
	if j.full {
		d.Events = append(d.Events, j.ring[j.next:]...)
	}
	d.Events = append(d.Events, j.ring[:j.next]...)
	j.mu.Unlock()
	return d
}

// Handler serves GET /events: the journal as a single Dump document.
// ?after=<seq> returns only events with Seq > after — the curpctl
// `events --follow` incremental poll.
func (j *Journal) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if j == nil {
			http.Error(w, "event journal disabled", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		writeJSON(w, filterDump(j.Dump(), req))
	})
}

// MultiHandler serves /events over several journals — a process co-hosting
// many node roles answers with a JSON array of per-node Dump documents.
// fetch runs per request so failovers swap journals transparently.
func MultiHandler(fetch func() []*Journal) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		dumps := []Dump{}
		for _, j := range fetch() {
			if j == nil {
				continue
			}
			dumps = append(dumps, filterDump(j.Dump(), req))
		}
		writeJSON(w, dumps)
	})
}

// filterDump applies the ?after=<seq> incremental filter.
func filterDump(d Dump, req *http.Request) Dump {
	afterStr := req.URL.Query().Get("after")
	if afterStr == "" {
		return d
	}
	after, err := metrics.ParseTraceID(afterStr) // hex-or-decimal uint64 parser
	if err != nil {
		return d
	}
	kept := d.Events[:0]
	for _, ev := range d.Events {
		if ev.Seq > after {
			kept = append(kept, ev)
		}
	}
	d.Events = kept
	return d
}

func writeJSON(w http.ResponseWriter, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	b = append(b, '\n')
	w.Write(b)
}

// SortEvents orders a cross-node merge causally: wall-clock time first,
// then node and per-node sequence as tie-breakers — within one node the
// sequence order is exact.
func SortEvents(evs []Event) {
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].TimeNS != evs[j].TimeNS {
			return evs[i].TimeNS < evs[j].TimeNS
		}
		if evs[i].Node != evs[j].Node {
			return evs[i].Node < evs[j].Node
		}
		return evs[i].Seq < evs[j].Seq
	})
}

// FlightDirEnv names the opt-in environment variable for flight-recorder
// dumps: when set to a directory, nodes write their journals there on Close
// (and curpd on panic). CI sets it per test job and uploads the directory
// as an artifact when the job fails.
const FlightDirEnv = "CURP_FLIGHT_DIR"

// FlightDir returns the configured flight-recorder directory ("" = dumps
// disabled).
func FlightDir() string { return os.Getenv(FlightDirEnv) }

// WriteFile dumps the journal to dir/curp-flightrec-<node>.json and returns
// the path. The write is atomic enough for post-mortems (one MarshalIndent
// + WriteFile); an empty journal still writes, recording that the node was
// up with nothing to report.
func (j *Journal) WriteFile(dir string) (string, error) {
	if j == nil {
		return "", nil
	}
	d := j.Dump()
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "curp-flightrec-"+sanitizeNode(d.Role+"-"+d.Node)+".json")
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}

// FlightDump best-effort dumps every journal to the FlightDir, silently
// doing nothing when the recorder is not opted in. Call it from Close paths
// and panic handlers; it must never fail the caller.
func FlightDump(journals ...*Journal) {
	dir := FlightDir()
	if dir == "" {
		return
	}
	_ = os.MkdirAll(dir, 0o755)
	for _, j := range journals {
		if j != nil {
			_, _ = j.WriteFile(dir)
		}
	}
}

// sanitizeNode makes a node address filename-safe (TCP addresses carry
// colons; simulated hosts are already clean).
func sanitizeNode(node string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case '/', ':', '\\', '*', '?', '"', '<', '>', '|':
			return '-'
		}
		return r
	}, node)
}
