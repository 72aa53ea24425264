// Package rifl implements RIFL-style exactly-once RPC semantics
// (Lee et al., "Implementing linearizability at large scale and low
// latency", SOSP '15), which CURP relies on to filter duplicate executions
// when client requests recorded in witnesses are replayed after a master
// crash (paper §3.3).
//
// Clients assign each state-mutating RPC a unique ID (client ID + sequence
// number). Servers keep a durable completion record per executed RPC and use
// it to detect retries, returning the saved result instead of re-executing.
// Completion records are garbage collected two ways: clients piggyback an
// acknowledgment ("all my RPCs below seq S are done") on later requests, and
// a central lease server expires the records of crashed clients.
//
// CURP requires two modifications (paper §4.8), both implemented here:
//
//  1. During witness replay, requests arrive in arbitrary order, so
//     piggybacked acknowledgments must be ignored (an ack carried by a later
//     request must not suppress the replay of an earlier one). See
//     Tracker.SetRecoveryMode.
//  2. A master must sync all operations to backups before honoring a client
//     lease expiration, so replays of the expired client's requests are not
//     silently dropped. The Tracker surfaces this ordering through
//     ExpireLease, which the caller invokes only after a sync.
package rifl

import (
	"fmt"
	"sync"
)

// ClientID uniquely identifies a client within a cluster. IDs are issued by
// the lease server.
type ClientID uint64

// Seq is a client-local, monotonically increasing RPC sequence number.
type Seq uint64

// RPCID uniquely identifies an RPC across the cluster.
type RPCID struct {
	Client ClientID
	Seq    Seq
}

// String formats the ID as "client.seq".
func (id RPCID) String() string { return fmt.Sprintf("%d.%d", id.Client, id.Seq) }

// IsZero reports whether the ID is unset.
func (id RPCID) IsZero() bool { return id.Client == 0 && id.Seq == 0 }

// Outcome is the disposition of an incoming RPC according to the
// completion-record table.
type Outcome int

const (
	// New: the RPC has not been seen; execute it and call Record.
	New Outcome = iota
	// Completed: the RPC already executed; return the saved result.
	Completed
	// Stale: the RPC's result was already acknowledged by the client and
	// its completion record discarded. The request must be ignored without
	// a result (the client cannot be waiting on it) — unless it arrives
	// during witness replay, in which case the tracker is in recovery mode
	// and Stale is never produced for un-acked records (acks are ignored).
	Stale
	// Expired: the client's lease expired and all its records were dropped;
	// the request must be ignored.
	Expired
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case New:
		return "new"
	case Completed:
		return "completed"
	case Stale:
		return "stale"
	case Expired:
		return "expired"
	}
	return fmt.Sprintf("outcome(%d)", int(o))
}

// Completion is one durable completion record. KeyHashes, when present,
// carries the commutativity footprint of the recorded operation; it lets a
// shard migration export exactly the completion records whose operations
// touched a moving key range (so the target shard can keep filtering
// duplicate retries of operations originally executed at the source).
type Completion struct {
	ID        RPCID
	Result    []byte
	KeyHashes []uint64
}

type completion struct {
	result    []byte
	keyHashes []uint64
}

type clientState struct {
	// firstUnacked: completion records for seq < firstUnacked have been
	// acknowledged by the client and discarded.
	firstUnacked Seq
	completions  map[Seq]completion
}

// Tracker is a server-side completion-record table. It is safe for
// concurrent use.
type Tracker struct {
	mu       sync.Mutex
	clients  map[ClientID]*clientState
	expired  map[ClientID]bool
	recovery bool
}

// NewTracker returns an empty completion-record table.
func NewTracker() *Tracker {
	return &Tracker{
		clients: make(map[ClientID]*clientState),
		expired: make(map[ClientID]bool),
	}
}

// client returns (creating it) a client's state. Must hold t.mu.
func (t *Tracker) client(c ClientID) *clientState {
	cs := t.clients[c]
	if cs == nil {
		cs = &clientState{completions: make(map[Seq]completion)}
		t.clients[c] = cs
	}
	return cs
}

// Begin processes the RIFL header of an incoming RPC: it applies the
// piggybacked acknowledgment (unless in recovery mode) and classifies the
// RPC. For Completed, result holds the saved result. ack is the client's
// firstUnacked sequence number ("all my RPCs with seq < ack are done");
// pass 0 if the request carries no acknowledgment.
func (t *Tracker) Begin(id RPCID, ack Seq) (outcome Outcome, result []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.expired[id.Client] {
		return Expired, nil
	}
	cs := t.client(id.Client)
	// §4.8: acknowledgments must be ignored during recovery from witnesses,
	// since replays arrive in arbitrary order.
	if !t.recovery && ack > cs.firstUnacked {
		for s := cs.firstUnacked; s < ack; s++ {
			delete(cs.completions, s)
		}
		cs.firstUnacked = ack
	}
	if r, ok := cs.completions[id.Seq]; ok {
		return Completed, r.result
	}
	if id.Seq < cs.firstUnacked {
		return Stale, nil
	}
	return New, nil
}

// Record saves the completion record for an executed RPC. It must be called
// after Begin returned New and the operation executed.
func (t *Tracker) Record(id RPCID, result []byte) {
	t.RecordKeyed(id, result, nil)
}

// RecordKeyed is Record with the operation's commutativity footprint
// attached, so the record can later be exported by key range (shard
// migration). Masters use it on every execution path; Record remains for
// callers with no key information.
func (t *Tracker) RecordKeyed(id RPCID, result []byte, keyHashes []uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	cs := t.client(id.Client)
	if id.Seq < cs.firstUnacked {
		// The record was concurrently acknowledged; nothing to keep.
		return
	}
	cs.completions[id.Seq] = completion{result: result, keyHashes: keyHashes}
	delete(t.expired, id.Client)
}

// SetRecoveryMode toggles witness-replay mode: while enabled, piggybacked
// acknowledgments are ignored (paper §4.8 modification 1).
func (t *Tracker) SetRecoveryMode(on bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.recovery = on
}

// RecoveryMode reports whether the tracker is in witness-replay mode.
func (t *Tracker) RecoveryMode() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.recovery
}

// ExpireLease drops all completion records of a client whose lease expired.
// CURP correctness requires the caller to have synced all operations to
// backups before calling this (paper §4.8 modification 2); the cluster layer
// enforces that ordering.
func (t *Tracker) ExpireLease(c ClientID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.clients, c)
	t.expired[c] = true
}

// Snapshot returns all live completion records, ordered arbitrarily. It is
// used to replicate the table to backups alongside object data.
func (t *Tracker) Snapshot() []Completion {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Completion
	for cid, cs := range t.clients {
		for seq, c := range cs.completions {
			out = append(out, Completion{ID: RPCID{cid, seq}, Result: c.result, KeyHashes: c.keyHashes})
		}
	}
	return out
}

// ExportRange returns the live completion records whose operations touched
// a key matched by pred (evaluated on each record's key hashes). A shard
// migration ships these to the target alongside the range's objects: a
// client retrying an operation that already executed at the source must
// find its completion record at the target, or the retry would re-execute
// (a lost-exactly-once, e.g. a double-applied increment). Records saved
// without key hashes (plain Record) are never exported.
func (t *Tracker) ExportRange(pred func(keyHash uint64) bool) []Completion {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Completion
	for cid, cs := range t.clients {
		for seq, c := range cs.completions {
			for _, kh := range c.keyHashes {
				if pred(kh) {
					out = append(out, Completion{ID: RPCID{cid, seq}, Result: c.result, KeyHashes: c.keyHashes})
					break
				}
			}
		}
	}
	return out
}

// Restore loads completion records into a tracker, used when a new master
// rebuilds state from a backup.
func (t *Tracker) Restore(records []Completion) {
	for _, r := range records {
		t.RecordKeyed(r.ID, r.Result, r.KeyHashes)
	}
}

// ClientMark is what a snapshot keeps of the completion records that are
// gone: the client acknowledged every RPC below FirstUnacked, or its lease
// expired. Without it a restored table could not tell an acknowledged
// operation from one it never saw, and a witness replay of the former would
// execute it a second time.
type ClientMark struct {
	Client       ClientID
	FirstUnacked Seq
	Expired      bool
}

// Marks returns every client's acknowledgment watermark and expiry, for a
// snapshot to carry beside Snapshot's records.
func (t *Tracker) Marks() []ClientMark {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]ClientMark, 0, len(t.clients)+len(t.expired))
	for cid, cs := range t.clients {
		if cs.firstUnacked > 0 {
			out = append(out, ClientMark{Client: cid, FirstUnacked: cs.firstUnacked})
		}
	}
	for cid := range t.expired {
		out = append(out, ClientMark{Client: cid, Expired: true})
	}
	return out
}

// RestoreMarks loads a snapshot's marks. A restored watermark only ever
// rises. It holds in recovery mode too — Begin answers Stale below it —
// because it was durable with the snapshot, unlike an ack that a replayed
// request carries (paper §4.8 modification 1 is about those).
func (t *Tracker) RestoreMarks(marks []ClientMark) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, m := range marks {
		if m.Expired {
			delete(t.clients, m.Client)
			t.expired[m.Client] = true
			continue
		}
		cs := t.client(m.Client)
		if m.FirstUnacked > cs.firstUnacked {
			for s := range cs.completions {
				if s < m.FirstUnacked {
					delete(cs.completions, s)
				}
			}
			cs.firstUnacked = m.FirstUnacked
		}
	}
}

// Len returns the number of live completion records (for tests and the
// memory-overhead experiment).
func (t *Tracker) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, cs := range t.clients {
		n += len(cs.completions)
	}
	return n
}
