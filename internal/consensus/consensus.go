// Package consensus is the paper's §A.2 extension: CURP layered on a
// strong-leader consensus protocol (Raft / Viewstamped Replication style).
//
// It holds only what §A.2 adds to CURP (the master protocol is core.Engine,
// the client protocol core.Client, both unmodified): a leader that is a
// core.Substrate whose "sync" is a majority commit, a witness per replica and
// term with the TERM as its master ID, one logical core.WitnessAPI that counts
// a record accepted iff a superquorum of those did, and the leadership change.
//
// DEVIATION: replicas are direct-call objects with Down/Up switches and an
// explicit ChangeLeader; there are no timers, elections or RPCs under them,
// so every §A.2 schedule is deterministic and replayable from a seed, and
// internal/cluster's RPC substrate is not duplicated.
package consensus

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"curp/internal/commute"
	"curp/internal/core"
	"curp/internal/kv"
	"curp/internal/rifl"
	"curp/internal/witness"
)

// Replica is one member of the group: a copy of the log with the state
// machine it produces (one kv.Store is both) and the current term's witness.
type Replica struct {
	down atomic.Bool
	mu   sync.Mutex // vote and appendLog are atomic steps
	term uint64     // the highest term voted in or heard from
	// witness serves the term that is its MasterID. sm's log is a prefix of
	// the log of logTerm's leader, whose own sm is the store its engine
	// executes on, ahead by the uncommitted suffix. Both are written under mu
	// and read without it (clients, the leader's gc, observers).
	witness atomic.Pointer[witness.Witness]
	logTerm uint64
	sm      atomic.Pointer[kv.Store]
}

// Down simulates a crash or partition of the replica, Up its end; SM is its
// log and state machine, Witness its current witness (unreachable while down).
func (r *Replica) Down()                     { r.down.Store(true) }
func (r *Replica) Up()                       { r.down.Store(false) }
func (r *Replica) SM() *kv.Store             { return r.sm.Load() }
func (r *Replica) Witness() *witness.Witness { return r.witness.Load() }

// appendLog is the leader→follower replication call and term-announcing
// heartbeat: the replica catches up with the leader's log from however far
// behind, and reports whether it now stores all of it.
func (r *Replica) appendLog(term uint64, leaderLog *kv.Store) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	// PAPER §A.2 / Raft, the term fence: a majority adopted the newer term
	// before its leader collected anything, so a deposed leader cannot commit.
	if r.down.Load() || term < r.term {
		return false
	}
	r.term = term
	if r.logTerm != term {
		// DEVIATION: entries carry no term, so a log kept from another
		// leader — which may diverge from this one's — is replaced whole, in
		// this one step, where Raft truncates the conflicting suffix.
		r.logTerm = term
		r.sm.Store(kv.NewStore())
	}
	for _, en := range leaderLog.EntriesSince(r.SM().Head()) {
		if r.SM().ReplayEntry(&en) != nil {
			return false
		}
	}
	if r.Witness().MasterID() != term {
		// PAPER §A.2: a new term gets fresh witnesses. The old object is
		// replaced, never reset: it was frozen when this replica voted, or
		// belongs to a term whose records the leader's committed log holds.
		r.witness.Store(witness.MustNew(term, witness.DefaultConfig()))
	}
	return true
}

// ballot is a replica's answer to a candidate: its log for the election and
// its witness's records for CURP recovery.
type ballot struct {
	logTerm uint64
	log     *kv.Store
	records []witness.Record
}

// vote adopts term, refusing older terms' appends from here on, and freezes
// the witness it hands over: the old leader's clients complete nothing more.
func (r *Replica) vote(term uint64) (ballot, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.down.Load() || term <= r.term {
		return ballot{}, false
	}
	r.term = term
	return ballot{r.logTerm, r.SM(), r.Witness().GetRecoveryData()}, true
}

// leader is the §A.2 substrate of core.Engine: execution applies to the
// leader replica's store, and sync is the consensus protocol's commit.
type leader struct {
	g     *Group
	self  *Replica
	term  uint64
	store *kv.Store
	eng   *core.Engine
	view  *core.View
}

var _ core.Substrate = (*leader)(nil)

// newLeader starts replica r, whose log is complete, as the leader of term.
func newLeader(g *Group, r *Replica, term uint64) *leader {
	l := &leader{g: g, self: r, term: term, store: r.SM()}
	l.eng = core.NewEngine(l, core.MasterConfig{SyncBatchSize: 50}, nil, nil)
	for _, en := range l.store.EntriesSince(0) {
		if !en.ID.IsZero() {
			l.eng.Tracker().RecordKeyed(en.ID, en.Result.Encode(), en.Cmd.KeyHashes())
		}
	}
	// The followers hold another leader's log until the first commit
	// replaces it: the restored log counts as unsynced until then.
	l.eng.State().InitRestored(uint64(l.store.Head()), 0)
	// The view's version and master ID are the term: an update or a record
	// sent under another term bounces, and the client refetches the view.
	l.eng.State().SetWitnessListVersion(term)
	l.view = &core.View{MasterID: term, WitnessListVersion: term, Master: core.LocalMaster{E: l.eng}, Witnesses: []core.WitnessAPI{superquorumWitness{g}}}
	return l
}

// Execute implements core.Substrate.
func (l *leader) Execute(_ context.Context, req *core.Request, mode core.Mode) core.Executed {
	if l.self.down.Load() {
		return core.Executed{Status: core.StatusWrongMaster}
	}
	cmd, err := kv.DecodeCommand(req.Payload)
	if err == nil && mode == core.ReadOnly && !cmd.IsReadOnly() {
		err = errors.New("consensus: Read requires a read-only command")
	}
	if err != nil {
		return core.Executed{Status: core.StatusError, Err: err.Error()}
	}
	res, lsn, err := l.store.Apply(cmd, req.ID)
	if err != nil {
		return core.Executed{Status: core.StatusError, Err: err.Error()}
	}
	class := cmd.Class()
	if mode == core.Replay && class != commute.ClassWrite {
		res = &kv.Result{Found: res.Found} // the DEVIATION note on core.Engine.Recover
	}
	return core.Executed{Result: res.Encode(), LSN: uint64(lsn), Class: class, Demote: res.Demote}
}

// Head implements core.Substrate.
func (l *leader) Head() uint64 { return uint64(l.store.Head()) }

// Flush implements core.Substrate. PAPER §A.2: CURP's sync is the consensus
// commit: f+1 of the 2f+1 replicas, the leader among them, store the entries.
func (l *leader) Flush(_ context.Context, synced uint64) (uint64, []witness.GCKey, error) {
	entries := l.store.EntriesSince(kv.LSN(synced))
	if len(entries) == 0 {
		return synced, nil, nil
	}
	acks := 0
	for _, r := range l.g.replicas {
		if !l.self.down.Load() && r.appendLog(l.term, l.store) { // a downed leader reaches nobody
			acks++
		}
	}
	if acks < l.g.Majority() {
		return 0, nil, fmt.Errorf("consensus: term %d: entries stored on %d replicas, a commit needs %d", l.term, acks, l.g.Majority())
	}
	var keys []witness.GCKey
	for i := range entries {
		keys = append(keys, witness.GCKeys(entries[i].Cmd.KeyHashes(), entries[i].ID)...)
	}
	return uint64(entries[len(entries)-1].LSN), keys, nil
}

// StartGarbage implements core.Substrate on the term's reachable witnesses:
// direct-call objects, so the pass runs here and the call is complete.
func (l *leader) StartGarbage(keys []witness.GCKey) core.GarbageCall {
	var stale []witness.Record
	for _, r := range l.g.replicas {
		if w := r.Witness(); !r.down.Load() && w.MasterID() == l.term {
			stale = append(stale, w.GC(keys)...)
		}
	}
	return core.DoneGarbage(stale)
}

// superquorumWitness is the group's one logical witness.
type superquorumWitness struct{ g *Group }

// RecordBatch implements core.WitnessAPI. PAPER §A.2, the completion rule:
// a record counts only if f+⌈f/2⌉+1 of the 2f+1 witnesses accepted it — it
// is then held by ⌈f/2⌉+1 witnesses of ANY f+1 replicas a new leader may
// collect from. "If the record RPC has an old term number, the witness
// rejects the request": the term travels as the master ID, so that is
// witness.Record's own check.
func (w superquorumWitness) RecordBatch(_ context.Context, term uint64, recs []witness.Record) ([]witness.RecordResult, error) {
	results := make([]witness.RecordResult, len(recs))
	accepts := make([]int, len(recs))
	for _, r := range w.g.replicas {
		if !r.down.Load() {
			for i, res := range r.Witness().RecordBatch(term, recs) {
				if res.Ok() {
					accepts[i]++
				}
			}
		}
	}
	for i, n := range accepts {
		if n < w.g.Superquorum() {
			results[i] = witness.RejectedConflict
		}
	}
	return results, nil
}

// StartRecordBatch implements core.RecordStarter, eagerly: the replicas are
// direct-call objects, so the record runs here, on the client's goroutine,
// before the leader executes — no leg goroutine, one schedule.
func (w superquorumWitness) StartRecordBatch(ctx context.Context, term uint64, recs []witness.Record) core.RecordCall {
	return core.DoneRecord(w.RecordBatch(ctx, term, recs))
}

// Commutes and Drop implement core.WitnessAPI for callers absent here (no
// backups, no StatusKeyMoved) by refusing: read at the leader, keep the ID.
func (w superquorumWitness) Commutes(context.Context, []uint64) (bool, error) { return false, nil }
func (w superquorumWitness) Drop(context.Context, uint64, []witness.GCKey) error {
	return errors.New("consensus: records cannot be retracted")
}

// Group is a consensus group of 2f+1 replicas serving CURP clients. It is
// their core.ViewProvider: the view names the current leader.
type Group struct {
	f        int
	replicas []*Replica
	client   *core.Client
	leader   atomic.Pointer[leader]
	changing sync.Mutex // one leadership change at a time
	term     uint64     // the newest term an election ran in; changing guards it
}

// GroupStats counts the completion paths of the group's own client.
type GroupStats struct {
	FastPath   uint64 // updates completed by superquorum acceptance (1 RTT)
	CommitPath uint64 // updates that waited for a majority commit (2 RTTs)
}

// NewGroup creates a group masking f failures (2f+1 replicas); replica 0
// starts as leader at term 1. Close it when done.
func NewGroup(f int) *Group {
	g := &Group{f: f, term: 1}
	for i := 0; i < 2*f+1; i++ {
		r := &Replica{term: 1, logTerm: 1}
		r.witness.Store(witness.MustNew(1, witness.DefaultConfig()))
		r.sm.Store(kv.NewStore())
		g.replicas = append(g.replicas, r)
	}
	g.leader.Store(newLeader(g, g.replicas[0], 1))
	g.client = core.NewClient(rifl.NewSession(1), g, core.DefaultClientConfig())
	return g
}

// Close stops the leader's engine; View implements core.ViewProvider.
func (g *Group) Close()                                         { g.leader.Load().eng.Close() }
func (g *Group) View(context.Context, bool) (*core.View, error) { return g.leader.Load().view, nil }

// Superquorum is the number of witness acceptances a 1-RTT completion needs,
// Majority the commit quorum f+1.
func (g *Group) Superquorum() int { return SuperquorumSize(g.f) }
func (g *Group) Majority() int    { return QuorumSize(len(g.replicas)) }

// Leader returns the current leader replica, Replica replica i, Committed
// the commit index: the log position a majority stores.
func (g *Group) Leader() *Replica       { return g.leader.Load().self }
func (g *Group) Replica(i int) *Replica { return g.replicas[i] }
func (g *Group) Committed() uint64      { return g.leader.Load().eng.State().SyncedLSN() }

// Stats returns the completion-path counters of the group's client.
func (g *Group) Stats() GroupStats {
	st := g.client.Stats()
	return GroupStats{FastPath: st.FastPath, CommitPath: st.SyncedByMaster + st.SlowPath}
}

// Update executes cmd: in 1 RTT when it commutes with the uncommitted suffix
// and a superquorum of witnesses recorded it, else after a majority commit.
func (g *Group) Update(ctx context.Context, cmd *kv.Command) (*kv.Result, error) {
	return kv.Submitted(g.client.UpdateAsync(ctx, cmd.KeyHashes(), cmd.Encode(), cmd.Class())).Result(ctx)
}

// Read serves a linearizable read at the leader (which holds a lease by
// assumption); a read touching an uncommitted key commits first.
func (g *Group) Read(ctx context.Context, cmd *kv.Command) (*kv.Result, error) {
	out, err := g.client.Read(ctx, cmd.KeyHashes(), cmd.Encode())
	if err != nil {
		return nil, err
	}
	return kv.DecodeResult(out)
}

// ChangeLeader makes replica i the leader of a new term with CURP recovery
// (PAPER §A.2). Restoring completion records, the RIFL-filtered replay and
// the final commit are the engine's, as in primary-backup recovery.
func (g *Group) ChangeLeader(i int) error {
	g.changing.Lock()
	defer g.changing.Unlock()
	g.term++
	// Raft's election restriction: the most up-to-date log among a majority
	// of voters holds every committed entry.
	var ballots []ballot
	var best ballot
	for _, r := range g.replicas {
		if b, ok := r.vote(g.term); ok {
			ballots = append(ballots, b)
			if best.log == nil || !LogUpToDate(best.logTerm, int(best.log.Head()), b.logTerm, int(b.log.Head())) {
				best = b
			}
		}
	}
	if len(ballots) < g.Majority() || !g.replicas[i].appendLog(g.term, best.log) {
		return errors.New("consensus: election needs the candidate and a majority of replicas up")
	}
	// PAPER §A.2: collect from f+1 witnesses and replay the records at least
	// ⌈f/2⌉+1 of them hold — every completed request is among those, and no
	// two of them conflict.
	var replay []witness.Record
	held := map[rifl.RPCID]int{}
	for _, b := range ballots[:g.Majority()] {
		for _, rec := range b.records {
			if held[rec.ID]++; held[rec.ID] == (g.f+1)/2+1 {
				replay = append(replay, rec)
			}
		}
	}
	old := g.leader.Load() // deposed: its clients get StatusWrongMaster from here on
	old.eng.State().Freeze()
	old.eng.Close()
	l := newLeader(g, g.replicas[i], g.term)
	l.eng.Recover(context.Background(), replay)
	// The commit that ends recovery replaces the followers' logs and opens
	// the term's witnesses; the heartbeat does where it had nothing to send.
	if err := l.eng.Sync(context.Background()); err != nil {
		l.eng.Close()
		return fmt.Errorf("consensus: recovery commit: %w", err)
	}
	for _, r := range g.replicas {
		r.appendLog(g.term, l.store)
	}
	g.leader.Store(l)
	return nil
}
