package core

import (
	"context"
	"sync"
	"time"

	"curp/internal/commute"
	"curp/internal/metrics"
	"curp/internal/rifl"
	"curp/internal/witness"
)

// Mode tells Engine.Execute, and through it the substrate, who is asking and
// when the result may be revealed.
type Mode uint8

const (
	// Speculative is the client update path (PAPER §3.2.3): reply before
	// syncing iff the operation commutes with the unsynced suffix, else hand
	// back the log position the reply must wait for.
	Speculative Mode = iota
	// Durable is a client request whose result is never revealed before it
	// is synced (transaction prepare/decide). The engine also re-executes
	// §4.5 stale witness records in this mode, dropping the reply.
	Durable
	// Internal is a master-originated mutation (TTL purge, resolved
	// transaction decision, migration install): no admission checks, RIFL
	// only when the request carries an ID, durable before the caller goes on.
	Internal
	// Replay is recovery's witness replay (PAPER §3.3): arbitrary order,
	// RIFL-filtered, acks ignored, nothing revealed.
	Replay
	// ReadOnly is what Engine.Read passes the substrate, which must refuse a
	// command that could mutate.
	ReadOnly
)

// Executed is a substrate's report on one request, returned by value so the
// update path allocates nothing for it.
type Executed struct {
	// Result is the encoded result: completion record and reply payload.
	Result []byte
	// LSN is the log position of the mutation (0: nothing was logged).
	LSN uint64
	// Class is the commutativity class, re-derived from the decoded command:
	// a client cannot widen its own fast path by mislabelling the envelope.
	Class commute.Class
	// Demote: commuted, but must be gated like a conflict all the same.
	Demote bool
	// Status is StatusOK when the request executed; anything else is a
	// bounce (it did NOT execute) and becomes the reply status, with Err the
	// message of a StatusError.
	Status Status
	Err    string
}

// Substrate is what a storage engine supplies to become a CURP master: how
// to execute one request, and what "sync" means for its log (PAPER §5.4:
// the Redis port is the same master with an AOF fsync where RAMCloud has a
// backup append). Flush and StartGarbage are only ever called by the
// holder of the engine's one sync slot.
type Substrate interface {
	// Execute decodes and applies req's payload, logging mutations. It runs
	// under the engine's execution lock, which guards whatever it touches.
	Execute(ctx context.Context, req *Request, mode Mode) Executed
	// Head returns the log head: the highest LSN Execute has handed out.
	Head() uint64
	// Flush makes the log durable from synced (exclusive) to its current
	// head and returns that head with the witness gc keys of exactly the
	// entries it made durable. On error nothing counts as durable.
	Flush(ctx context.Context, synced uint64) (head uint64, durable []witness.GCKey, err error)
	// StartGarbage puts one gc batch to every witness on the wire without
	// waiting for the replies (PAPER §4.5: gc is sent after the sync; nobody
	// waits for it). It does not fail: an unreachable witness's records age
	// into the stale reports of a later pass.
	StartGarbage(keys []witness.GCKey) GarbageCall
}

// GarbageCall is a started gc scatter, on the model of RecordCall. Wait must
// be called exactly once: a call never collected would pin its transport's
// pending entries.
type GarbageCall interface {
	// Wait blocks until every witness answered or the substrate's own
	// deadline passed, and returns the records the witnesses report as
	// suspected uncollected garbage.
	Wait() []witness.Record
}

// DoneGarbage is the GarbageCall of a gc pass that already ran: what a
// substrate whose witnesses are direct-call objects, with nothing to
// overlap, returns from StartGarbage.
func DoneGarbage(stale []witness.Record) GarbageCall { return doneGarbage(stale) }

type doneGarbage []witness.Record

func (d doneGarbage) Wait() []witness.Record { return d }

// Path classifies a fresh Speculative-mode execution.
type Path uint8

const (
	PathNone        Path = iota // a bounce, a duplicate, or another mode
	PathSpeculative             // revealed on the 1-RTT path
	PathConflict                // gated behind a sync
)

// Outcome is the engine's verdict on one request.
type Outcome struct {
	Reply Reply
	// SyncTo, when non-zero, is the log position that must be durable before
	// Reply may be sent: pass the outcome through Reveal first. A batch
	// collects its outcomes and satisfies them with one sync.
	SyncTo uint64
	Class  commute.Class
	Path   Path
}

// Engine is the CURP master, shared by every storage substrate. It owns the
// execution lock (the paper's single dispatch thread), the RIFL completion
// table, the commutativity bookkeeping, the one-outstanding-sync rule with
// its resident background syncer, and witness gc with the §4.5 stale retry.
type Engine struct {
	sub      Substrate
	trace    *metrics.Collector
	slotWait *metrics.Histogram // nil: not observed

	execMu  sync.Mutex
	tracker *rifl.Tracker
	state   *MasterState

	// PAPER §4.4 / §C.1: "RAMCloud allows only one outstanding sync", which
	// batches naturally — whatever executes during a sync rides the next.
	// A sync holds the slot from its flush to the end of its gc tail, but
	// wakes its waiters in between, at the durable point; syncRound/syncErr
	// tell those still parked when the slot is released how the round ended.
	syncMu     sync.Mutex
	syncCond   *sync.Cond
	syncActive bool
	syncRound  uint64
	syncErr    error

	// syncKick feeds the one resident background syncer (capacity 1: kicks
	// coalesce). Post-mortem, PRs 3/4: before it existed every speculative
	// op past the batch threshold spawned a goroutine into the sync wait,
	// where the herd parked on syncCond and was woken en masse by every
	// completed sync, throttling the pipelined path.
	syncKick  chan struct{}
	closeOnce sync.Once
	closed    chan struct{} // closed under syncMu

	// tails hands a sync's in-flight gc scatter, and with it the sync slot,
	// to the one resident collector. Capacity 1 and never full at a send:
	// one slot, so at most one tail.
	tails chan GarbageCall

	// gcRetry holds the gc pairs of §4.5 stale records until the next
	// successful flush. Only the sync-slot holder touches it (the collector
	// IS the holder while it runs a tail).
	gcRetry []witness.GCKey
}

// NewEngine starts a master engine over sub. trace, when non-nil, receives
// the engine's own wait attribution (master-queue and sync-wait spans);
// slotWait, when non-nil, the time a sync spent queued for the sync slot.
func NewEngine(sub Substrate, cfg MasterConfig, trace *metrics.Collector, slotWait *metrics.Histogram) *Engine {
	e := &Engine{
		sub:      sub,
		trace:    trace,
		slotWait: slotWait,
		tracker:  rifl.NewTracker(),
		state:    NewMasterState(cfg),
		syncKick: make(chan struct{}, 1),
		closed:   make(chan struct{}),
		tails:    make(chan GarbageCall, 1),
	}
	e.syncCond = sync.NewCond(&e.syncMu)
	go e.backgroundSync()
	go e.collectTails()
	return e
}

// Close stops the resident syncer and the tail collector. Idempotent. It
// does not wait out a flush or a gc tail in flight: masters are closed
// precisely when backups and witnesses may be unreachable, and the
// substrate's own timeouts bound both; the collector ends with its tail.
func (e *Engine) Close() {
	e.closeOnce.Do(func() {
		e.syncMu.Lock() // a hand-off is either before this, and drained, or sees it
		close(e.closed)
		e.syncMu.Unlock()
	})
}

// State exposes the commutativity bookkeeping and protocol counters.
func (e *Engine) State() *MasterState { return e.state }

// Tracker exposes the RIFL completion table (restore, migration export).
func (e *Engine) Tracker() *rifl.Tracker { return e.tracker }

// Lock takes the execution lock, for substrate steps that must serialize
// with execution (freeze a range and read the head it drains to).
func (e *Engine) Lock() { e.execMu.Lock() }

// Unlock releases the execution lock.
func (e *Engine) Unlock() { e.execMu.Unlock() }

// Execute admits one request and runs it through the execute-once path.
func (e *Engine) Execute(ctx context.Context, req *Request, mode Mode) Outcome {
	if mode == Speculative || mode == Durable {
		if e.state.Frozen() {
			return Outcome{Reply: Reply{Status: StatusWrongMaster}}
		}
		// PAPER §3.6: an update recorded against a decommissioned witness
		// set could complete while its only durable copy sits in witnesses
		// recovery will never consult.
		if mode == Speculative && !e.state.CheckWitnessList(req.WitnessListVersion) {
			return Outcome{Reply: Reply{Status: StatusStaleWitnessList}}
		}
	}
	qStart := time.Now()
	e.execMu.Lock()
	if wait := time.Since(qStart); wait > time.Microsecond {
		e.trace.RecordSpan(ctx, "master-queue", "", "", qStart, wait, "")
	}
	out := e.ExecuteLocked(ctx, req, mode)
	e.execMu.Unlock()
	return out
}

// ExecuteLocked is the execute-once skeleton — RIFL filter, substrate
// execution, commutativity gate, bookkeeping, completion record — for a
// caller holding Lock (no admission checks).
func (e *Engine) ExecuteLocked(ctx context.Context, req *Request, mode Mode) (out Outcome) {
	tracked := !req.ID.IsZero()
	if tracked {
		ack := req.Ack
		if mode == Replay {
			// PAPER §4.8: replays arrive in arbitrary order; an ack carried
			// by a later request must not suppress an earlier one.
			ack = 0
		}
		switch outcome, saved := e.tracker.Begin(req.ID, ack); outcome {
		case rifl.Completed:
			// PAPER §3.2.3 / §3.3: a duplicate gets the saved result, but only
			// once ANY unsynced mutation of its keys (hence ClassWrite) is
			// durable — the retrying client may have lost its witnesses. A
			// non-speculative original synced before replying; its duplicate
			// inherits that.
			out.Reply = Reply{Status: StatusOK, Synced: true, Payload: saved}
			if mode != Speculative || e.state.Conflicts(req.KeyHashes, commute.ClassWrite) {
				out.SyncTo = e.sub.Head()
			}
			return out
		case rifl.Stale, rifl.Expired:
			out.Reply.Status = StatusIgnored
			return out
		}
	}
	ex := e.sub.Execute(ctx, req, mode)
	if ex.Status != StatusOK {
		out.Reply = Reply{Status: ex.Status, Err: ex.Err}
		return out
	}
	// PAPER §3.2.3, the commutativity gate. Evaluated before NoteMutation:
	// afterwards the operation's own keys are unsynced and it would
	// conflict with itself.
	conflict := mode == Speculative && (ex.Demote || e.state.Conflicts(req.KeyHashes, ex.Class))
	hot := ex.LSN > 0 && e.state.NoteMutation(req.KeyHashes, ex.LSN, ex.Class)
	if tracked {
		e.tracker.RecordKeyed(req.ID, ex.Result, req.KeyHashes)
	}
	out.Reply = Reply{Status: StatusOK, Payload: ex.Result}
	switch {
	case mode == Durable || mode == Internal:
		out.SyncTo = ex.LSN
	case mode == Speculative && conflict:
		// The sync that covers this operation must precede its reply.
		out.Class, out.Path, out.SyncTo = ex.Class, PathConflict, ex.LSN
		e.state.CountConflictSync()
	case mode == Speculative:
		out.Class, out.Path = ex.Class, PathSpeculative
		e.state.CountSpeculative()
		// PAPER §4.4: start a background sync when the unsynced batch is
		// full, or right after a hot key's update so the next one finds it
		// synced. Evaluated once: a sync landing between two evaluations
		// would miscount BatchSyncs.
		batch := e.state.NeedsBatchSync()
		if batch {
			e.state.CountBatchSync()
		}
		if hot || batch {
			e.Kick()
		}
	}
	return out
}

// Reveal satisfies the sync obligations of outs with ONE sync — a batch
// with k conflicts costs one flush — then tags every gated reply Synced
// (PAPER §3.2.3: the client then skips its own sync RPC) or replaces it with
// the failure. It returns the trace verdict: "fast", "sync",
// "conflict-sync", "error" or "wrong-master".
func (e *Engine) Reveal(ctx context.Context, outs []Outcome) string {
	var syncTo uint64
	verdict := "sync"
	for i := range outs {
		if outs[i].SyncTo > syncTo {
			syncTo = outs[i].SyncTo
		}
		if outs[i].Path == PathConflict {
			verdict = "conflict-sync"
		}
	}
	if syncTo == 0 {
		return "fast"
	}
	err := e.tracedSync(ctx, syncTo, verdict)
	for i := range outs {
		switch {
		case outs[i].SyncTo == 0:
		case err != nil:
			outs[i].Reply, verdict = e.failReply(err)
		default:
			outs[i].Reply.Synced = true
		}
	}
	return verdict
}

// tracedSync is SyncTo under a sync-wait span, so the flush's own spans
// nest below the wait of the request that drove it.
func (e *Engine) tracedSync(ctx context.Context, lsn uint64, verdict string) error {
	sctx, sp := e.trace.StartSpan(ctx, "sync-wait")
	err := e.SyncTo(sctx, lsn)
	sp.SetVerdict(verdict)
	sp.SetErr(err)
	sp.End()
	return err
}

// failReply maps a failed reply-gating sync onto the client-visible reply
// and its verdict. A master frozen mid-request was deposed: the withheld
// reply was never revealed, so the operation is retryable at the successor
// (WrongMaster). Only a live master's replication failure is terminal.
func (e *Engine) failReply(err error) (Reply, string) {
	if e.state.Frozen() {
		return Reply{Status: StatusWrongMaster}, "wrong-master"
	}
	return Reply{Status: StatusError, Err: err.Error()}, "error"
}

// Read serves a linearizable read. PAPER §3.2.3 / §A.3: a read touching an
// unsynced object waits for a sync first, so no result depends on state a
// crash could lose. Reads never commute with pending mutations, commutative
// or not (a counter read mid-window would expose unsynced state), hence
// ClassWrite. The verdict is "fast", "blocked", "error" or "wrong-master".
func (e *Engine) Read(ctx context.Context, req *Request) (Reply, string) {
	verdict := "fast"
	for {
		if e.state.Frozen() {
			return Reply{Status: StatusWrongMaster}, "wrong-master"
		}
		e.execMu.Lock()
		if !e.state.Conflicts(req.KeyHashes, commute.ClassWrite) {
			ex := e.sub.Execute(ctx, req, ReadOnly)
			e.execMu.Unlock()
			if ex.Status != StatusOK {
				return Reply{Status: ex.Status, Err: ex.Err}, verdict
			}
			return Reply{Status: StatusOK, Synced: true, Payload: ex.Result}, verdict
		}
		head := e.sub.Head()
		e.execMu.Unlock()
		e.state.CountReadBlock()
		verdict = "blocked"
		if err := e.tracedSync(ctx, head, verdict); err != nil {
			return e.failReply(err)
		}
	}
}

// Sync makes everything executed so far durable: the client's slow-path
// sync RPC (PAPER §3.2.1) and the drain step of reconfigurations.
func (e *Engine) Sync(ctx context.Context) error { return e.tracedSync(ctx, e.sub.Head(), "sync") }

// Kick asks the background syncer to run; a kick already pending covers
// this one. It never blocks.
func (e *Engine) Kick() {
	select {
	case e.syncKick <- struct{}{}:
	default:
	}
}

// backgroundSync is the one resident background syncer: each kick syncs to
// the CURRENT head, so any number of triggers during a sync collapse into a
// single follow-up pass.
func (e *Engine) backgroundSync() {
	for {
		select {
		case <-e.closed:
			return
		case <-e.syncKick:
			_ = e.Sync(context.Background()) // reply-gating waiters see failures; the next kick retries
		}
	}
}

// SyncTo blocks until the log is durable up to lsn, driving a sync itself
// when none is in progress. PAPER §4.4: concurrent callers coalesce onto the
// one outstanding sync; the flush's spans join the DRIVING caller's trace.
// A waiter leaves at the sync's durable point if that covers lsn; otherwise
// it stays for the slot, and gets the round's failure instead of re-driving.
func (e *Engine) SyncTo(ctx context.Context, lsn uint64) error {
	for e.state.SyncedLSN() < lsn {
		e.syncMu.Lock()
		if e.syncActive {
			parked := time.Now()
			round := e.syncRound
			for e.syncRound == round && e.state.SyncedLSN() < lsn {
				e.syncCond.Wait()
			}
			queued := e.syncRound != round // left with the slot's release, not at a durable point
			var err error
			if queued && e.state.SyncedLSN() < lsn {
				err = e.syncErr
			}
			e.syncMu.Unlock()
			if queued {
				e.observeSlotWait(parked)
			}
			if err != nil {
				return err
			}
			continue
		}
		e.syncActive = true
		e.syncMu.Unlock()
		if err := e.syncOnce(ctx); err != nil {
			return err
		}
	}
	return nil
}

func (e *Engine) observeSlotWait(since time.Time) {
	if e.slotWait != nil {
		e.slotWait.ObserveDuration(time.Since(since))
	}
}

// endSync releases the sync slot and wakes every waiter with the result.
func (e *Engine) endSync(err error) {
	e.syncMu.Lock()
	e.syncActive = false
	e.syncRound++
	e.syncErr = err
	e.syncCond.Broadcast()
	e.syncMu.Unlock()
}

// HoldSync runs f while holding the sync slot, so no flush and no gc tail
// runs beside it (a backup seed sends the entries logged since its state
// image under this exclusion, so the synced position stands still and the
// backup joins the sync set without a gap).
func (e *Engine) HoldSync(f func() error) error {
	e.syncMu.Lock()
	if e.syncActive {
		parked := time.Now()
		for e.syncActive {
			e.syncCond.Wait()
		}
		e.observeSlotWait(parked)
	}
	e.syncActive = true
	e.syncMu.Unlock()
	err := f()
	e.endSync(nil) // f's failure is the caller's, not a failed sync
	return err
}

// syncOnce is one sync, run by the sync-slot holder up to its durable
// point: flush, advance the synced position, start collecting exactly what
// became durable from the witnesses, wake the waiters that position covers,
// and pass the slot with the in-flight gc to the collector. A failed flush
// advances nothing, collects nothing and releases the slot with the error.
//
// PAPER §4.5: gc by exact (key hash, RPC ID) list, one batch per sync.
// Post-mortem, PRs 3/4: gc used to snapshot everything a witness held. But
// clients record in parallel with the update RPC, so a witness can hold a
// record for an update the master has not executed yet — the operation's
// ONLY durable copy until its log entry is flushed — and a crash in that
// window lost a completed operation. Collecting only what the flush just
// made durable closes it.
func (e *Engine) syncOnce(ctx context.Context) error {
	synced := e.state.SyncedLSN()
	head, keys, err := e.sub.Flush(ctx, synced)
	if err != nil || head <= synced {
		e.endSync(err)
		return err
	}
	e.state.NoteSync(head)
	if len(e.gcRetry) > 0 {
		keys = append(e.gcRetry, keys...)
		e.gcRetry = nil
	}
	if len(keys) == 0 {
		e.endSync(nil)
		return nil
	}
	// PAPER §4.5: the gc leaves after the sync and no reply waits for it.
	// It is on the wire BEFORE any reply is, so on equal links a client's
	// next record of a key cannot overtake the pair that frees its slot;
	// and the slot stays taken until the tail ends, so gc passes never
	// overlap flushes and records age against StaleGCThreshold one pass
	// per sync, as they always did.
	call := e.sub.StartGarbage(keys)
	e.syncMu.Lock()
	e.syncCond.Broadcast() // the durable point
	select {
	case <-e.closed: // the collector may be gone
		e.syncMu.Unlock()
		e.endTail(call)
	default:
		e.tails <- call
		e.syncMu.Unlock()
	}
	return nil
}

// collectTails is the one resident collector: it holds the sync slot from a
// sync's durable point to the end of its gc tail.
func (e *Engine) collectTails() {
	for {
		select {
		case <-e.closed:
			select {
			case call := <-e.tails:
				e.endTail(call)
			default:
			}
			return
		case call := <-e.tails:
			e.endTail(call)
		}
	}
}

// endTail is a sync's gc tail, run by whoever holds its slot: wait for the
// witnesses' gc replies, retry what they report stale, release the slot.
// The sync's driver has returned by now, so the retries run under no
// request's context.
func (e *Engine) endTail(call GarbageCall) {
	e.retryStale(context.Background(), call.Wait())
	e.endSync(nil)
}

// retryStale handles records the witnesses flagged as suspected uncollected
// garbage. PAPER §4.5: the master retries the request — most are duplicates
// RIFL filters (their gc pair raced the record's arrival), an orphan
// executes and becomes durable — and re-sends its gc pair with the next
// sync, which the closing Kick makes prompt.
func (e *Engine) retryStale(ctx context.Context, stale []witness.Record) {
	if len(stale) == 0 {
		return
	}
	seen := make(map[rifl.RPCID]bool, len(stale)) // every witness reports its own copy
	for _, rec := range stale {
		if seen[rec.ID] {
			continue
		}
		seen[rec.ID] = true
		if e.replay(ctx, rec, Durable).Reply.Status == StatusTxnLocked {
			// Bounced off a transaction lock: the client's own update RPC may
			// still land, execute, and complete on the strength of this
			// record. Keep it; the next pass reports it again.
			continue
		}
		// Executed, a duplicate, or dead for good (moved range, failing
		// command): free the slot.
		e.gcRetry = append(e.gcRetry, witness.GCKeys(rec.KeyHashes, rec.ID)...)
	}
	e.Kick()
}

// replay re-executes one witness record.
func (e *Engine) replay(ctx context.Context, rec witness.Record, mode Mode) Outcome {
	req := Request{ID: rec.ID, KeyHashes: rec.KeyHashes, Payload: rec.Request, Class: rec.Class}
	e.execMu.Lock()
	defer e.execMu.Unlock()
	return e.ExecuteLocked(ctx, &req, mode)
}

// Recover replays a frozen witness's records on a restored master (PAPER
// §3.3, §4.6): RIFL skips what the restored log already holds, the rest
// execute in whatever order the witness returned them. The caller syncs
// afterwards.
//
// DEVIATION: the paper replays requests as-is; substrates here scrub the
// order-dependent fields of commutative operations' results in Replay mode
// (a counter's returned total depends on replay position), so a retrying
// client never observes a value from a history that did not happen. The
// §4.5 stale retry runs in the master's real order and keeps its results.
func (e *Engine) Recover(ctx context.Context, records []witness.Record) {
	e.tracker.SetRecoveryMode(true)
	defer e.tracker.SetRecoveryMode(false)
	for _, rec := range records {
		e.replay(ctx, rec, Replay)
	}
}
