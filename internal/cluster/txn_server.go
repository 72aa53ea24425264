package cluster

import (
	"context"
	"errors"
	"fmt"
	"time"

	"curp/internal/commute"
	"curp/internal/core"
	"curp/internal/events"
	"curp/internal/kv"
	"curp/internal/rifl"
	"curp/internal/rpc"
	"curp/internal/witness"
)

// This file is the master side of cross-shard transactions (see
// internal/kv/txn.go for the protocol overview and internal/txn for the
// coordinator state machine). A master plays two roles:
//
//   - participant: OpTxnPrepare validates read versions and locks the keys,
//     OpTxnDecide applies or discards the prepared writes. Both are logged
//     and synced to backups BEFORE the reply — a prepare vote or a decide
//     acknowledgment must survive a participant crash — so neither uses the
//     witness fast path (2PC is inherently the slow path; single-shard
//     transactions ride the normal speculative OpUpdate path instead).
//   - home: the transaction's decision record arrives as a normal update
//     (kv.OpTxnDecide with HomeRecord), getting CURP's witness-backed
//     durability, and OpTxnStatus serves lookups. A lookup with the resolve
//     flag set records an ABORT by default when no decision exists — the
//     classic presumed-abort recovery for orphaned prepares — anchored in
//     RIFL: the abort is saved under the transaction's RIFL ID, so a
//     coordinator that wakes up late and retries its commit decide receives
//     the saved abort instead of committing.
//
// Orphan resolution is lazy and master-driven: when an operation bounces
// off a lock older than TxnLockTimeout, the master's resident resolver
// dials the lock's home shard, forces a decision, applies it locally, and
// releases the locks. The blocked client, meanwhile, retries with backoff
// (StatusTxnLocked) and lands once the lock clears.

// txnResolveReq asks the resolver to settle one orphaned prepared
// transaction.
type txnResolveReq struct {
	id   rifl.RPCID
	home kv.TxnHome
}

// registerTxnHandlers wires the transaction RPCs into the master's server.
func (ms *MasterServer) registerTxnHandlers() {
	ms.rpc.Handle(OpTxnPrepare, ms.handleTxnPrepare)
	ms.rpc.Handle(OpTxnDecide, ms.handleTxnDecide)
	ms.rpc.Handle(OpTxnStatus, ms.handleTxnStatus)
}

// handleTxnPrepare is phase one on a participant: validate, lock, stash,
// and make the vote durable before revealing it.
func (ms *MasterServer) handleTxnPrepare(ctx context.Context, payload []byte) ([]byte, error) {
	ms.mTxnPrepares.Inc()
	start := time.Now()
	out, err := ms.handleTxnPhase(ctx, payload, kv.OpTxnPrepare)
	ms.observeOp(ctx, ms.mLatPrepare, "txn_prepare", txnPhaseVerdict(out, err), "", start)
	return out, err
}

// handleTxnDecide is phase two on a participant: apply or discard the
// prepared writes, release the locks, and make the outcome durable before
// acknowledging.
func (ms *MasterServer) handleTxnDecide(ctx context.Context, payload []byte) ([]byte, error) {
	ms.mTxnDecides.Inc()
	start := time.Now()
	out, err := ms.handleTxnPhase(ctx, payload, kv.OpTxnDecide)
	ms.observeOp(ctx, ms.mLatDecide, "txn_decide", txnPhaseVerdict(out, err), "", start)
	return out, err
}

// txnPhaseVerdict classifies a txn-phase reply for the slow-op trace:
// "ok", "locked", or the reply status ("error" on transport failures).
func txnPhaseVerdict(out []byte, err error) string {
	if err != nil || out == nil {
		return "error"
	}
	reply, derr := core.DecodeReply(out)
	if derr != nil {
		return "error"
	}
	switch reply.Status {
	case core.StatusOK:
		return "ok"
	case core.StatusTxnLocked:
		return "locked"
	default:
		return reply.Status.String()
	}
}

// handleTxnPhase is the shared participant path of prepare and decide.
func (ms *MasterServer) handleTxnPhase(ctx context.Context, payload []byte, want kv.CommandOp) ([]byte, error) {
	req, err := core.DecodeRequest(payload)
	if err != nil {
		return nil, err
	}
	if ms.state.Frozen() {
		return (&core.Reply{Status: core.StatusWrongMaster}).Encode(), nil
	}

	ms.execMu.Lock()
	outcome, saved := ms.tracker.Begin(req.ID, req.Ack)
	switch outcome {
	case rifl.Completed:
		head := kv.LSN(ms.store.Head())
		ms.execMu.Unlock()
		// The original execution synced before replying, but that reply
		// may never have reached the client; re-sync so the retried caller
		// inherits the same durability guarantee.
		if err := ms.syncAndWait(ctx, head); err != nil {
			return ms.syncFailReply(err).Encode(), nil
		}
		return (&core.Reply{Status: core.StatusOK, Synced: true, Payload: saved}).Encode(), nil
	case rifl.Stale, rifl.Expired:
		ms.execMu.Unlock()
		return (&core.Reply{Status: core.StatusIgnored}).Encode(), nil
	}

	cmd, err := kv.DecodeCommand(req.Payload)
	if err != nil {
		ms.execMu.Unlock()
		return nil, err
	}
	if cmd.Op != want || cmd.Txn == nil {
		ms.execMu.Unlock()
		return (&core.Reply{Status: core.StatusError, Err: fmt.Sprintf("master: txn phase wants %v", want)}).Encode(), nil
	}
	if ms.migr.blockedAny(req.KeyHashes) {
		ms.execMu.Unlock()
		return (&core.Reply{Status: core.StatusKeyMoved}).Encode(), nil
	}
	res, lsn, err := ms.store.Apply(cmd, req.ID)
	if err != nil {
		ms.execMu.Unlock()
		if lerr, ok := err.(*kv.LockedError); ok {
			ms.mLockWait.Observe(int64(lerr.Age))
			ms.coll.RecordSpan(ctx, "lock-wait", want.String(), "locked", time.Now().Add(-lerr.Age), lerr.Age, "")
			ms.maybeResolve(lerr)
			return (&core.Reply{Status: core.StatusTxnLocked}).Encode(), nil
		}
		return (&core.Reply{Status: core.StatusError, Err: err.Error()}).Encode(), nil
	}
	if lsn > 0 {
		ms.state.NoteMutation(req.KeyHashes, uint64(lsn), commute.ClassWrite)
	}
	enc := res.Encode()
	ms.tracker.RecordKeyed(req.ID, enc, req.KeyHashes)
	ms.execMu.Unlock()

	if lsn > 0 {
		// The lock set (prepare) or the applied writes (decide) must be on
		// the backups before the caller may act on the reply: a vote that
		// dies with the master would let the coordinator commit a
		// transaction whose participant forgot its half.
		sctx, ssp := ms.coll.StartSpan(ctx, "sync-wait")
		serr := ms.syncAndWait(sctx, kv.LSN(lsn))
		ssp.SetErr(serr)
		ssp.End()
		if serr != nil {
			return ms.syncFailReply(serr).Encode(), nil
		}
	}
	return (&core.Reply{Status: core.StatusOK, Synced: true, Payload: enc}).Encode(), nil
}

// handleTxnStatus serves decision lookups on the home shard, recording an
// abort by default when asked to resolve an undecided transaction.
func (ms *MasterServer) handleTxnStatus(ctx context.Context, payload []byte) ([]byte, error) {
	req, err := decodeTxnStatusRequest(payload)
	if err != nil {
		return nil, err
	}
	if ms.state.Frozen() {
		return (&core.Reply{Status: core.StatusWrongMaster}).Encode(), nil
	}
	outcomeReply := func(commit bool) ([]byte, error) {
		b := txnOutcomeAbort
		if commit {
			b = txnOutcomeCommit
		}
		return (&core.Reply{Status: core.StatusOK, Synced: true, Payload: []byte{b}}).Encode(), nil
	}

	commit, err := ms.homeResolve(req.ID, req.HomeHash, req.Resolve, false)
	switch {
	case err == errTxnMoved:
		// If the home range was handed off (not merely frozen mid-step),
		// tell the caller where it went: the payload carries the target
		// master's address, and lookupDecision chases it. Without the
		// forward, a participant whose transaction prepared before a
		// rebalance would spin on StatusKeyMoved forever — the old home
		// no longer owns the decision and the new one is never asked.
		return (&core.Reply{
			Status:  core.StatusKeyMoved,
			Payload: []byte(ms.migr.forwardAddr(req.HomeHash)),
		}).Encode(), nil
	case err == errTxnUnknown:
		return (&core.Reply{Status: core.StatusOK, Synced: true, Payload: []byte{txnOutcomeUnknown}}).Encode(), nil
	case err != nil:
		return (&core.Reply{Status: core.StatusError, Err: err.Error()}).Encode(), nil
	}
	return outcomeReply(commit)
}

// Sentinel outcomes of homeResolve.
var (
	errTxnMoved   = errors.New("cluster: txn home range moved or migrating")
	errTxnUnknown = errors.New("cluster: txn decision unknown")
)

// homeResolve looks up — and, when resolve is set, forces — a
// transaction's decision on this (home) master. allowFrozen lets the
// migration's own pre-export resolution write an abort-default into a
// range it froze itself (the decision is exported with the bundle);
// everyone else must not create decisions in a range in motion — between
// export and the ring flip they would be silently lost — and gets
// errTxnMoved to retry after the migration settles.
func (ms *MasterServer) homeResolve(id rifl.RPCID, homeHash uint64, resolve, allowFrozen bool) (bool, error) {
	ms.execMu.Lock()
	if ms.migr.movedAny([]uint64{homeHash}) {
		ms.execMu.Unlock()
		return false, errTxnMoved
	}
	// Existing decisions are served even while the range is frozen: the
	// source stays authoritative for reads until the handoff commits.
	if commit, known := ms.store.TxnDecision(id); known {
		head := kv.LSN(ms.store.Head())
		ms.execMu.Unlock()
		// The decision may have arrived through the speculative update
		// path and still be witness-only. A resolver acting on it makes it
		// irreversible at a participant, so it must be on the backups
		// first — otherwise a home crash could lose the decision after one
		// participant applied it, forking the outcome.
		if err := ms.syncAndWait(context.Background(), head); err != nil {
			return false, err
		}
		return commit, nil
	}
	if !resolve {
		ms.execMu.Unlock()
		return false, errTxnUnknown
	}
	if !allowFrozen && ms.migr.blockedAny([]uint64{homeHash}) {
		ms.execMu.Unlock()
		return false, errTxnMoved
	}

	// No decision exists: presume abort, anchoring it in RIFL so a late
	// coordinator decide under this ID gets the abort back.
	cmd := kv.TxnDecide(&kv.TxnCommand{
		ID:         id,
		Commit:     false,
		HomeRecord: true,
		Home:       kv.TxnHome{MasterID: ms.id, Addr: ms.addr, KeyHash: homeHash},
	})
	entryID := id
	switch o, saved := ms.tracker.Begin(id, 0); o {
	case rifl.Completed:
		// The decide executed but the decision table misses it (cannot
		// happen on the normal paths — they update both together — but a
		// saved result is authoritative if it does).
		head := kv.LSN(ms.store.Head())
		ms.execMu.Unlock()
		res, derr := kv.DecodeResult(saved)
		if derr != nil {
			return false, derr
		}
		if err := ms.syncAndWait(context.Background(), head); err != nil {
			return false, err
		}
		return res.Found, nil
	case rifl.Stale, rifl.Expired:
		// The coordinator's session acked the ID (possible only after
		// every participant applied its decide) or its lease expired with
		// no decision recorded; either way no commit can be pending and
		// no participant still holds prepared state that needs this
		// answer durable. Return the abort WITHOUT recording it: writing
		// it would both plant a wrong-direction record when the ack raced
		// a commit's decision-GC (the forget already pruned the real
		// outcome) and re-grow the decision table with an entry nothing
		// will ever read.
		ms.execMu.Unlock()
		return false, nil
	}
	res, lsn, err := ms.store.Apply(&cmd, entryID)
	if err != nil {
		ms.execMu.Unlock()
		return false, err
	}
	if lsn > 0 {
		ms.state.NoteMutation([]uint64{homeHash}, uint64(lsn), commute.ClassWrite)
	}
	if !entryID.IsZero() {
		ms.tracker.RecordKeyed(entryID, res.Encode(), []uint64{homeHash})
	}
	ms.execMu.Unlock()
	// The abort must be durable before any participant acts on it: if it
	// were lost in a crash, a late coordinator could still commit a
	// transaction whose participants already rolled back.
	if lsn > 0 {
		if err := ms.syncAndWait(context.Background(), kv.LSN(lsn)); err != nil {
			return false, err
		}
	}
	return false, nil
}

// maybeResolve queues an orphaned-lock resolution when the lock has
// out-lived the timeout (coordinator presumed dead). Never blocks the
// execution path.
func (ms *MasterServer) maybeResolve(lerr *kv.LockedError) {
	if lerr.Age < ms.opts.TxnLockTimeout || lerr.Home.Addr == "" {
		return
	}
	ms.resolveMu.Lock()
	if ms.resolveBusy[lerr.Txn] {
		ms.resolveMu.Unlock()
		return
	}
	ms.resolveBusy[lerr.Txn] = true
	ms.resolveMu.Unlock()
	select {
	case ms.resolveKick <- txnResolveReq{id: lerr.Txn, home: lerr.Home}:
	default:
		// Queue full: drop; the next bounce off the lock re-queues.
		ms.resolveMu.Lock()
		delete(ms.resolveBusy, lerr.Txn)
		ms.resolveMu.Unlock()
	}
}

// txnResolver is the master's resident orphan resolver: one goroutine
// settling expired locks, so a storm of blocked clients cannot fan a
// goroutine herd at the home shard.
func (ms *MasterServer) txnResolver() {
	for {
		select {
		case <-ms.closed:
			return
		case req := <-ms.resolveKick:
			ms.resolveTxn(req.id, req.home, false)
			ms.resolveMu.Lock()
			delete(ms.resolveBusy, req.id)
			ms.resolveMu.Unlock()
		}
	}
}

// resolveTxn forces a decision for a prepared transaction — asking its
// home shard, which records abort-by-default if undecided — and applies the
// outcome locally, releasing the locks. Failures (home unreachable, range
// mid-migration) leave the locks alone; the next blocked operation
// re-triggers resolution. allowFrozen is set only by the migration's own
// pre-export resolution (see homeResolve).
func (ms *MasterServer) resolveTxn(id rifl.RPCID, home kv.TxnHome, allowFrozen bool) error {
	var commit bool
	var err error
	if home.MasterID == ms.id && home.Addr == ms.addr {
		// This master IS the home: resolve in-process instead of dialing
		// ourselves (and, for the migration path, inside the freeze). The
		// address must match too — in a sharded deployment every partition
		// uses the same master ID, and a participant mistaking itself for
		// the home would fork the decision.
		commit, err = ms.homeResolve(id, home.KeyHash, true, allowFrozen)
	} else {
		commit, err = ms.lookupDecision(id, home, true)
	}
	if err != nil {
		return err
	}
	if err := ms.applyResolvedDecision(id, commit); err != nil {
		return err
	}
	ms.mTxnOrphans.Inc()
	verdict := "aborted"
	if commit {
		verdict = "committed"
	}
	ms.jrn.Record(events.Event{
		Kind: events.KindTxnOrphanResolved, MasterID: ms.id, Epoch: ms.epoch,
		Detail: fmt.Sprintf("txn %d/%d %s via home master %d", id.Client, id.Seq, verdict, home.MasterID),
	})
	return nil
}

// txnForwardHops bounds how many home-range handoffs a decision lookup
// will chase. A chain longer than one means the range was rebalanced
// repeatedly while a prepare sat orphaned; four is far beyond anything a
// healthy cluster produces and keeps a forwarding cycle (two coordinators
// with stale records pointing at each other) from looping forever.
const txnForwardHops = 4

// lookupDecision asks a transaction's home shard for its decision. If the
// home range was rebalanced away after the transaction prepared, the old
// home answers StatusKeyMoved with the new owner's address in the payload
// and the lookup follows it, up to txnForwardHops hops.
func (ms *MasterServer) lookupDecision(id rifl.RPCID, home kv.TxnHome, resolve bool) (commit bool, err error) {
	addr := home.Addr
	req := &txnStatusRequest{ID: id, HomeHash: home.KeyHash, Resolve: resolve}
	for hop := 0; hop <= txnForwardHops; hop++ {
		reply, err := ms.txnStatusCall(addr, req)
		if err != nil {
			return false, fmt.Errorf("master %d: txn %v status at %s: %w", ms.id, id, addr, err)
		}
		if reply.Status == core.StatusKeyMoved && len(reply.Payload) > 0 {
			addr = string(reply.Payload)
			continue
		}
		if reply.Status != core.StatusOK || len(reply.Payload) != 1 || reply.Payload[0] == txnOutcomeUnknown {
			return false, fmt.Errorf("master %d: txn %v unresolved at %s: %v", ms.id, id, addr, reply.Status)
		}
		return reply.Payload[0] == txnOutcomeCommit, nil
	}
	return false, fmt.Errorf("master %d: txn %v status: forward chain from %s exceeds %d hops", ms.id, id, home.Addr, txnForwardHops)
}

// txnStatusCall performs one OpTxnStatus round trip against addr.
func (ms *MasterServer) txnStatusCall(addr string, req *txnStatusRequest) (*core.Reply, error) {
	p := rpc.NewPeer(ms.nw, ms.addr, addr)
	defer p.Close()
	ctx, cancel := context.WithTimeout(context.Background(), ms.opts.RPCTimeout)
	defer cancel()
	out, err := p.Call(ctx, OpTxnStatus, req.encode())
	if err != nil {
		return nil, err
	}
	return core.DecodeReply(out)
}

// applyResolvedDecision applies a home-shard decision to the local
// prepared transaction (releasing its locks) and makes it durable.
func (ms *MasterServer) applyResolvedDecision(id rifl.RPCID, commit bool) error {
	if kv.TxnTrace != nil {
		kv.TxnTrace("master %d (%s): applyResolvedDecision %v commit=%v", ms.id, ms.addr, id, commit)
	}
	ms.execMu.Lock()
	hashes := ms.store.PreparedKeyHashes(id)
	if hashes == nil {
		ms.execMu.Unlock()
		return nil // already decided here
	}
	cmd := kv.TxnDecide(&kv.TxnCommand{ID: id, Commit: commit})
	_, lsn, err := ms.store.Apply(&cmd, rifl.RPCID{})
	if err == nil && lsn > 0 {
		ms.state.NoteMutation(hashes, uint64(lsn), commute.ClassWrite)
	}
	ms.execMu.Unlock()
	if err != nil {
		return fmt.Errorf("master %d: apply resolved txn %v: %w", ms.id, id, err)
	}
	if lsn > 0 {
		return ms.syncAndWait(context.Background(), kv.LSN(lsn))
	}
	return nil
}

// resolveLockedRange settles every prepared transaction holding locks
// inside rs — the migration pre-export step: a range must not be handed off
// with live locks, or the target would inherit lock state it has no
// prepared transaction for. Forcing decisions (abort by default at the
// home) is exactly the clean mid-rebalance abort the routing layer's
// ErrKeyMoved retry expects.
func (ms *MasterServer) resolveLockedRange(rs []witness.HashRange) error {
	pred := func(key []byte) bool { return witness.RangesContain(rs, witness.RingPoint(key)) }
	for _, lt := range ms.store.LockedTxns(pred) {
		if err := ms.resolveTxn(lt.ID, lt.Home, true); err != nil {
			return err
		}
	}
	return nil
}
