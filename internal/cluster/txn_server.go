package cluster

import (
	"context"
	"errors"
	"fmt"
	"time"

	"curp/internal/core"
	"curp/internal/events"
	"curp/internal/kv"
	"curp/internal/metrics"
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
	return ms.handleTxnPhase(ctx, payload, kv.OpTxnPrepare, ms.mLatPrepare, "txn_prepare")
}

// handleTxnDecide is phase two on a participant: apply or discard the
// prepared writes, release the locks, and make the outcome durable before
// acknowledging.
func (ms *MasterServer) handleTxnDecide(ctx context.Context, payload []byte) ([]byte, error) {
	ms.mTxnDecides.Inc()
	return ms.handleTxnPhase(ctx, payload, kv.OpTxnDecide, ms.mLatDecide, "txn_decide")
}

// handleTxnPhase is the shared participant path of prepare and decide, run
// in the engine's Durable mode: the lock set (prepare) or the applied
// writes (decide) must be on the backups before the caller may act on the
// reply — a vote that dies with the master would let the coordinator commit
// a transaction whose participant forgot its half. A duplicate re-syncs
// too: the original's reply may never have reached the client, and the
// retried caller inherits the same durability guarantee.
func (ms *MasterServer) handleTxnPhase(ctx context.Context, payload []byte, want kv.CommandOp, lat *metrics.Histogram, op string) ([]byte, error) {
	start := time.Now()
	req, err := core.DecodeRequest(payload)
	if err != nil {
		ms.observeOp(ctx, lat, op, "error", "", start)
		return nil, err
	}
	var outs [1]core.Outcome
	// The op code leads the command encoding: check it before the engine
	// decodes, so a prepare RPC can only ever run a prepare.
	if len(req.Payload) == 0 || kv.CommandOp(req.Payload[0]) != want {
		outs[0].Reply = core.Reply{Status: core.StatusError, Err: fmt.Sprintf("master: txn phase wants %v", want)}
	} else {
		outs[0] = ms.eng.Execute(ctx, req, core.Durable)
		ms.eng.Reveal(ctx, outs[:])
	}
	// The slow-op trace verdict: "ok", "locked", or the reply status.
	verdict := outs[0].Reply.Status.String()
	if outs[0].Reply.Status == core.StatusTxnLocked {
		verdict = "locked"
	}
	ms.observeOp(ctx, lat, op, verdict, "", start)
	return outs[0].Reply.Encode(), nil
}

// handleTxnStatus serves decision lookups on the home shard, recording an
// abort by default when asked to resolve an undecided transaction.
func (ms *MasterServer) handleTxnStatus(ctx context.Context, payload []byte) ([]byte, error) {
	req, err := decodeTxnStatusRequest(payload)
	if err != nil {
		return nil, err
	}
	if ms.State().Frozen() {
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
	ctx := context.Background()
	ms.eng.Lock()
	if ms.migr.movedAny([]uint64{homeHash}) {
		ms.eng.Unlock()
		return false, errTxnMoved
	}
	// Existing decisions are served even while the range is frozen: the
	// source stays authoritative for reads until the handoff commits.
	if commit, known := ms.store.TxnDecision(id); known {
		head := ms.Head()
		ms.eng.Unlock()
		// The decision may have arrived through the speculative update
		// path and still be witness-only. A resolver acting on it makes it
		// irreversible at a participant, so it must be on the backups
		// first — otherwise a home crash could lose the decision after one
		// participant applied it, forking the outcome.
		if err := ms.eng.SyncTo(ctx, head); err != nil {
			return false, err
		}
		return commit, nil
	}
	if !resolve {
		ms.eng.Unlock()
		return false, errTxnUnknown
	}
	if !allowFrozen && ms.migr.blockedAny([]uint64{homeHash}) {
		ms.eng.Unlock()
		return false, errTxnMoved
	}

	// No decision exists: presume abort, anchored in RIFL under the
	// transaction's own ID so a late coordinator decide gets the abort back.
	// Internal mode: the range checks above are this write's admission —
	// the migration's pre-export resolution writes into a range it froze.
	cmd := kv.TxnDecide(&kv.TxnCommand{
		ID:         id,
		Commit:     false,
		HomeRecord: true,
		Home:       kv.TxnHome{MasterID: ms.id, Addr: ms.addr, KeyHash: homeHash},
	})
	out := ms.applyInternal(cmd, id, []uint64{homeHash})
	ms.eng.Unlock()
	switch out.Reply.Status {
	case core.StatusIgnored:
		// The coordinator's session acked the ID (possible only after
		// every participant applied its decide) or its lease expired with
		// no decision recorded; either way no commit can be pending and
		// no participant still holds prepared state that needs this
		// answer durable. Return the abort WITHOUT recording it: writing
		// it would both plant a wrong-direction record when the ack raced
		// a commit's decision-GC (the forget already pruned the real
		// outcome) and re-grow the decision table with an entry nothing
		// will ever read.
		return false, nil
	case core.StatusError:
		return false, fmt.Errorf("master %d: resolve txn %v: %s", ms.id, id, out.Reply.Err)
	}
	// A fresh abort, or a saved decide the decision table missed (the normal
	// paths update both together, but a saved result is authoritative).
	// Either must be durable before any participant acts on it: were it
	// lost in a crash, a late coordinator could still commit a transaction
	// whose participants already rolled back.
	res, err := kv.DecodeResult(out.Reply.Payload)
	if err != nil {
		return false, err
	}
	if err := ms.eng.SyncTo(ctx, out.SyncTo); err != nil {
		return false, err
	}
	return res.Found, nil
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
	ms.eng.Lock()
	hashes := ms.store.PreparedKeyHashes(id)
	if hashes == nil {
		ms.eng.Unlock()
		return nil // already decided here
	}
	out := ms.applyInternal(kv.TxnDecide(&kv.TxnCommand{ID: id, Commit: commit}), rifl.RPCID{}, hashes)
	ms.eng.Unlock()
	if out.Reply.Status != core.StatusOK {
		return fmt.Errorf("master %d: apply resolved txn %v: %v %s", ms.id, id, out.Reply.Status, out.Reply.Err)
	}
	return ms.eng.SyncTo(context.Background(), out.SyncTo)
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
