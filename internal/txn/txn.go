// Package txn is the coordinator state machine of cross-shard atomic
// transactions: Sinfonia-style mini-transactions committed by the CLIENT
// with two-phase commit over CURP shards, anchored in RIFL for exactly-once
// decisions (paper lineage: RIFL §"Implementing transactions with RIFL" /
// RAMCloud distributed transactions).
//
// A Txn buffers reads (recording the version each saw) and writes. Commit
// picks the cheapest safe protocol:
//
//   - Every key on ONE shard: the whole transaction becomes a single atomic
//     kv.OpTxnApply command through the normal CURP update engine — witness
//     recorded, speculative when it commutes with the master's unsynced
//     window, i.e. the 1-RTT fast path; no locks, no 2PC. (This is the
//     commutativity dividend: a transaction that provably commutes with
//     concurrent traffic needs no extra coordination round.)
//   - Keys on several shards: client-coordinated 2PC. Phase one sends
//     kv.OpTxnPrepare to each participant (validate read versions, lock the
//     keys, stash the writes, sync). If all vote commit, the decision is
//     made durable as a RIFL-tracked record on the transaction's HOME shard
//     (the shard owning the first buffered key) via the normal witness/
//     backup path, then distributed to participants with kv.OpTxnDecide.
//     Any abort vote, redirect, or resolver race aborts cleanly.
//
// Failure handling: a participant crash recovers locks and stashed writes
// from a backup's state; a coordinator crash leaves orphaned locks that the
// participant masters resolve after a timeout by asking the home shard,
// which records abort-by-default when no decision exists — and because the
// decision slot is the transaction's RIFL completion record, a coordinator
// that wakes up late and retries its commit gets the abort back instead of
// committing. A live shard rebalance bounces in-flight phases with
// core.ErrKeyMoved: undecided transactions abort (or retry under the new
// ring) instead of wedging locks, and decision records migrate with their
// home key's range.
package txn

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"curp/internal/core"
	"curp/internal/kv"
	"curp/internal/rifl"
	"curp/internal/witness"
)

// Backend is the routing surface a transaction commits through: a single
// CURP partition (every key maps to shard 0) or a sharded routing client.
// Shard indices are stable for the lifetime of a routing snapshot; Refresh
// adopts newer routing after a redirect.
type Backend interface {
	// ShardOf maps a key to its owning shard under current routing.
	ShardOf(key []byte) int
	// Refresh adopts newer routing (after core.ErrKeyMoved); it reports
	// whether the routing changed.
	Refresh() bool
	// GetVersioned performs a linearizable read of key, returning the full
	// result including the object version (routed by key, redirect-safe).
	GetVersioned(ctx context.Context, key []byte) (*kv.Result, error)
	// Partition returns shard's transaction endpoint, or an error when the
	// deployment has no such shard.
	Partition(shard int) (Partition, error)
}

// Partition is one shard's transaction endpoint — the method set of
// *cluster.Client, declared here because cluster imports this package.
// None of its calls re-routes: a core.ErrKeyMoved surfaces so the
// coordinator can regroup the whole transaction under fresh routing.
type Partition interface {
	// SubmitTxnApply commits a single-shard transaction atomically through
	// the CURP update engine; the result's Found reports whether
	// validation held.
	SubmitTxnApply(ctx context.Context, t *kv.TxnCommand) (*kv.Result, error)
	// TxnHomeInfo returns the partition's master coordinates (ID and
	// address); the coordinator fills in the home key hash.
	TxnHomeInfo(ctx context.Context) (kv.TxnHome, error)
	// MintTxnID allocates the transaction's RIFL ID from the partition's
	// session (home shard only: the ID doubles as the decide RPC's
	// identity there).
	MintTxnID() rifl.RPCID
	// FinishTxnID releases the transaction ID once no server will ever
	// need its completion record again.
	FinishTxnID(id rifl.RPCID)
	// TxnPrepare runs phase one; the result's Found is the vote.
	TxnPrepare(ctx context.Context, cmd *kv.Command) (*kv.Result, error)
	// TxnDecide runs phase two (apply or discard prepared writes).
	TxnDecide(ctx context.Context, cmd *kv.Command) (*kv.Result, error)
	// TxnDecideHome records the transaction's decision on this (home)
	// partition and returns the outcome that stuck (false when an orphan
	// resolver recorded an abort first).
	TxnDecideHome(ctx context.Context, id rifl.RPCID, commit bool, homeHash uint64) (bool, error)
	// ForgetTxnDecision prunes the transaction's decision record on this
	// (home) partition once every participant acknowledged the decide
	// (decision-record GC). Best-effort: a failure just leaves the record
	// until lease expiry reclaims it.
	ForgetTxnDecision(ctx context.Context, id rifl.RPCID, homeHash uint64)
	// CountTxnCommit / CountTxnAbort land a transaction's final outcome in
	// the partition client's statistics. orphan marks aborts that were
	// decided by a server-side orphan resolver (the home shard recorded
	// abort-by-default before the coordinator's commit decision arrived) —
	// the client-observable signature of the presumed-abort recovery path.
	CountTxnCommit()
	CountTxnAbort(orphan bool)
}

// Errors returned by Commit.
var (
	// ErrTxnAborted reports a transaction that did not commit: a read's
	// version moved, a write was illegal (e.g. incrementing a non-counter),
	// or an orphan resolver decided abort first. Nothing was applied; the
	// application may rebuild and retry the transaction.
	ErrTxnAborted = errors.New("curp: transaction aborted")
	// ErrTxnDone reports use of a transaction after Commit or Abort.
	ErrTxnDone = errors.New("curp: transaction already finished")
	// ErrTxnBusy marks a prepare that kept colliding with other
	// transactions' locks until its retries ran out. The coordinator
	// converts it into a clean abort (the classic lock-wait-timeout →
	// abort rule): nothing executed under the blocked prepare, so rolling
	// back the voted participants is always safe.
	ErrTxnBusy = errors.New("curp: transaction blocked by concurrent locks")
)

// commitBudget bounds how long Commit keeps retrying redirects (live
// rebalances) before giving up; the caller's context caps it sooner.
const commitBudget = 2 * time.Minute

// readEntry is one cached linearizable read: the version to revalidate at
// commit and the value for read-your-writes derivation.
type readEntry struct {
	version uint64
	value   []byte
	found   bool
}

// Txn is one buffered transaction. Reads go to the deployment immediately
// (recording versions); writes buffer locally until Commit. Not safe for
// concurrent use.
type Txn struct {
	b Backend

	mu     sync.Mutex
	done   bool
	writes []kv.TxnWrite        // buffered, in program order
	reads  map[string]readEntry // read-set: key → first observed state
	order  []string             // first-touch order of keys (home selection)
	seen   map[string]bool
	// orphanAbort marks that the final ErrTxnAborted came from an orphan
	// resolver's abort-by-default beating the coordinator's commit.
	orphanAbort bool
}

// New opens an empty transaction over b.
func New(b Backend) *Txn {
	return &Txn{b: b, reads: make(map[string]readEntry), seen: make(map[string]bool)}
}

func (t *Txn) touch(key []byte) {
	if !t.seen[string(key)] {
		t.seen[string(key)] = true
		t.order = append(t.order, string(key))
	}
}

// Get reads key within the transaction: the first read of a key fetches it
// linearizably and records its version for commit-time validation; later
// reads — and reads of keys the transaction wrote — reflect the buffered
// writes (read-your-writes).
func (t *Txn) Get(ctx context.Context, key []byte) (value []byte, ok bool, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return nil, false, ErrTxnDone
	}
	writes := t.writesFor(key)
	var val []byte
	var found bool
	// The underlying state is needed when nothing is buffered yet, or when
	// the first buffered write is an Increment (it applies over the base);
	// a leading Put or Delete fully determines the starting state.
	if len(writes) == 0 || writes[0].Op == kv.OpIncrement {
		base, err := t.readBase(ctx, key)
		if err != nil {
			return nil, false, err
		}
		val, found = base.value, base.found
	}
	for _, w := range writes {
		switch w.Op {
		case kv.OpPut:
			val, found = w.Value, true
		case kv.OpDelete:
			val, found = nil, false
		case kv.OpIncrement:
			var cur int64
			if found {
				n, perr := strconv.ParseInt(string(val), 10, 64)
				if perr != nil {
					return nil, false, kv.ErrNotCounter
				}
				cur = n
			}
			val, found = []byte(strconv.FormatInt(cur+w.Delta, 10)), true
		}
	}
	if !found {
		return nil, false, nil
	}
	return append([]byte(nil), val...), true, nil
}

// writesFor returns the buffered writes touching key, in program order.
func (t *Txn) writesFor(key []byte) []kv.TxnWrite {
	var out []kv.TxnWrite
	for _, w := range t.writes {
		if string(w.Key) == string(key) {
			out = append(out, w)
		}
	}
	return out
}

// readBase fetches (once) and caches the underlying state of key,
// recording it in the read set. Must hold t.mu.
func (t *Txn) readBase(ctx context.Context, key []byte) (readEntry, error) {
	if e, ok := t.reads[string(key)]; ok {
		return e, nil
	}
	res, err := t.b.GetVersioned(ctx, key)
	if err != nil {
		return readEntry{}, err
	}
	e := readEntry{version: res.Version, value: res.Value, found: res.Found}
	t.reads[string(key)] = e
	t.touch(key)
	return e, nil
}

// Put buffers a write of value under key.
func (t *Txn) Put(key, value []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.touch(key)
	t.writes = append(t.writes, kv.TxnWrite{Op: kv.OpPut, Key: key, Value: value})
}

// Delete buffers a removal of key.
func (t *Txn) Delete(key []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.touch(key)
	t.writes = append(t.writes, kv.TxnWrite{Op: kv.OpDelete, Key: key})
}

// Increment buffers adding delta to the counter at key. The new value is
// observable through Get before commit, and on the shard after.
func (t *Txn) Increment(key []byte, delta int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.touch(key)
	t.writes = append(t.writes, kv.TxnWrite{Op: kv.OpIncrement, Key: key, Delta: delta})
}

// Abort discards the transaction. It never fails: until Commit, all writes
// are buffered client-side and no shard holds any state for the
// transaction.
func (t *Txn) Abort() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.done = true
}

// shardGroup is one participant's slice of the transaction.
type shardGroup struct {
	shard  int
	reads  []kv.TxnRead
	writes []kv.TxnWrite
}

// hashes returns the group's commutativity footprint. Decides carry it
// explicitly (their Txn payload has no key sets), so migration freezes
// bounce them and the master tracks the applied writes as unsynced.
func (g *shardGroup) hashes() []uint64 {
	hs := make([]uint64, 0, len(g.reads)+len(g.writes))
	for _, r := range g.reads {
		hs = append(hs, witness.KeyHash(r.Key))
	}
	for _, w := range g.writes {
		hs = append(hs, witness.KeyHash(w.Key))
	}
	return hs
}

// group splits the read and write sets by owning shard under current
// routing, preserving program order within each group.
func (t *Txn) group() []*shardGroup {
	byShard := make(map[int]*shardGroup)
	var order []*shardGroup
	get := func(s int) *shardGroup {
		g := byShard[s]
		if g == nil {
			g = &shardGroup{shard: s}
			byShard[s] = g
			order = append(order, g)
		}
		return g
	}
	for _, key := range t.order {
		if e, ok := t.reads[key]; ok {
			g := get(t.b.ShardOf([]byte(key)))
			g.reads = append(g.reads, kv.TxnRead{Key: []byte(key), Version: e.version})
		}
	}
	for _, w := range t.writes {
		g := get(t.b.ShardOf(w.Key))
		g.writes = append(g.writes, w)
	}
	return order
}

// Commit atomically validates every read and applies every buffered write.
// nil means the transaction committed and is durable (f-fault tolerant) on
// every touched shard. ErrTxnAborted means nothing was applied. Any other
// error after the decision point reports the commit as durable but not yet
// fully distributed (stragglers settle server-side).
func (t *Txn) Commit(ctx context.Context) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return ErrTxnDone
	}
	t.done = true
	if len(t.writes) == 0 && len(t.reads) == 0 {
		return nil
	}
	err := t.commitLoop(ctx)
	// Outcomes are counted on shard 0's client; the deployment's Stats
	// sums over shards, so the total does not depend on which.
	if p, perr := t.b.Partition(0); perr == nil {
		switch {
		case err == nil:
			p.CountTxnCommit()
		case errors.Is(err, ErrTxnAborted):
			p.CountTxnAbort(t.orphanAbort)
		}
	}
	return err
}

// commitLoop runs the commit protocol, regrouping and retrying across
// live rebalances until the budget runs out.
func (t *Txn) commitLoop(ctx context.Context) error {
	deadline := time.Now().Add(commitBudget)
	for attempt := 0; ; attempt++ {
		groups := t.group()
		var err error
		if len(groups) == 1 {
			err = t.commitSingle(ctx, groups[0])
		} else {
			err = t.commitCross(ctx, groups)
		}
		if !errors.Is(err, core.ErrKeyMoved) {
			return err
		}
		// A live rebalance moved one of the transaction's ranges
		// mid-commit. Nothing committed (redirected phases never execute,
		// and prepared participants were aborted), so regroup under fresh
		// routing and run the protocol again.
		if time.Now().After(deadline) {
			return fmt.Errorf("curp: txn keys still moving after %v: %w", commitBudget, err)
		}
		if !t.b.Refresh() {
			if perr := core.PauseJittered(ctx, attempt, time.Millisecond, 50*time.Millisecond); perr != nil {
				return perr
			}
		}
	}
}

// commitSingle is the single-shard fast path: one atomic OpTxnApply
// through the normal CURP engine.
func (t *Txn) commitSingle(ctx context.Context, g *shardGroup) error {
	p, err := t.b.Partition(g.shard)
	if err != nil {
		return err
	}
	res, err := p.SubmitTxnApply(ctx, &kv.TxnCommand{Reads: g.reads, Writes: g.writes})
	if err != nil {
		return err
	}
	if !res.Found {
		return ErrTxnAborted
	}
	return nil
}

// commitCross is the cross-shard 2PC path.
func (t *Txn) commitCross(ctx context.Context, groups []*shardGroup) error {
	// The home shard anchors the decision: the shard owning the first key
	// the transaction touched.
	homeKey := []byte(t.order[0])
	home, err := t.b.Partition(t.b.ShardOf(homeKey))
	if err != nil {
		return err
	}
	homeHash := witness.KeyHash(homeKey)
	homeInfo, err := home.TxnHomeInfo(ctx)
	if err != nil {
		return err
	}
	homeInfo.KeyHash = homeHash
	id := home.MintTxnID()

	// Phase one, all participants in parallel.
	type voteRes struct {
		g    *shardGroup
		vote bool
		err  error
	}
	votes := make(chan voteRes, len(groups))
	for _, g := range groups {
		go func(g *shardGroup) {
			cmd := kv.TxnPrepare(&kv.TxnCommand{
				ID:     id,
				Home:   homeInfo,
				Reads:  g.reads,
				Writes: g.writes,
			})
			p, err := t.b.Partition(g.shard)
			if err != nil {
				votes <- voteRes{g: g, err: err}
				return
			}
			res, err := p.TxnPrepare(ctx, &cmd)
			if err != nil {
				votes <- voteRes{g: g, err: err}
				return
			}
			votes <- voteRes{g: g, vote: res.Found}
		}(g)
	}
	var prepared []*shardGroup // voted commit: hold locks until a decision
	var unknown []*shardGroup  // errored: may or may not hold locks
	moved := false
	voteAbort := false
	var hardErr error
	for range groups {
		v := <-votes
		switch {
		case v.err == nil && v.vote:
			prepared = append(prepared, v.g)
		case v.err == nil:
			voteAbort = true
		case errors.Is(v.err, ErrTxnBusy):
			// Lock-wait timeout: the prepare never executed, so treat it
			// as an abort vote rather than an in-doubt failure.
			voteAbort = true
		case errors.Is(v.err, core.ErrKeyMoved):
			moved = true
		default:
			hardErr = v.err
			unknown = append(unknown, v.g)
		}
	}

	if voteAbort || moved || hardErr != nil {
		// No decision was (or ever will be) recorded under this ID, so
		// every prepared participant can be released directly; shards whose
		// prepare errored get a best-effort abort too (their prepare may
		// have landed without the reply). Stragglers fall to the masters'
		// lock-timeout resolution, which presumes abort — consistent with
		// this outcome by construction.
		t.distributeDecide(ctx, id, false, append(prepared, unknown...))
		home.FinishTxnID(id)
		switch {
		case voteAbort:
			return ErrTxnAborted
		case hardErr != nil:
			return fmt.Errorf("curp: txn prepare: %w", hardErr)
		default:
			return core.ErrKeyMoved
		}
	}

	// Phase two: make the commit decision durable on the home shard. The
	// decision RPC rides the normal update path under the transaction's own
	// RIFL ID; if an orphan resolver recorded an abort first, the saved
	// abort comes back and the transaction rolls back.
	committed, err := home.TxnDecideHome(ctx, id, true, homeHash)
	if err != nil {
		if errors.Is(err, core.ErrKeyMoved) {
			// The home range moved before the decision landed: nothing is
			// recorded anywhere (redirected updates never execute and their
			// witness records are retracted), so abort cleanly and let the
			// caller's loop retry under fresh routing.
			t.distributeDecide(ctx, id, false, prepared)
			home.FinishTxnID(id)
			return core.ErrKeyMoved
		}
		// In doubt: the decide may or may not have landed. Participants
		// must NOT be aborted (the decision could be commit); their locks
		// settle through lock-timeout resolution against whatever the home
		// shard ends up holding. Keep the ID un-acked so the home record
		// stays live for resolvers.
		return fmt.Errorf("curp: txn decision outcome unknown: %w", err)
	}
	if !committed {
		// An orphan resolver recorded an abort first; the record exists at
		// the home, so once every prepared participant APPLIED the
		// rollback it is garbage too.
		settled, applied := t.distributeDecide(ctx, id, false, prepared)
		if settled && applied {
			home.ForgetTxnDecision(ctx, id, homeHash)
		}
		home.FinishTxnID(id)
		t.orphanAbort = true
		return ErrTxnAborted
	}

	// Distribute the commit. The decision is durable, so the transaction
	// HAS committed regardless of what happens below; a participant we
	// cannot reach applies it later via lock-timeout resolution, and its
	// locked keys block conflicting reads until then (no one observes the
	// pre-commit state after this point).
	if settled, applied := t.distributeDecide(ctx, id, true, prepared); settled {
		// Every participant settled: no completion record for the ID is
		// needed anywhere anymore.
		home.FinishTxnID(id)
		if applied {
			// ...and every decide truly APPLIED (none bounced off a
			// migrating range), so the home's decision record has no
			// readers left — prune it instead of letting the decision
			// table grow until lease expiry. A bounced decide means the
			// participant's prepared state settles through migration's
			// force-resolution, which must still find the record; those
			// records fall to lease expiry instead.
			home.ForgetTxnDecision(ctx, id, homeHash)
		}
	}
	return nil
}

// distributeDecide sends the decision to every listed participant in
// parallel. settled reports whether every participant either applied the
// decide or bounced it with core.ErrKeyMoved — a bounce is settled
// because the range's prepared transactions resolve through migration's
// own machinery (pre-export force-resolution, or replay at the new
// owner). applied is the STRICT outcome: every decide executed (no
// bounces) — the only condition under which the home's decision record
// has provably no readers left and may be garbage-collected; a bounced
// participant's pending force-resolution still needs to look it up.
func (t *Txn) distributeDecide(ctx context.Context, id rifl.RPCID, commit bool, groups []*shardGroup) (settled, applied bool) {
	if len(groups) == 0 {
		return true, true
	}
	type outcome struct{ settled, applied bool }
	done := make(chan outcome, len(groups))
	for _, g := range groups {
		go func(g *shardGroup) {
			cmd := kv.TxnDecide(&kv.TxnCommand{ID: id, Commit: commit})
			cmd.Hashes = g.hashes()
			p, err := t.b.Partition(g.shard)
			if err == nil {
				_, err = p.TxnDecide(ctx, &cmd)
			}
			done <- outcome{
				settled: err == nil || errors.Is(err, core.ErrKeyMoved),
				applied: err == nil,
			}
		}(g)
	}
	settled, applied = true, true
	for range groups {
		o := <-done
		settled = settled && o.settled
		applied = applied && o.applied
	}
	return settled, applied
}
