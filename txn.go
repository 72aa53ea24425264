package curp

import (
	"context"

	"curp/internal/txn"
)

// Transaction errors.
var (
	// ErrTxnAborted reports a transaction that did not commit — a read's
	// version changed concurrently, a buffered increment targeted a
	// non-counter value, or an orphan resolver decided abort first.
	// Nothing was applied on any shard; build a fresh Txn and retry.
	ErrTxnAborted = txn.ErrTxnAborted
	// ErrTxnDone reports use of a Txn after Commit or Abort.
	ErrTxnDone = txn.ErrTxnDone
)

// Txn is a buffered atomic transaction: Get reads linearizably (recording
// the version it saw), Put/Increment/Delete buffer writes locally, and
// Commit applies everything atomically — across shards — or nothing.
//
// Commit picks the cheapest safe protocol. When every key lives on one
// shard, the whole transaction becomes a single atomic command through
// CURP's normal update path: recorded on witnesses and, when it commutes
// with the master's unsynced window, completed speculatively in 1 RTT with
// no locks and no extra round trips. When keys span shards, Commit runs a
// client-coordinated two-phase commit: participants validate read versions
// and lock the keys, the commit decision is made durable as a RIFL-tracked
// record on the transaction's home shard (witness/backup replicated,
// recovered after a master crash, migrated with its range during a
// Rebalance), and the decision is then distributed. Orphaned locks left by
// a dead coordinator resolve server-side: after a timeout the participant
// asks the home shard, which records an abort by default.
//
// Commit returns nil exactly when the transaction committed and is
// durable. ErrTxnAborted means nothing was applied anywhere — optimistic
// validation failed — and the application should rebuild and retry. A
// transaction caught by a live Rebalance retries internally under the new
// ring (or aborts cleanly); it never wedges locks.
//
// A Txn is not safe for concurrent use. It holds no server-side state
// before Commit, so Abort (or just dropping the Txn) is free.
type Txn struct {
	inner *txn.Txn
}

// Txn opens an empty transaction on a single-partition deployment. All
// keys share the one shard, so Commit always uses the 1-RTT-capable
// single-shard path.
func (c *Client) Txn() *Txn {
	return &Txn{inner: txn.New(c.inner)}
}

// Txn opens an empty transaction spanning any subset of the deployment's
// shards.
func (c *ShardedClient) Txn() *Txn {
	return &Txn{inner: txn.New(c.inner)}
}

// Get reads key within the transaction. The first read of a key is
// linearizable and records the version Commit will revalidate; reads of
// keys the transaction has written reflect the buffered writes
// (read-your-writes).
func (t *Txn) Get(ctx context.Context, key []byte) (value []byte, ok bool, err error) {
	return t.inner.Get(ctx, key)
}

// Put buffers a write of value under key.
func (t *Txn) Put(key, value []byte) { t.inner.Put(key, value) }

// Delete buffers a removal of key.
func (t *Txn) Delete(key []byte) { t.inner.Delete(key) }

// Increment buffers adding delta to the counter at key; the new value is
// observable through Get before commit and applied exactly-once at commit.
func (t *Txn) Increment(key []byte, delta int64) { t.inner.Increment(key, delta) }

// Commit atomically validates every read and applies every buffered
// write; see the type documentation for the protocol and error contract.
func (t *Txn) Commit(ctx context.Context) error { return t.inner.Commit(ctx) }

// Abort discards the transaction. It cannot fail: no shard holds any state
// for an uncommitted transaction.
func (t *Txn) Abort() { t.inner.Abort() }
