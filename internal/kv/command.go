// Package kv is the RAMCloud-like storage substrate the paper's §5.1
// evaluation runs CURP on: an in-memory key-value store with versioned
// objects, the log of updates its backups have not acknowledged yet, and
// the backup's storage half, which materialises those updates into a
// replica of the master's state — objects, completion records, prepared
// transactions — and hands that state, not a history, to a recovering
// master (Snapshot, Install). It deliberately mirrors the properties CURP
// relies on: every update appends a log entry carrying the RIFL RPC ID and
// result (so completion records are durable exactly when the update is,
// paper §3.3), and each object remembers the LSN of its last update (so
// masters can tell synced from unsynced objects by comparing against the
// last synced LSN, paper §4.3).
package kv

import (
	"errors"
	"fmt"

	"curp/internal/commute"
	"curp/internal/rpc"
	"curp/internal/witness"
)

// CommandOp enumerates the store's operations.
type CommandOp uint8

// Supported operations. Writes are Put, Delete, Increment, and CondPut;
// Get and MultiGet are read-only.
const (
	OpGet CommandOp = iota
	OpPut
	OpDelete
	OpIncrement
	OpCondPut // conditional write: succeeds only at the expected version
	OpMultiPut
	OpMultiGet
	// OpMultiIncr atomically adds per-key deltas to several counters (one
	// log entry, all-or-nothing); each pair's Value holds the decimal
	// delta. It commutes only with operations touching none of its keys.
	OpMultiIncr
	// OpMigrateObject installs one migrated object verbatim during a shard
	// rebalance: Key/Value are the object, ExpectVersion carries the
	// version it had on the source shard (preserved so conditional writes
	// keep working across the handoff), and Delta != 0 marks a tombstone.
	// It is issued only by the migration install path, never by clients.
	OpMigrateObject
	// OpMigrateRecord installs one migrated RIFL completion record: the
	// entry's RPC ID is the original operation's ID, Value holds the
	// original encoded Result, and Hashes carries the operation's
	// commutativity footprint. The command mutates no object — it exists
	// so the completion record rides the log to the target's backups and
	// survives a target crash exactly like a natively executed operation.
	OpMigrateRecord
	// OpTxnPrepare is phase one of a cross-shard transaction on a
	// participant shard: validate the shard's read versions and lock every
	// touched key, stashing the shard's writes until the decision arrives.
	// See txn.go.
	OpTxnPrepare
	// OpTxnDecide is phase two: record the transaction's outcome in the
	// home shard's decision table (Txn.HomeRecord), or apply/discard a
	// participant's prepared writes and release its locks.
	OpTxnDecide
	// OpTxnForget prunes a transaction's decision record from the home
	// shard once every participant acknowledged its decide — the record's
	// only readers are resolvers of still-locked participants, so after
	// the last ack it is garbage. Logged (replay re-prunes); forgetting a
	// record that does not exist is a no-op that appends nothing.
	OpTxnForget
	// OpTxnApply commits a single-shard transaction atomically in one log
	// entry: validate every read version, then apply every write. It takes
	// no locks and rides CURP's normal speculative update path.
	OpTxnApply
	// OpAppend appends Value to the byte string at Key (creating it when
	// absent). Appends are order-dependent — "ab" ≠ "ba" — so the op stays
	// in the write class; it exists because append-heavy logs still want
	// the single-RPC verb.
	OpAppend
	// OpSetAdd adds Value as a member of the set at Key. Additions commute
	// with each other (the stored set is kept sorted and deduplicated), so
	// concurrent SetAdds on one hot set stay on the 1-RTT fast path.
	OpSetAdd
	// OpSetRemove removes Value from the set at Key. Removals commute with
	// each other; an add and a remove of the same era do NOT commute, which
	// forces a sync between them and yields observed-remove semantics (a
	// remove only ever deletes members whose add it was ordered after).
	OpSetRemove
	// OpSetMembers reads the set at Key as one member per Values entry.
	OpSetMembers
	// OpBucketTake takes Delta tokens from the bucket at Key (a decimal
	// counter refilled with Increment/Put). A grant subtracts and returns
	// the remainder; an exhausted bucket denies (Found=false) but is STILL
	// logged, so the denial's completion record is durable before the
	// client may observe it. Takes commute while the bucket stays positive;
	// a take that denies or drains the bucket demotes itself to the sync
	// path (Result.Demote).
	OpBucketTake
	// OpPurgeExpired deletes the objects named in Pairs whose stored expiry
	// is ≤ Delta (the purge cutoff, a wall-clock timestamp in unix nanos
	// chosen by the master when it proposed the purge). Carrying both the
	// keys and the cutoff makes replay deterministic: a backup replaying
	// the log reaches the same state without consulting its own clock.
	// Issued only by the master's sync tail, never by clients.
	OpPurgeExpired
	// OpExpireClient marks the expiry of a RIFL client lease in the log:
	// Delta carries the client ID. It mutates no object. PAPER §4.8: the
	// master drops an expired client's completion records after a sync; the
	// marker is how the backups, whose completion tables follow the log,
	// drop them too, at the same log position. Issued only by the master.
	OpExpireClient
)

// String names the operation.
func (o CommandOp) String() string {
	switch o {
	case OpGet:
		return "get"
	case OpPut:
		return "put"
	case OpDelete:
		return "delete"
	case OpIncrement:
		return "increment"
	case OpCondPut:
		return "condput"
	case OpMultiPut:
		return "multiput"
	case OpMultiGet:
		return "multiget"
	case OpMultiIncr:
		return "multiincr"
	case OpMigrateObject:
		return "migrate-object"
	case OpMigrateRecord:
		return "migrate-record"
	case OpTxnPrepare:
		return "txn-prepare"
	case OpTxnForget:
		return "txn-forget"
	case OpTxnDecide:
		return "txn-decide"
	case OpTxnApply:
		return "txn-apply"
	case OpAppend:
		return "append"
	case OpSetAdd:
		return "set-add"
	case OpSetRemove:
		return "set-remove"
	case OpSetMembers:
		return "set-members"
	case OpBucketTake:
		return "bucket-take"
	case OpPurgeExpired:
		return "purge-expired"
	case OpExpireClient:
		return "expire-client"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// KV is one key/value pair of a multi-object command.
type KV struct {
	Key   []byte
	Value []byte
}

// IncrPair is one leg of an atomic multi-key increment.
type IncrPair struct {
	Key   []byte
	Delta int64
}

// Command is one client operation on the store.
type Command struct {
	Op    CommandOp
	Key   []byte
	Value []byte
	// Delta is the increment amount for OpIncrement.
	Delta int64
	// ExpectVersion is the required current version for OpCondPut.
	ExpectVersion uint64
	// Pairs carries the objects of OpMultiPut / the keys of OpMultiGet.
	Pairs []KV
	// Hashes, when set, overrides the computed commutativity footprint.
	// Only OpMigrateRecord uses it: the original keys are not carried
	// across the wire, but their hashes must survive for witness GC and
	// recovery-replay filtering on the target shard.
	Hashes []uint64
	// Txn carries the transactional payload of OpTxnPrepare, OpTxnDecide,
	// and OpTxnApply (see txn.go); nil for every other op.
	Txn *TxnCommand
	// ExpireAt, when non-zero on OpPut, sets the object's expiry (unix
	// nanos): reads past that instant treat the object as absent, and the
	// master's sync tail purges it with a logged OpPurgeExpired. A plain
	// Put (ExpireAt == 0) clears any existing expiry, like redis SET.
	// Execution never consults a clock for mutations — only reads compare
	// against now — so log replay on backups stays deterministic.
	ExpireAt int64
	// owned marks a command decoded off the wire: every byte slice in it
	// is a private copy no one else references, so the store may adopt
	// value buffers instead of defensively copying them (see
	// Store.putOwned). Locally constructed commands leave it false.
	owned bool
}

// IsReadOnly reports whether the command cannot modify state. Read-only
// commands are not recorded in witnesses, but still participate in the
// master's commutativity check (a read of an unsynced object forces a
// sync, paper §3.2.3).
func (c *Command) IsReadOnly() bool {
	return c.Op == OpGet || c.Op == OpMultiGet || c.Op == OpSetMembers
}

// Class returns the command's commutativity class, derived from the op
// rather than stored: two operations of the same non-write class on one key
// may complete speculatively in either order (see internal/commute). The
// class is carried on the wire next to the key hashes so witnesses can
// consult it, but masters re-derive it from the decoded command — a client
// cannot widen its own fast path by lying about the class.
func (c *Command) Class() commute.Class {
	switch c.Op {
	case OpIncrement:
		return commute.ClassCounter
	case OpSetAdd:
		return commute.ClassSetAdd
	case OpSetRemove:
		return commute.ClassSetRemove
	case OpBucketTake:
		return commute.ClassBucket
	}
	// Everything else — including OpAppend (order-dependent) and
	// OpMultiIncr (its per-key deltas commute, but the command's multi-key
	// footprint shares the write path's conflict handling) — is a write.
	return commute.ClassWrite
}

// KeyHashes returns the 64-bit hashes of every object the command touches,
// the unit of CURP's commutativity checks.
func (c *Command) KeyHashes() []uint64 {
	if len(c.Hashes) > 0 {
		return c.Hashes
	}
	return c.AppendKeyHashes(nil)
}

// AppendKeyHashes appends the command's key hashes to dst: KeyHashes for a
// caller that only walks them and brings its own scratch.
func (c *Command) AppendKeyHashes(dst []uint64) []uint64 {
	// Explicit Hashes win, including for transactional commands:
	// participant decides carry no read/write sets (the prepare stashed
	// them), so the coordinator attaches the group's hashes for migration
	// checks and commutativity tracking.
	if len(c.Hashes) > 0 {
		return append(dst, c.Hashes...)
	}
	if c.Txn != nil {
		return append(dst, c.Txn.KeyHashes()...)
	}
	if len(c.Pairs) > 0 {
		for _, p := range c.Pairs {
			dst = append(dst, witness.KeyHash(p.Key))
		}
		return dst
	}
	return append(dst, witness.KeyHash(c.Key))
}

// minCommandWireSize and minResultWireSize are the encoded sizes of an empty
// command and an empty result: what an encoder needs on top of the payload
// bytes, so its buffer is sized once.
const (
	minCommandWireSize = 1 + 4 + 4 + 8 + 8 + 4 + 4 + 1 + 8
	minResultWireSize  = 1 + 4 + 8 + 4
)

// Marshal appends the command's wire form to e.
func (c *Command) Marshal(e *rpc.Encoder) {
	e.U8(uint8(c.Op))
	e.Bytes32(c.Key)
	e.Bytes32(c.Value)
	e.I64(c.Delta)
	e.U64(c.ExpectVersion)
	e.U32(uint32(len(c.Pairs)))
	for _, p := range c.Pairs {
		e.Bytes32(p.Key)
		e.Bytes32(p.Value)
	}
	e.U64Slice(c.Hashes)
	e.Bool(c.Txn != nil)
	if c.Txn != nil {
		c.Txn.marshal(e)
	}
	e.I64(c.ExpireAt)
}

// Encode returns the command's wire form.
func (c *Command) Encode() []byte {
	e := rpc.NewEncoder(minCommandWireSize + len(c.Key) + len(c.Value))
	c.Marshal(e)
	return e.Bytes()
}

// UnmarshalCommand decodes a command from d.
func UnmarshalCommand(d *rpc.Decoder) (*Command, error) {
	c := new(Command)
	if err := c.unmarshal(d); err != nil {
		return nil, err
	}
	return c, nil
}

// unmarshal decodes a command from d into c. Every byte slice of the result
// is a private copy — nothing aliases d's buffer, which is usually a frame
// far larger than any one command — but Key and Value are two halves of ONE
// copy: they live and die together in the log entry that holds the command,
// and a store object that adopts Value pins only its own command's key.
func (c *Command) unmarshal(d *rpc.Decoder) error {
	c.Op = CommandOp(d.U8())
	key, value := d.Bytes32(), d.Bytes32()
	if key != nil && value != nil {
		both := append(append(make([]byte, 0, len(key)+len(value)), key...), value...)
		// Key's capacity stops at Value, so appending to it cannot reach over.
		c.Key, c.Value = both[:len(key):len(key)], both[len(key):]
	}
	c.Delta = d.I64()
	c.ExpectVersion = d.U64()
	n := d.U32()
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		c.Pairs = append(c.Pairs, KV{Key: d.BytesCopy32(), Value: d.BytesCopy32()})
	}
	c.Hashes = d.U64Slice()
	if d.Bool() {
		c.Txn = unmarshalTxnCommand(d)
	}
	c.ExpireAt = d.I64()
	if err := d.Err(); err != nil {
		return err
	}
	c.owned = true
	return nil
}

// DecodeCommand decodes a command from its wire form.
func DecodeCommand(b []byte) (*Command, error) {
	return UnmarshalCommand(rpc.NewDecoder(b))
}

// Result is the outcome of executing a command.
type Result struct {
	// Found reports, for reads, whether the object existed; for CondPut,
	// whether the condition held and the write was applied.
	Found bool
	// Value is the read value (Get) or new counter value (Increment).
	Value []byte
	// Version is the object's version after the operation (writes) or at
	// the read (reads).
	Version uint64
	// Values holds MultiGet results, aligned with the requested keys; a
	// nil element means the key did not exist. SetMembers returns the
	// set's members here, one per entry.
	Values [][]byte
	// Demote marks a result whose operation executed but must NOT be
	// revealed speculatively even when it commuted with the unsynced
	// window: the master treats it like a conflict and syncs before
	// replying. BucketTake sets it on a denial or on the take that drains
	// the bucket — once a bucket can deny, take order becomes observable.
	// Demote is a master-local execution signal, not part of the wire form.
	Demote bool `json:"-"`
}

// Marshal appends the result's wire form to e.
func (r *Result) Marshal(e *rpc.Encoder) {
	e.Bool(r.Found)
	e.Bytes32(r.Value)
	e.U64(r.Version)
	e.U32(uint32(len(r.Values)))
	for _, v := range r.Values {
		e.Bool(v != nil)
		e.Bytes32(v)
	}
}

// Encode returns the result's wire form.
func (r *Result) Encode() []byte {
	e := rpc.NewEncoder(minResultWireSize + len(r.Value))
	r.Marshal(e)
	return e.Bytes()
}

// UnmarshalResult decodes a result from d.
func UnmarshalResult(d *rpc.Decoder) (*Result, error) {
	r := new(Result)
	if err := r.unmarshal(d); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *Result) unmarshal(d *rpc.Decoder) error {
	r.Found = d.Bool()
	r.Value = d.BytesCopy32()
	r.Version = d.U64()
	n := d.U32()
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		present := d.Bool()
		v := d.BytesCopy32()
		if !present {
			v = nil
		}
		r.Values = append(r.Values, v)
	}
	return d.Err()
}

// DecodeResult decodes a result from its wire form.
func DecodeResult(b []byte) (*Result, error) {
	return UnmarshalResult(rpc.NewDecoder(b))
}

// ErrVersionMismatch reports a failed conditional write.
var ErrVersionMismatch = errors.New("kv: version mismatch")

// ErrNotCounter reports an increment on a non-integer value.
var ErrNotCounter = errors.New("kv: value is not a counter")
