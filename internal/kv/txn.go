package kv

// This file is the storage half of the cross-shard transaction subsystem
// (internal/txn): the wire types of the three transactional commands, the
// per-key lock metadata a prepare installs, and the decision table that
// anchors a transaction's outcome on its home shard.
//
// The protocol is a client-coordinated two-phase commit over Sinfonia-style
// mini-transactions: a transaction buffers reads (with the versions it saw)
// and writes, then
//
//   - OpTxnApply executes a SINGLE-shard transaction atomically in one log
//     entry — validate every read's version, then apply every write — so it
//     rides CURP's normal update path: recorded on witnesses, speculative
//     when it commutes with the unsynced window (1 RTT), synced otherwise.
//     No locks are ever taken.
//   - OpTxnPrepare is phase one of the cross-shard path, executed on each
//     participant shard: validate the shard's read versions, then lock every
//     touched key and stash the shard's writes. The prepare is a log entry,
//     so a participant crash recovers its locks and pending writes from a
//     backup's state (Snapshot.Prepared).
//   - OpTxnDecide is phase two: on the transaction's HOME shard it records
//     the commit/abort decision in the decision table (the transaction's
//     durability point, RIFL-tracked so a duplicate decide returns the first
//     outcome); on each participant it applies the stashed writes (commit)
//     or discards them (abort) and releases the locks.
//
// An operation that hits a foreign lock fails with *LockedError, which
// carries the owning transaction and its home coordinates so the master can
// resolve an orphaned prepare (coordinator death) by asking the home shard —
// recording an abort there by default if no decision exists yet.

import (
	"fmt"
	"strconv"
	"time"

	"curp/internal/rifl"
	"curp/internal/rpc"
	"curp/internal/witness"
)

// TxnWrite is one buffered write of a transaction: a Put, Delete, or
// Increment applied atomically at commit.
type TxnWrite struct {
	Op    CommandOp // OpPut, OpDelete, or OpIncrement
	Key   []byte
	Value []byte
	Delta int64
}

// TxnRead is one read-set entry: the version the transaction observed, to
// be revalidated at prepare/apply time. Version 0 means the key did not
// exist when read.
type TxnRead struct {
	Key     []byte
	Version uint64
}

// TxnHome locates a transaction's decision record: the master of the shard
// owning the transaction's home key, and the home key's hash (the decision
// record's commutativity footprint, so it migrates with the key's range).
type TxnHome struct {
	MasterID uint64
	Addr     string
	KeyHash  uint64
}

// TxnCommand is the transactional payload of OpTxnPrepare / OpTxnDecide /
// OpTxnApply.
type TxnCommand struct {
	// ID is the transaction's identity: the RIFL ID of the decide RPC that
	// records the outcome on the home shard. Prepares carry it so
	// participants know which decision to look up; OpTxnApply leaves it
	// zero (single-shard transactions need no decision record).
	ID rifl.RPCID
	// Commit is the decide outcome (true = apply the prepared writes).
	Commit bool
	// HomeRecord marks a decide that RECORDS the decision (home shard)
	// rather than applying a prepared transaction (participant).
	HomeRecord bool
	// Home locates the decision record; set on prepares (so lock-timeout
	// resolution can find it) and home-record decides (Home.KeyHash keys
	// the decision's migration export).
	Home TxnHome
	// Reads is the read-set to validate (prepare, apply).
	Reads []TxnRead
	// Writes is the write-set (prepare stashes them, apply runs them).
	Writes []TxnWrite
}

// Transactional command constructors: the payload's role is the op.

// TxnPrepare is phase one on a participant shard: validate t.Reads, lock
// the keys and stash t.Writes.
func TxnPrepare(t *TxnCommand) Command { return Command{Op: OpTxnPrepare, Txn: t} }

// TxnDecide is phase two: record the outcome (t.HomeRecord) or apply/discard
// a participant's prepared writes.
func TxnDecide(t *TxnCommand) Command { return Command{Op: OpTxnDecide, Txn: t} }

// TxnForget prunes a settled transaction's decision record.
func TxnForget(t *TxnCommand) Command { return Command{Op: OpTxnForget, Txn: t} }

// TxnApply commits a single-shard transaction in one atomic command.
func TxnApply(t *TxnCommand) Command { return Command{Op: OpTxnApply, Txn: t} }

// marshal appends the txn payload's wire form to e.
func (t *TxnCommand) marshal(e *rpc.Encoder) {
	e.U64(uint64(t.ID.Client))
	e.U64(uint64(t.ID.Seq))
	e.Bool(t.Commit)
	e.Bool(t.HomeRecord)
	e.U64(t.Home.MasterID)
	e.String(t.Home.Addr)
	e.U64(t.Home.KeyHash)
	e.U32(uint32(len(t.Reads)))
	for _, r := range t.Reads {
		e.Bytes32(r.Key)
		e.U64(r.Version)
	}
	e.U32(uint32(len(t.Writes)))
	for _, w := range t.Writes {
		e.U8(uint8(w.Op))
		e.Bytes32(w.Key)
		e.Bytes32(w.Value)
		e.I64(w.Delta)
	}
}

// unmarshalTxnCommand decodes a txn payload from d.
func unmarshalTxnCommand(d *rpc.Decoder) *TxnCommand {
	t := &TxnCommand{
		ID:         rifl.RPCID{Client: rifl.ClientID(d.U64()), Seq: rifl.Seq(d.U64())},
		Commit:     d.Bool(),
		HomeRecord: d.Bool(),
	}
	t.Home.MasterID = d.U64()
	t.Home.Addr = d.String()
	t.Home.KeyHash = d.U64()
	n := d.U32()
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		t.Reads = append(t.Reads, TxnRead{Key: d.BytesCopy32(), Version: d.U64()})
	}
	n = d.U32()
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		t.Writes = append(t.Writes, TxnWrite{
			Op:    CommandOp(d.U8()),
			Key:   d.BytesCopy32(),
			Value: d.BytesCopy32(),
			Delta: d.I64(),
		})
	}
	return t
}

// KeyHashes returns the commutativity footprint of the transactional
// payload: every read and write key. Home-record decides touch only the
// home key hash.
func (t *TxnCommand) KeyHashes() []uint64 {
	if t.HomeRecord {
		return []uint64{t.Home.KeyHash}
	}
	hs := make([]uint64, 0, len(t.Reads)+len(t.Writes))
	for _, r := range t.Reads {
		hs = append(hs, witness.KeyHash(r.Key))
	}
	for _, w := range t.Writes {
		hs = append(hs, witness.KeyHash(w.Key))
	}
	return hs
}

// Keys returns every key the transactional payload touches (reads then
// writes, duplicates preserved).
func (t *TxnCommand) Keys() [][]byte {
	keys := make([][]byte, 0, len(t.Reads)+len(t.Writes))
	for _, r := range t.Reads {
		keys = append(keys, r.Key)
	}
	for _, w := range t.Writes {
		keys = append(keys, w.Key)
	}
	return keys
}

// LockedError reports an operation blocked by another transaction's
// prepared lock. It is retryable: the lock disappears when the owning
// transaction's decision arrives (or lock-timeout resolution forces one).
type LockedError struct {
	// Txn is the lock-holding transaction.
	Txn rifl.RPCID
	// Home locates the holder's decision record, for resolution.
	Home TxnHome
	// Age is how long the lock has been held; masters resolve locks older
	// than their timeout.
	Age time.Duration
}

// Error implements error.
func (e *LockedError) Error() string {
	return fmt.Sprintf("kv: key locked by txn %v for %v (home master %d)", e.Txn, e.Age, e.Home.MasterID)
}

// preparedTxn is a participant-side prepared transaction: the lock state of
// its keys and the writes to run if the decision is commit.
type preparedTxn struct {
	id     rifl.RPCID
	home   TxnHome
	writes []TxnWrite
	keys   []string // every locked key
	since  time.Time
}

// txnDecision is one home-shard decision record. homeHash keys its
// migration export (the decision moves with the home key's range).
type txnDecision struct {
	commit   bool
	homeHash uint64
}

// TxnDecisionRecord is the exported form of a decision record (shard
// migration ships these with the home key's range so participants resolving
// an orphaned prepare keep finding the outcome after a rebalance).
type TxnDecisionRecord struct {
	ID       rifl.RPCID
	Commit   bool
	HomeHash uint64
}

// LockedTxn describes one prepared transaction currently holding locks
// (migration uses it to resolve in-flight transactions before exporting a
// range).
type LockedTxn struct {
	ID   rifl.RPCID
	Home TxnHome
}

// TxnTrace, when set, receives debug traces of transactional state
// transitions (tests only).
var TxnTrace func(format string, args ...any)

// lockedBy returns the prepared transaction holding key, or nil.
// Must hold s.mu.
func (s *Store) lockedBy(key []byte) *preparedTxn {
	if len(s.locks) == 0 {
		return nil
	}
	return s.locks[string(key)]
}

// lockConflict returns a *LockedError if any of keys is locked by a
// transaction other than self (zero self = any lock conflicts). Must hold
// s.mu.
func (s *Store) lockConflict(self rifl.RPCID, keys ...[]byte) error {
	if len(s.locks) == 0 {
		return nil
	}
	for _, k := range keys {
		if p := s.locks[string(k)]; p != nil && p.id != self {
			return &LockedError{Txn: p.id, Home: p.home, Age: time.Since(p.since)}
		}
	}
	return nil
}

// cmdLockConflict checks a non-transactional command's keys against the
// lock table. Must hold s.mu.
func (s *Store) cmdLockConflict(cmd *Command) error {
	if len(s.locks) == 0 {
		return nil
	}
	if len(cmd.Pairs) > 0 {
		for _, p := range cmd.Pairs {
			if err := s.lockConflict(rifl.RPCID{}, p.Key); err != nil {
				return err
			}
		}
		return nil
	}
	if len(cmd.Key) == 0 {
		return nil
	}
	return s.lockConflict(rifl.RPCID{}, cmd.Key)
}

// validateTxn checks a transaction's read versions and write legality
// against current state. It returns false (vote abort) when a read's
// version moved, or when simulating the write-set in order hits an
// increment over a non-counter value — so applyTxnWrites can never fail.
// Must hold s.mu.
func (s *Store) validateTxn(t *TxnCommand) bool {
	for _, r := range t.Reads {
		var cur uint64
		if o := s.objects[string(r.Key)]; o != nil {
			cur = o.version
		}
		if cur != r.Version {
			return false
		}
	}
	// sim[key] is the key's simulated value after the writes so far; a nil
	// entry means deleted (distinct from absent = untouched).
	sim := make(map[string][]byte, len(t.Writes))
	current := func(key []byte) ([]byte, bool) {
		if v, ok := sim[string(key)]; ok {
			return v, v != nil
		}
		if o := s.objects[string(key)]; o != nil && o.value != nil {
			return o.value, true
		}
		return nil, false
	}
	for _, w := range t.Writes {
		switch w.Op {
		case OpDelete:
			sim[string(w.Key)] = nil
		case OpIncrement:
			var cur int64
			if v, ok := current(w.Key); ok {
				if !isCounter(v) {
					return false
				}
				cur = parseCounter(v)
			}
			sim[string(w.Key)] = formatCounter(cur + w.Delta)
		default: // OpPut
			v := w.Value
			if v == nil {
				v = []byte{}
			}
			sim[string(w.Key)] = v
		}
	}
	return true
}

// applyTxnWrites runs the write-set in order, leaving the touched keys in
// s.txnTouched for LSN stamping. Validation already guaranteed every write
// is legal. Must hold s.mu.
func (s *Store) applyTxnWrites(writes []TxnWrite) {
	keys := make([][]byte, 0, len(writes))
	for _, w := range writes {
		switch w.Op {
		case OpDelete:
			o := s.objects[string(w.Key)]
			if o == nil {
				o = &object{}
				s.objects[string(w.Key)] = o
			}
			o.value = nil
			o.version++
		case OpIncrement:
			var cur int64
			if o := s.objects[string(w.Key)]; o != nil && o.value != nil {
				cur = parseCounter(o.value)
			}
			s.put(w.Key, formatCounter(cur+w.Delta))
		default: // OpPut
			s.put(w.Key, w.Value)
		}
		keys = append(keys, w.Key)
	}
	s.txnTouched = keys
}

// isCounter reports whether a stored value parses as an int64 counter.
func isCounter(v []byte) bool {
	_, err := strconv.ParseInt(string(v), 10, 64)
	return err == nil
}

// parseCounter decodes a counter value validateTxn already vetted.
func parseCounter(v []byte) int64 {
	n, _ := strconv.ParseInt(string(v), 10, 64)
	return n
}

// formatCounter encodes a counter value.
func formatCounter(n int64) []byte { return []byte(strconv.FormatInt(n, 10)) }

// execTxnPrepare is the OpTxnPrepare state transition. Must hold s.mu.
func (s *Store) execTxnPrepare(cmd *Command) (Result, bool, error) {
	t := cmd.Txn
	// A decision that already exists answers the prepare: commit means the
	// transaction already ran here (a late retry after crash recovery
	// replayed both phases), abort means a resolver killed it.
	if d, ok := s.decisions[t.ID]; ok {
		return Result{Found: d.commit}, false, nil
	}
	// Re-prepare of a transaction already holding its locks (a prepare
	// retried past RIFL, e.g. through a recovered master) is a vote-commit
	// no-op.
	if _, ok := s.prepared[t.ID]; ok {
		return Result{Found: true}, false, nil
	}
	if err := s.lockConflict(t.ID, t.Keys()...); err != nil {
		return Result{}, false, err
	}
	if !s.validateTxn(t) {
		// Vote abort: a read moved or a write is illegal. No locks, no log
		// entry — like a failed conditional write.
		return Result{Found: false}, false, nil
	}
	p := &preparedTxn{id: t.ID, home: t.Home, writes: t.Writes, since: time.Now()}
	seen := make(map[string]bool, len(t.Reads)+len(t.Writes))
	for _, k := range t.Keys() {
		if seen[string(k)] {
			continue
		}
		seen[string(k)] = true
		p.keys = append(p.keys, string(k))
		s.locks[string(k)] = p
	}
	s.prepared[t.ID] = p
	return Result{Found: true}, true, nil
}

// execTxnDecide is the OpTxnDecide state transition. Must hold s.mu.
func (s *Store) execTxnDecide(cmd *Command) (Result, bool, error) {
	t := cmd.Txn
	if t.HomeRecord {
		// Record the decision on the home shard. Idempotent: the first
		// recorded outcome wins (RIFL already filters duplicate decide
		// RPCs; this guards replays and migration installs).
		if d, ok := s.decisions[t.ID]; ok {
			if TxnTrace != nil {
				TxnTrace("store %p: home-record %v commit=%v KEPT existing commit=%v", s, t.ID, t.Commit, d.commit)
			}
			return Result{Found: d.commit}, false, nil
		}
		s.decisions[t.ID] = txnDecision{commit: t.Commit, homeHash: t.Home.KeyHash}
		if TxnTrace != nil {
			TxnTrace("store %p: home-record %v commit=%v RECORDED", s, t.ID, t.Commit)
		}
		return Result{Found: t.Commit}, true, nil
	}
	p, ok := s.prepared[t.ID]
	if !ok {
		// Already decided here (or never prepared — e.g. the range's
		// migration applied the resolution before exporting). No-op.
		if TxnTrace != nil {
			TxnTrace("store %p: decide %v commit=%v NO-OP (not prepared)", s, t.ID, t.Commit)
		}
		return Result{Found: t.Commit}, false, nil
	}
	if t.Commit {
		s.applyTxnWrites(p.writes)
	}
	if TxnTrace != nil {
		TxnTrace("store %p: decide %v commit=%v applied writes=%v", s, t.ID, t.Commit, p.writes)
	}
	for _, k := range p.keys {
		if s.locks[k] == p {
			delete(s.locks, k)
		}
	}
	delete(s.prepared, t.ID)
	// Both outcomes are logged: replay must re-release the locks the
	// replayed prepare re-created.
	return Result{Found: t.Commit}, true, nil
}

// execTxnForget is the OpTxnForget state transition: prune a decision
// record whose transaction is fully settled (every participant applied
// and acknowledged its decide). A missing record mutates nothing — the
// forget was already applied, or the decision was never recorded here
// (vote-abort transactions). Must hold s.mu.
func (s *Store) execTxnForget(cmd *Command) (Result, bool, error) {
	t := cmd.Txn
	if _, ok := s.decisions[t.ID]; !ok {
		return Result{Found: false}, false, nil
	}
	delete(s.decisions, t.ID)
	if TxnTrace != nil {
		TxnTrace("store %p: forget decision %v", s, t.ID)
	}
	return Result{Found: true}, true, nil
}

// DecisionCount returns how many decision records the store holds
// (tests; the decision-record GC keeps it from growing with committed
// transactions).
func (s *Store) DecisionCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.decisions)
}

// execTxnApply is the OpTxnApply state transition (single-shard atomic
// transaction). Must hold s.mu.
func (s *Store) execTxnApply(cmd *Command) (Result, bool, error) {
	t := cmd.Txn
	if err := s.lockConflict(rifl.RPCID{}, t.Keys()...); err != nil {
		return Result{}, false, err
	}
	if !s.validateTxn(t) {
		return Result{Found: false}, false, nil
	}
	if len(t.Writes) == 0 {
		// Read-only transaction: validation is the whole commit.
		return Result{Found: true}, false, nil
	}
	s.applyTxnWrites(t.Writes)
	if TxnTrace != nil {
		TxnTrace("store %p: apply writes=%v", s, t.Writes)
	}
	return Result{Found: true}, true, nil
}

// TxnDecision looks up a transaction's decision record. known is false when
// no decision has been recorded on this store.
func (s *Store) TxnDecision(id rifl.RPCID) (commit, known bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.decisions[id]
	return d.commit, ok
}

// PreparedKeyHashes returns the key hashes locked by a prepared
// transaction (nil if the transaction is not prepared here). Masters use it
// to register a resolver-applied decide's mutations for commutativity
// tracking.
func (s *Store) PreparedKeyHashes(id rifl.RPCID) []uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	p, ok := s.prepared[id]
	if !ok {
		return nil
	}
	hs := make([]uint64, 0, len(p.keys))
	for _, k := range p.keys {
		hs = append(hs, witness.KeyHash([]byte(k)))
	}
	return hs
}

// LockedTxns returns the prepared transactions holding a lock on any key
// matched by pred (every prepared transaction when pred is nil).
func (s *Store) LockedTxns(pred func(key []byte) bool) []LockedTxn {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []LockedTxn
	for _, p := range s.prepared {
		match := pred == nil
		if !match {
			for _, k := range p.keys {
				if pred([]byte(k)) {
					match = true
					break
				}
			}
		}
		if match {
			out = append(out, LockedTxn{ID: p.id, Home: p.home})
		}
	}
	return out
}

// LockCount returns how many keys are currently locked (tests).
func (s *Store) LockCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.locks)
}

// ExportDecisions returns the decision records whose home key hash matches
// pred, for transfer with a migrating range.
func (s *Store) ExportDecisions(pred func(homeHash uint64) bool) []TxnDecisionRecord {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []TxnDecisionRecord
	for id, d := range s.decisions {
		if pred(d.homeHash) {
			out = append(out, TxnDecisionRecord{ID: id, Commit: d.commit, HomeHash: d.homeHash})
		}
	}
	return out
}

// DropDecisions removes decision records whose home key hash matches pred
// (the source side of a committed range handoff) and returns how many were
// dropped.
func (s *Store) DropDecisions(pred func(homeHash uint64) bool) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for id, d := range s.decisions {
		if pred(d.homeHash) {
			delete(s.decisions, id)
			n++
		}
	}
	return n
}
