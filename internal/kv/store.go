package kv

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"curp/internal/rifl"
	"curp/internal/rpc"
)

// LSN is a log sequence number; entry n is the n-th update applied by the
// master (1-based). LSN 0 means "never".
type LSN uint64

// Entry is one record of the master's operation log: the mutation itself
// plus the RIFL identity and saved result, replicated to backups as a unit
// so completion records are durable exactly when the update is (§3.3).
type Entry struct {
	LSN LSN
	Cmd *Command
	ID  rifl.RPCID
	// Ack is the RIFL acknowledgment the request carried ("all my RPCs below
	// this sequence number are done"; 0 = none). PAPER §4.8: completion
	// records are collected by client acks. It travels with the entry so a
	// backup prunes its completion table at the same log position the master
	// did, and a snapshot can say which of a client's operations must never
	// run again although their records are gone.
	Ack    rifl.Seq
	Result *Result
}

// MinEntryWireSize is the smallest encoded Entry (LSN, RPC ID and ack, an
// empty command, an empty result): the floor for a log decoder's entry count.
const MinEntryWireSize = 4*8 + minCommandWireSize + minResultWireSize

// Marshal appends the entry's wire form to e.
func (en *Entry) Marshal(e *rpc.Encoder) {
	e.U64(uint64(en.LSN))
	e.U64(uint64(en.ID.Client))
	e.U64(uint64(en.ID.Seq))
	e.U64(uint64(en.Ack))
	en.Cmd.Marshal(e)
	en.Result.Marshal(e)
}

// UnmarshalEntry decodes an entry from d. The entry comes back by value —
// a batch decoder stores it straight into its slice — and its command and
// result, which a backup's completion table keeps until the client's ack,
// share one allocation.
func UnmarshalEntry(d *rpc.Decoder) (Entry, error) {
	en := Entry{
		LSN: LSN(d.U64()),
		ID:  rifl.RPCID{Client: rifl.ClientID(d.U64()), Seq: rifl.Seq(d.U64())},
		Ack: rifl.Seq(d.U64()),
	}
	body := new(struct {
		cmd Command
		res Result
	})
	if err := body.cmd.unmarshal(d); err != nil {
		return Entry{}, err
	}
	if err := body.res.unmarshal(d); err != nil {
		return Entry{}, err
	}
	en.Cmd, en.Result = &body.cmd, &body.res
	return en, nil
}

// object is the stored state of one key.
type object struct {
	value   []byte
	version uint64
	lsn     LSN // log position of the last update to this key
	// expireAt is the object's expiry instant in unix nanos (0 = never).
	// Reads past it treat the object as absent; the master's sync tail
	// purges it with a logged OpPurgeExpired. Mutations never consult the
	// clock, so replaying the log reproduces identical state.
	expireAt int64
}

// Store is an in-memory, log-structured key-value store: the state machine
// a CURP master executes commands against. Safe for concurrent use.
type Store struct {
	mu      sync.RWMutex
	objects map[string]*object
	// log holds the entries in (base, head], oldest first. A store nobody
	// truncates keeps base at 0 and every entry; a master whose backups hold
	// the state up to an LSN drops the entries at or below it (TruncateTo),
	// so its log is the unsynced window, not history.
	log  []Entry
	base LSN
	head LSN
	// locks maps key → the prepared transaction holding it; prepared maps
	// transaction ID → its prepared state; decisions is the home-shard
	// decision table. See txn.go.
	locks     map[string]*preparedTxn
	prepared  map[rifl.RPCID]*preparedTxn
	decisions map[rifl.RPCID]txnDecision
	// txnTouched carries the keys the latest transactional write-set
	// application mutated, from applyTxnWrites to stampKeys (both run
	// under mu within one Apply/ReplayEntry).
	txnTouched [][]byte
	// replica marks a materialized view replayed from someone else's log
	// (a backup's store): it tracks head and objects and retains no log
	// entries — a backup holds state, not history.
	replica bool
	// expiry indexes keys with a pending TTL (key → expireAt), so the
	// purge scan is O(keys-with-TTL), not O(keys).
	expiry map[string]int64
	// now supplies the clock reads compare expiries against. Injectable
	// (tests); mutations never call it.
	now func() int64
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		objects:   make(map[string]*object),
		locks:     make(map[string]*preparedTxn),
		prepared:  make(map[rifl.RPCID]*preparedTxn),
		decisions: make(map[rifl.RPCID]txnDecision),
		expiry:    make(map[string]int64),
		now:       func() int64 { return time.Now().UnixNano() },
	}
}

// SetClock replaces the clock reads compare expiries against (tests).
func (s *Store) SetClock(now func() int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.now = now
}

// NewReplicaStore returns a store that materializes replayed entries
// without retaining them (see Store.replica).
func NewReplicaStore() *Store {
	s := NewStore()
	s.replica = true
	return s
}

// Apply executes cmd, appending a log entry for mutations. It returns the
// result and, for mutations, the entry's LSN (0 for pure reads and no-op
// conditional writes). id is the RIFL identity stored in the log entry.
func (s *Store) Apply(cmd *Command, id rifl.RPCID) (*Result, LSN, error) {
	return s.ApplyAcked(cmd, id, 0)
}

// ApplyAcked is Apply for a request that carried a RIFL acknowledgment: the
// ack is stored in the log entry (see Entry.Ack).
func (s *Store) ApplyAcked(cmd *Command, id rifl.RPCID, ack rifl.Seq) (*Result, LSN, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out, mutated, err := s.exec(cmd)
	if err != nil {
		return nil, 0, err
	}
	res := &out
	if !mutated {
		return res, 0, nil
	}
	s.head++
	s.log = append(s.log, Entry{LSN: s.head, Cmd: cmd, ID: id, Ack: ack, Result: res})
	// Stamp each touched object with the entry's LSN so commutativity
	// checks can compare it against the last synced LSN (§4.3).
	s.stampKeys(cmd, s.head)
	return res, s.head, nil
}

// stampKeys records lsn as the last-mutation position of every object a
// mutating command touched. Must hold s.mu.
func (s *Store) stampKeys(cmd *Command, lsn LSN) {
	if cmd.Txn != nil {
		// Transactional entries stamp the keys their write-set application
		// touched (none for prepares and aborts, which mutate no objects).
		for _, k := range s.txnTouched {
			if o := s.objects[string(k)]; o != nil {
				o.lsn = lsn
			}
		}
		s.txnTouched = nil
		return
	}
	if len(cmd.Pairs) > 0 && (cmd.Op == OpMultiPut || cmd.Op == OpMultiIncr) {
		for _, p := range cmd.Pairs {
			if o := s.objects[string(p.Key)]; o != nil {
				o.lsn = lsn
			}
		}
		return
	}
	if len(cmd.Key) == 0 {
		return // keyless log markers (OpMigrateRecord) stamp nothing
	}
	if o := s.objects[string(cmd.Key)]; o != nil {
		o.lsn = lsn
	}
}

// exec runs the command against the object table. Must hold s.mu. The
// result comes back by value: Apply moves it into the log entry it
// appends, replay (which has the entry's result already) drops it.
func (s *Store) exec(cmd *Command) (res Result, mutated bool, err error) {
	switch cmd.Op {
	case OpTxnPrepare, OpTxnDecide, OpTxnForget, OpTxnApply:
		if cmd.Txn == nil { // a malformed command off the wire
			return Result{}, false, fmt.Errorf("kv: %v without txn payload", cmd.Op)
		}
	case OpMigrateObject, OpMigrateRecord, OpExpireClient:
		// Transactional ops (above) handle locks themselves; migration
		// installs bypass them (installed state was resolved before export),
		// and a lease-expiry marker touches no key.
	default:
		// An operation touching a key locked by a prepared transaction
		// must wait for the decision: its outcome would otherwise race the
		// transaction's atomic commit point.
		if lerr := s.cmdLockConflict(cmd); lerr != nil {
			return Result{}, false, lerr
		}
	}
	switch cmd.Op {
	case OpGet:
		o := s.objects[string(cmd.Key)]
		if !s.alive(o) { // missing, tombstoned, or lazily expired
			var version uint64
			if o != nil {
				version = o.version
			}
			return Result{Version: version}, false, nil
		}
		return Result{Found: true, Value: append([]byte(nil), o.value...), Version: o.version}, false, nil

	case OpMultiGet:
		res := Result{Found: true}
		for _, p := range cmd.Pairs {
			o := s.objects[string(p.Key)]
			if !s.alive(o) {
				res.Values = append(res.Values, nil)
			} else {
				res.Values = append(res.Values, append([]byte(nil), o.value...))
			}
		}
		return res, false, nil

	case OpSetMembers:
		o := s.objects[string(cmd.Key)]
		if !s.alive(o) {
			var version uint64
			if o != nil {
				version = o.version
			}
			return Result{Version: version}, false, nil
		}
		res := Result{Found: true, Version: o.version}
		for _, m := range decodeSet(o.value) {
			res.Values = append(res.Values, append([]byte(nil), m...))
		}
		return res, false, nil

	case OpPut:
		o := s.valuePut(cmd, cmd.Key, cmd.Value)
		s.setExpiry(cmd.Key, o, cmd.ExpireAt)
		return Result{Found: true, Version: o.version}, true, nil

	case OpAppend:
		o := s.objects[string(cmd.Key)]
		var next []byte
		if o != nil && o.value != nil {
			next = append(append(make([]byte, 0, len(o.value)+len(cmd.Value)), o.value...), cmd.Value...)
		} else {
			next = append([]byte(nil), cmd.Value...)
		}
		no := s.putOwned(cmd.Key, next)
		return Result{Found: true, Value: []byte(strconv.Itoa(len(next))), Version: no.version}, true, nil

	case OpSetAdd:
		o := s.objects[string(cmd.Key)]
		var cur []byte
		if o != nil {
			cur = o.value
		}
		no := s.putOwned(cmd.Key, setWith(cur, cmd.Value))
		// Found is always true: "was the member new" is order-dependent
		// under commutative replay (two adds of one member swap answers),
		// so it must not leak into the completion record.
		return Result{Found: true, Version: no.version}, true, nil

	case OpSetRemove:
		o := s.objects[string(cmd.Key)]
		var cur []byte
		if o != nil {
			cur = o.value
		}
		next, _ := setWithout(cur, cmd.Value)
		no := s.putOwned(cmd.Key, next)
		// Like SetAdd, "was it present" is order-dependent; always-true
		// Found keeps the completion record replay-deterministic.
		return Result{Found: true, Version: no.version}, true, nil

	case OpBucketTake:
		o := s.objects[string(cmd.Key)]
		var cur int64
		if o != nil && o.value != nil {
			v, perr := strconv.ParseInt(string(o.value), 10, 64)
			if perr != nil {
				return Result{}, false, ErrNotCounter
			}
			cur = v
		}
		if cur < cmd.Delta {
			// Denial. Logged anyway (version bump, value unchanged): the
			// denial's completion record must be durable before the client
			// can act on it, exactly like a Delete of a missing key. Demote
			// keeps it off the speculative path — a bucket that can deny
			// has made take order observable.
			//
			// Residual anomaly, accepted and bounded: if the master crashes
			// before a denial syncs, recovery replays the witness records
			// in arbitrary order and may re-grant capacity this denial
			// observed as exhausted — unsynced capacity can redistribute
			// across takers. The bucket never over-debits (every replayed
			// grant re-checks the balance), and no client that COMPLETED a
			// take sees its grant revoked, because completion requires the
			// result to be durable first.
			if o == nil {
				o = &object{}
				s.objects[string(cmd.Key)] = o
			}
			o.version++
			return Result{Found: false, Value: []byte(strconv.FormatInt(cur, 10)), Version: o.version, Demote: true}, true, nil
		}
		rem := cur - cmd.Delta
		no := s.putOwned(cmd.Key, []byte(strconv.FormatInt(rem, 10)))
		// Draining the bucket also demotes: the NEXT take will deny, so
		// this grant's order relative to it matters.
		return Result{Found: true, Value: append([]byte(nil), no.value...), Version: no.version, Demote: rem == 0}, true, nil

	case OpPurgeExpired:
		purged := 0
		var lastVer uint64
		for _, p := range cmd.Pairs {
			o := s.objects[string(p.Key)]
			if o == nil || o.expireAt == 0 || o.expireAt > cmd.Delta {
				continue // raced a fresh write that cleared or pushed the TTL
			}
			o.value = nil
			o.version++
			s.setExpiry(p.Key, o, 0)
			purged++
			lastVer = o.version
		}
		return Result{Found: purged > 0, Version: lastVer}, true, nil

	case OpMultiPut:
		var last uint64
		for _, p := range cmd.Pairs {
			last = s.valuePut(cmd, p.Key, p.Value).version
		}
		return Result{Found: true, Version: last}, true, nil

	case OpDelete:
		o := s.objects[string(cmd.Key)]
		if o == nil {
			// Deleting a missing key is a no-op but still logged, so the
			// delete's completion record reaches backups.
			s.objects[string(cmd.Key)] = &object{version: 1}
			return Result{Found: false, Version: 1}, true, nil
		}
		o.value = nil
		o.version++
		s.setExpiry(cmd.Key, o, 0)
		return Result{Found: true, Version: o.version}, true, nil

	case OpIncrement:
		o := s.objects[string(cmd.Key)]
		var cur int64
		if o != nil && o.value != nil {
			v, perr := strconv.ParseInt(string(o.value), 10, 64)
			if perr != nil {
				return Result{}, false, ErrNotCounter
			}
			cur = v
		}
		cur += cmd.Delta
		no := s.putOwned(cmd.Key, []byte(strconv.FormatInt(cur, 10)))
		return Result{Found: true, Value: append([]byte(nil), no.value...), Version: no.version}, true, nil

	case OpMultiIncr:
		// Validate every leg before mutating anything: atomicity demands
		// all-or-nothing even on type errors.
		deltas := make([]int64, len(cmd.Pairs))
		currents := make([]int64, len(cmd.Pairs))
		for i, p := range cmd.Pairs {
			d, perr := strconv.ParseInt(string(p.Value), 10, 64)
			if perr != nil {
				return Result{}, false, fmt.Errorf("kv: multiincr delta %q: %w", p.Value, ErrNotCounter)
			}
			deltas[i] = d
			if o := s.objects[string(p.Key)]; o != nil && o.value != nil {
				v, perr := strconv.ParseInt(string(o.value), 10, 64)
				if perr != nil {
					return Result{}, false, ErrNotCounter
				}
				currents[i] = v
			}
		}
		res := Result{Found: true}
		for i, p := range cmd.Pairs {
			no := s.putOwned(p.Key, []byte(strconv.FormatInt(currents[i]+deltas[i], 10)))
			res.Values = append(res.Values, append([]byte(nil), no.value...))
		}
		return res, true, nil

	case OpMigrateObject:
		// Install a migrated object verbatim: value, tombstone state, and
		// version are whatever the source shard exported, so version-based
		// conditional writes keep their meaning across the handoff.
		o := s.objects[string(cmd.Key)]
		if o == nil {
			o = &object{}
			s.objects[string(cmd.Key)] = o
		}
		if cmd.Delta != 0 { // tombstone
			o.value = nil
		} else {
			o.value = append([]byte(nil), cmd.Value...)
			if o.value == nil {
				o.value = []byte{}
			}
		}
		o.version = cmd.ExpectVersion
		s.setExpiry(cmd.Key, o, cmd.ExpireAt)
		return Result{Found: cmd.Delta == 0, Version: o.version}, true, nil

	case OpMigrateRecord:
		// A pure log marker: no object changes, but the entry (which
		// carries the original RPC ID and, via this result, the original
		// outcome) is appended and replicated, making the migrated
		// completion record as durable as a native one.
		res, err := DecodeResult(cmd.Value)
		if err != nil {
			return Result{}, false, fmt.Errorf("kv: migrate-record result: %w", err)
		}
		return *res, true, nil

	case OpExpireClient:
		// A pure log marker: the completion tables that read the log (a
		// backup's, see Backup.Append) drop the client's records here.
		return Result{Found: true}, true, nil

	case OpTxnPrepare:
		return s.execTxnPrepare(cmd)

	case OpTxnDecide:
		return s.execTxnDecide(cmd)

	case OpTxnForget:
		return s.execTxnForget(cmd)

	case OpTxnApply:
		return s.execTxnApply(cmd)

	case OpCondPut:
		o := s.objects[string(cmd.Key)]
		var cur uint64
		if o != nil {
			cur = o.version
		}
		if cur != cmd.ExpectVersion {
			// Failed condition: no mutation, reported via Found=false.
			return Result{Found: false, Version: cur}, false, nil
		}
		no := s.valuePut(cmd, cmd.Key, cmd.Value)
		return Result{Found: true, Version: no.version}, true, nil

	default:
		return Result{}, false, fmt.Errorf("kv: unknown op %v", cmd.Op)
	}
}

// alive reports whether an object holds a readable value: present, not
// tombstoned, and not past its expiry. Only the read paths call it — a
// mutation consulting the clock would make log replay nondeterministic.
// Must hold s.mu.
func (s *Store) alive(o *object) bool {
	if o == nil || o.value == nil {
		return false
	}
	return o.expireAt == 0 || o.expireAt > s.now()
}

// setExpiry records an object's expiry instant (0 clears it) and keeps the
// expiry index in step. Must hold s.mu.
func (s *Store) setExpiry(key []byte, o *object, at int64) {
	if o.expireAt == at {
		return
	}
	o.expireAt = at
	if at == 0 {
		delete(s.expiry, string(key))
	} else {
		s.expiry[string(key)] = at
	}
}

// ExpiredKeys returns up to limit keys whose expiry is ≤ now and that are
// not locked by a prepared transaction, for the master's sync-tail purge
// (limit ≤ 0 = unlimited). The caller logs them with OpPurgeExpired, which
// re-checks each expiry against its carried cutoff, so a racing fresh
// write is never purged.
func (s *Store) ExpiredKeys(now int64, limit int) [][]byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out [][]byte
	for k, at := range s.expiry {
		if at > now {
			continue
		}
		if len(s.locks) > 0 && s.locks[k] != nil {
			continue
		}
		out = append(out, []byte(k))
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}

// put inserts or overwrites a key. Must hold s.mu.
func (s *Store) put(key, value []byte) *object {
	o := s.objects[string(key)]
	if o == nil {
		o = &object{}
		s.objects[string(key)] = o
	}
	o.value = append([]byte(nil), value...)
	if o.value == nil {
		o.value = []byte{}
	}
	o.version++
	return o
}

// putOwned is put for values the caller exclusively owns (freshly
// allocated, or decoded off the wire into a private buffer): the store
// adopts the slice instead of copying it. Stored values are never mutated
// in place — put replaces them wholesale — so adoption is safe whenever
// the caller stops using the buffer.
func (s *Store) putOwned(key, value []byte) *object {
	o := s.objects[string(key)]
	if o == nil {
		o = &object{}
		s.objects[string(key)] = o
	}
	if value == nil {
		value = []byte{}
	}
	o.value = value
	o.version++
	return o
}

// valuePut picks the cheapest safe write for a command's value: commands
// decoded off the wire own their buffers outright (every decode copies),
// so the store adopts them; locally built commands get the defensive copy.
func (s *Store) valuePut(cmd *Command, key, value []byte) *object {
	if cmd.owned {
		return s.putOwned(key, value)
	}
	return s.put(key, value)
}

// Get reads a key outside the command path (used by tests and examples).
func (s *Store) Get(key []byte) (value []byte, version uint64, ok bool) {
	if value, version, ok = s.Peek(key); ok {
		value = append([]byte(nil), value...)
	}
	return value, version, ok
}

// Peek is Get without the defensive copy: the returned slice is the store's
// own. Stored values are replaced wholesale, never modified in place, so it
// stays valid for as long as the caller holds it — and the caller must not
// modify it either.
func (s *Store) Peek(key []byte) (value []byte, version uint64, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	o := s.objects[string(key)]
	if !s.alive(o) { // expiry-aware: GetStale must not serve dead values
		return nil, 0, false
	}
	return o.value, o.version, true
}

// Head returns the LSN of the most recent log entry.
func (s *Store) Head() LSN {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.head
}

// KeyLSN returns the LSN of the last update to key (0 if never updated).
func (s *Store) KeyLSN(key []byte) LSN {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if o := s.objects[string(key)]; o != nil {
		return o.lsn
	}
	return 0
}

// EntriesSince returns log entries with LSN in (after, head], i.e. the
// suffix a backup sync must replicate. Asking for entries a truncation
// already dropped panics: a silently short slice would be a replication
// gap, and only a caller that lost track of what its backups hold can ask.
func (s *Store) EntriesSince(after LSN) []Entry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if after >= s.head {
		return nil
	}
	if after < s.base {
		panic(fmt.Sprintf("kv: entries since %d requested, log truncated to %d", after, s.base))
	}
	// Log entries are contiguous from LSN base+1 at index 0.
	return append([]Entry(nil), s.log[after-s.base:]...)
}

// TruncateTo drops the log entries with LSN ≤ lsn: the caller vouches that
// every replica it syncs to holds the state up to there. Truncating past
// the head is refused; truncating at or below the base is a no-op.
//
// PAPER §3.2: a completed operation survives through the backups' state and
// the witnesses, never through the master's own log.
func (s *Store) TruncateTo(lsn LSN) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if lsn > s.head {
		return fmt.Errorf("kv: truncate to %d past head %d", lsn, s.head)
	}
	if lsn <= s.base {
		return nil
	}
	// Compact in place: the window is a few entries, and a log that keeps
	// its backing array never allocates again.
	n := copy(s.log, s.log[lsn-s.base:])
	clear(s.log[n:])
	s.log = s.log[:n]
	s.base = lsn
	return nil
}

// LogLen returns how many entries the log retains: (base, head].
func (s *Store) LogLen() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.log)
}

// Base returns the LSN the log was last truncated to (0: never).
func (s *Store) Base() LSN {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.base
}

// Len returns the number of live keys (including tombstones).
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.objects)
}

// MigratedObject is one object exported for a shard migration: the exact
// stored state (including tombstones), so the target can reproduce it with
// OpMigrateObject.
type MigratedObject struct {
	Key       []byte
	Value     []byte
	Version   uint64
	Tombstone bool
	// ExpireAt preserves the object's TTL across the handoff (0 = none).
	ExpireAt int64
}

// Command returns the OpMigrateObject command that installs the object on
// its new shard: ExpectVersion carries the source version, a non-zero
// Delta marks a tombstone, and ExpireAt the TTL it keeps running under.
func (o MigratedObject) Command() Command {
	cmd := Command{Op: OpMigrateObject, Key: o.Key, Value: o.Value, ExpectVersion: o.Version, ExpireAt: o.ExpireAt}
	if o.Tombstone {
		cmd.Delta = 1
	}
	return cmd
}

// MigrateRecord returns the command installing one migrated RIFL
// completion record: result is the original operation's encoded Result,
// hashes its commutativity footprint.
func MigrateRecord(result []byte, hashes []uint64) Command {
	return Command{Op: OpMigrateRecord, Value: result, Hashes: hashes}
}

// ExpireClient returns the log marker of a client's lease expiry.
func ExpireClient(c rifl.ClientID) Command {
	return Command{Op: OpExpireClient, Delta: int64(c)}
}

// PurgeExpired returns the command deleting those of keys whose stored
// expiry is ≤ cutoff.
func PurgeExpired(cutoff int64, keys [][]byte) Command {
	cmd := Command{Op: OpPurgeExpired, Delta: cutoff, Pairs: make([]KV, len(keys))}
	for i, k := range keys {
		cmd.Pairs[i] = KV{Key: k}
	}
	return cmd
}

// ExportRange returns every object (live or tombstoned) whose key matches
// pred, for transfer to another shard.
func (s *Store) ExportRange(pred func(key []byte) bool) []MigratedObject {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []MigratedObject
	for k, o := range s.objects {
		if !pred([]byte(k)) {
			continue
		}
		mo := MigratedObject{Key: []byte(k), Version: o.version, Tombstone: o.value == nil, ExpireAt: o.expireAt}
		if !mo.Tombstone {
			mo.Value = append([]byte(nil), o.value...)
		}
		out = append(out, mo)
	}
	return out
}

// DropRange removes every object whose key matches pred from the object
// table and returns how many were dropped.
func (s *Store) DropRange(pred func(key []byte) bool) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for k := range s.objects {
		if pred([]byte(k)) {
			delete(s.objects, k)
			delete(s.expiry, k)
			n++
		}
	}
	return n
}

// ReplayEntry applies a log entry to a store that follows someone else's
// log (a backup's replica, a consensus follower). Entries must be replayed
// in LSN order, each directly after the store's head. The object table,
// per-key LSNs, and log head all advance.
func (s *Store) ReplayEntry(en *Entry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.replay(en)
}

// replay is ReplayEntry's body. Must hold s.mu.
func (s *Store) replay(en *Entry) error {
	if en.LSN != s.head+1 {
		return fmt.Errorf("kv: replay gap: entry %d after head %d", en.LSN, s.head)
	}
	if _, _, err := s.exec(en.Cmd); err != nil {
		return err
	}
	s.head = en.LSN
	if !s.replica {
		s.log = append(s.log, *en)
	}
	s.stampKeys(en.Cmd, en.LSN)
	return nil
}
