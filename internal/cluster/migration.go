package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"curp/internal/controlplane"
	"curp/internal/core"
	"curp/internal/events"
	"curp/internal/kv"
	"curp/internal/metrics"
	"curp/internal/rifl"
	"curp/internal/rpc"
	"curp/internal/witness"
)

// This file is the master side of live key migration (shard rebalancing).
// A migration moves the keys in a set of ring arcs (witness.HashRange)
// from a source master to a target master while both keep serving all
// other keys. The protocol, driven by MigrationDriver (one driver RPC per
// step):
//
//	1. Collect (source): atomically mark the ranges MIGRATING — from here
//	   every new request touching them bounces with StatusKeyMoved — then
//	   drain: sync the log head taken at the freeze to all backups, so
//	   every operation that executed before the freeze is durable. Export
//	   the ranges' objects (including tombstones and versions) and the
//	   RIFL completion records of operations that touched them.
//	2. Install (target): replay the exported objects and completion
//	   records as OpMigrateObject / OpMigrateRecord log entries, then sync
//	   — the moved state and its exactly-once filter are now f-fault
//	   tolerant on the target before any client is routed to it.
//	3. The driver records the moved ranges at the source's coordinator
//	   (crash recovery must not resurrect them).
//	4. Complete (source): the ranges become MOVED — permanently bounced —
//	   their objects are dropped, and the source's backups are fenced so
//	   §A.1 backup reads of the range bounce instead of serving frozen
//	   replicas. Only then does the driver flip the routing ring's epoch.
//
// Requests that bounce mid-migration retry through the routing layer
// until the ring flips; duplicates of operations that executed before the
// freeze still answer from the source's completion records (checked
// before the range state), so a retry never re-executes on the target.
// Witness records for bounced (never-executed) requests surface as
// suspected uncollected garbage (§4.5); the source GCs them without
// re-executing because their ranges are marked.

// migrationState tracks, per master, the ring arcs it is migrating away
// (frozen, transfer in progress) and the arcs it has handed off (moved,
// dropped). Both bounce requests; only moved survives into recovery via
// the coordinator's record.
type migrationState struct {
	mu        sync.Mutex
	migrating []witness.HashRange
	moved     []witness.HashRange
	// forwards remembers, per moved arc set, the master address the
	// handoff installed the keys on. Decision lookups for transactions
	// homed in a moved range follow it (see handleTxnStatus): a
	// participant still holding an orphaned prepare knows only the old
	// home address, and without the forward its locks would never settle.
	forwards []rangeForward
}

// rangeForward maps a set of handed-off arcs to the target master that
// received them.
type rangeForward struct {
	ranges []witness.HashRange
	addr   string
}

// blockedAny reports whether any of the request's key hashes lies in a
// migrating or moved range.
func (m *migrationState) blockedAny(keyHashes []uint64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.migrating) == 0 && len(m.moved) == 0 {
		return false
	}
	for _, kh := range keyHashes {
		p := witness.Mix64(kh)
		if witness.RangesContain(m.migrating, p) || witness.RangesContain(m.moved, p) {
			return true
		}
	}
	return false
}

// movedAny reports whether any key hash lies in a MOVED (handed-off)
// range. Recovery's witness-replay filter uses this instead of blockedAny:
// a range that is merely frozen (mid-transfer) still belongs to this
// partition, and a completed-but-unsynced operation recorded for it must
// replay or it would be lost — only ranges whose handoff committed may be
// skipped.
func (m *migrationState) movedAny(keyHashes []uint64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.moved) == 0 {
		return false
	}
	for _, kh := range keyHashes {
		if witness.RangesContain(m.moved, witness.Mix64(kh)) {
			return true
		}
	}
	return false
}

// blockedKey reports whether key lies in a migrating or moved range.
func (m *migrationState) blockedKey(key []byte) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := witness.RingPoint(key)
	return witness.RangesContain(m.migrating, p) || witness.RangesContain(m.moved, p)
}

// markMigrating freezes ranges. Idempotent per range value.
func (m *migrationState) markMigrating(rs []witness.HashRange) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.migrating = witness.MergeRanges(m.migrating, rs)
}

// unmark aborts a migration: the exact ranges are removed from the
// migrating set and the keys are served again.
func (m *migrationState) unmark(rs []witness.HashRange) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.migrating = witness.RemoveRanges(m.migrating, rs)
}

// markMoved commits a migration: ranges leave the migrating set (if
// present) and join the moved set for good. destAddr, when known, is
// recorded so decision lookups on the ranges can be forwarded; an empty
// destAddr (older records, tests) just skips the forward.
func (m *migrationState) markMoved(rs []witness.HashRange, destAddr string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.migrating = witness.RemoveRanges(m.migrating, rs)
	m.moved = witness.MergeRanges(m.moved, rs)
	if destAddr != "" {
		m.forwards = append(m.forwards, rangeForward{
			ranges: append([]witness.HashRange(nil), rs...),
			addr:   destAddr,
		})
	}
}

// forwardAddr returns the target master a moved key hash was handed off
// to, or "" when unknown. Later forwards win: if an arc moved A→B and
// then B→C, C is authoritative (the scan walks newest-first).
func (m *migrationState) forwardAddr(keyHash uint64) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := len(m.forwards) - 1; i >= 0; i-- {
		if witness.RangesContainHash(m.forwards[i].ranges, keyHash) {
			return m.forwards[i].addr
		}
	}
	return ""
}

// movedRanges returns a copy of the moved set.
func (m *migrationState) movedRanges() []witness.HashRange {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]witness.HashRange(nil), m.moved...)
}

// MigrationBundle is the state one Collect exports and one Install
// imports: the range's objects, the completion records of operations that
// touched them, and the transaction decision records homed in the range
// (so orphaned prepares elsewhere keep finding their outcome after the
// handoff).
type MigrationBundle struct {
	Objects     []kv.MigratedObject
	Completions []rifl.Completion
	Decisions   []kv.TxnDecisionRecord
	// WitnessRecords are the source witnesses' live records touching the
	// moving ranges, re-recorded on the target's witnesses at install so
	// operations still under witness protection when the ranges froze keep
	// that protection across the handoff: if the target crashes after the
	// ring flips, its witness replay covers them (RIFL-deduplicated against
	// the migrated Completions, so nothing re-executes).
	WitnessRecords []witness.Record
}

// rangesIn decodes a (masterID, ranges) payload prefix.
func rangesIn(d *rpc.Decoder) (uint64, []witness.HashRange) {
	masterID := d.U64()
	n := d.Count(16)
	rs := make([]witness.HashRange, 0, n)
	for i := 0; i < n; i++ {
		rs = append(rs, witness.HashRange{Lo: d.U64(), Hi: d.U64()})
	}
	return masterID, rs
}

// rangesOut encodes a (masterID, ranges) payload prefix.
func rangesOut(e *rpc.Encoder, masterID uint64, rs []witness.HashRange) {
	e.U64(masterID)
	e.U32(uint32(len(rs)))
	for _, r := range rs {
		e.U64(r.Lo)
		e.U64(r.Hi)
	}
}

func encodeRangesPayload(masterID uint64, rs []witness.HashRange) []byte {
	e := rpc.NewEncoder(16 + 16*len(rs))
	rangesOut(e, masterID, rs)
	return e.Bytes()
}

// Element encodings. A migration bundle and a state-transfer chunk carry
// the same kinds of things — objects, completion records, decision
// records — so they share one wire form per kind; each min…WireSize is the
// encoded size of an empty element, the floor a decoder's Count checks a
// run against.
const (
	minMigratedObjectWireSize = 4 + 4 + 8 + 1 + 8 // empty key and value, version, tombstone flag, expiry
	minCompletionWireSize     = 16 + 4 + 4        // RPC ID, empty result, no key hashes
	minDecisionWireSize       = 16 + 1 + 8        // RPC ID, commit flag, home hash
)

func marshalObject(e *rpc.Encoder, o *kv.MigratedObject) {
	e.Bytes32(o.Key)
	e.Bytes32(o.Value)
	e.U64(o.Version)
	e.Bool(o.Tombstone)
	e.I64(o.ExpireAt)
}

func unmarshalObject(d *rpc.Decoder) kv.MigratedObject {
	return kv.MigratedObject{
		Key:       d.BytesCopy32(),
		Value:     d.BytesCopy32(),
		Version:   d.U64(),
		Tombstone: d.Bool(),
		ExpireAt:  d.I64(),
	}
}

func marshalRPCID(e *rpc.Encoder, id rifl.RPCID) {
	e.U64(uint64(id.Client))
	e.U64(uint64(id.Seq))
}

func unmarshalRPCID(d *rpc.Decoder) rifl.RPCID {
	return rifl.RPCID{Client: rifl.ClientID(d.U64()), Seq: rifl.Seq(d.U64())}
}

func marshalCompletion(e *rpc.Encoder, c *rifl.Completion) {
	marshalRPCID(e, c.ID)
	e.Bytes32(c.Result)
	e.U64Slice(c.KeyHashes)
}

func unmarshalCompletion(d *rpc.Decoder) rifl.Completion {
	return rifl.Completion{ID: unmarshalRPCID(d), Result: d.BytesCopy32(), KeyHashes: d.U64Slice()}
}

func marshalDecision(e *rpc.Encoder, r *kv.TxnDecisionRecord) {
	marshalRPCID(e, r.ID)
	e.Bool(r.Commit)
	e.U64(r.HomeHash)
}

func unmarshalDecision(d *rpc.Decoder) kv.TxnDecisionRecord {
	return kv.TxnDecisionRecord{ID: unmarshalRPCID(d), Commit: d.Bool(), HomeHash: d.U64()}
}

// marshalRun writes a counted run of elements.
func marshalRun[T any](e *rpc.Encoder, run []T, marshal func(*rpc.Encoder, *T)) {
	e.U32(uint32(len(run)))
	for i := range run {
		marshal(e, &run[i])
	}
}

// unmarshalRun reads a counted run of elements of at least minSize bytes
// each (nil when empty or when d fails).
func unmarshalRun[T any](d *rpc.Decoder, minSize int, unmarshal func(*rpc.Decoder) T) []T {
	n := d.Count(minSize)
	if n == 0 {
		return nil
	}
	run := make([]T, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		run = append(run, unmarshal(d))
	}
	return run
}

func (b *MigrationBundle) marshal(e *rpc.Encoder) {
	marshalRun(e, b.Objects, marshalObject)
	marshalRun(e, b.Completions, marshalCompletion)
	marshalRun(e, b.Decisions, marshalDecision)
	marshalRecords(e, b.WitnessRecords)
}

func unmarshalBundle(d *rpc.Decoder) (*MigrationBundle, error) {
	b := &MigrationBundle{
		Objects:     unmarshalRun(d, minMigratedObjectWireSize, unmarshalObject),
		Completions: unmarshalRun(d, minCompletionWireSize, unmarshalCompletion),
		Decisions:   unmarshalRun(d, minDecisionWireSize, unmarshalDecision),
	}
	b.WitnessRecords = unmarshalRecords(d)
	if err := d.Err(); err != nil {
		return nil, err
	}
	return b, nil
}

// SetMovedRanges seeds a (fresh, typically recovering) master with ranges
// that previously migrated away from this partition: restored objects in
// them are dropped, witness records touching them are never replayed, and
// requests on them bounce with StatusKeyMoved.
func (ms *MasterServer) SetMovedRanges(rs []witness.HashRange) {
	if len(rs) == 0 {
		return
	}
	ms.migr.markMoved(rs, "")
}

// SetMovedForwards seeds a recovering master with the destination
// addresses of past handoffs (from the coordinator's records), so
// forwarded decision lookups keep working after the source master that
// performed the migration is replaced.
func (ms *MasterServer) SetMovedForwards(fwds []controlplane.Forward) {
	for _, f := range fwds {
		if len(f.Ranges) == 0 || f.Addr == "" {
			continue
		}
		ms.migr.markMoved(f.Ranges, f.Addr)
	}
}

// SetFrozenRanges seeds a recovering master with ranges a migration step
// was transferring out when its predecessor crashed: the data is restored
// (unlike moved ranges) but requests bounce, exactly as on the crashed
// master, until the step's driver aborts or a rebalance re-run completes
// the handoff.
func (ms *MasterServer) SetFrozenRanges(rs []witness.HashRange) {
	if len(rs) == 0 {
		return
	}
	ms.migr.markMigrating(rs)
}

// MovedRanges exposes the handed-off arcs (tests, introspection).
func (ms *MasterServer) MovedRanges() []witness.HashRange { return ms.migr.movedRanges() }

// dropMovedObjects deletes every stored object inside the moved ranges,
// their §A.3 durable-value cache entries, and the transaction decisions
// homed there (the target owns them now).
func (ms *MasterServer) dropMovedObjects(rs []witness.HashRange) int {
	pred := func(key []byte) bool { return witness.RangesContain(rs, witness.RingPoint(key)) }
	n := ms.store.DropRange(pred)
	ms.store.DropDecisions(func(h uint64) bool { return witness.RangesContainHash(rs, h) })
	ms.staleMu.Lock()
	for k := range ms.durableOld {
		if pred([]byte(k)) {
			delete(ms.durableOld, k)
		}
	}
	ms.staleMu.Unlock()
	return n
}

// handleMigrateCollect freezes the ranges and exports their state: phase 1
// of a migration, on the source master.
func (ms *MasterServer) handleMigrateCollect(ctx context.Context, payload []byte) ([]byte, error) {
	d := rpc.NewDecoder(payload)
	masterID, rs := rangesIn(d)
	if err := d.Err(); err != nil {
		return nil, err
	}
	if masterID != ms.id {
		return nil, fmt.Errorf("master %d: migrate-collect addressed to %d", ms.id, masterID)
	}
	if ms.State().Frozen() {
		return nil, fmt.Errorf("master %d: frozen", ms.id)
	}
	tc, _ := metrics.TraceFromContext(ctx)
	// Freeze and snapshot the head under the execution lock: every
	// operation that got past the range check has executed and is ≤ head;
	// every later one bounces. Draining to head therefore makes the
	// exported state complete and final.
	ms.eng.Lock()
	ms.migr.markMigrating(rs)
	head := ms.Head()
	ms.eng.Unlock()
	ms.jrn.RecordTrace(tc.TraceID, events.Event{
		Kind: events.KindMigrationFreeze, MasterID: ms.id, Epoch: ms.epoch,
		Detail: migrDetail(rs),
	})
	if err := ms.eng.SyncTo(context.Background(), head); err != nil {
		ms.migr.unmark(rs)
		ms.jrn.RecordTrace(tc.TraceID, events.Event{
			Kind: events.KindMigrationAbort, MasterID: ms.id, Epoch: ms.epoch,
			Detail: migrDetail(rs), Err: err.Error(),
		})
		return nil, fmt.Errorf("master %d: migration drain: %w", ms.id, err)
	}
	ms.jrn.RecordTrace(tc.TraceID, events.Event{
		Kind: events.KindMigrationDrain, MasterID: ms.id, Epoch: ms.epoch,
		Detail: fmt.Sprintf("%s drained to lsn %d", migrDetail(rs), head),
	})
	// Settle in-flight transactions before exporting: a range must not
	// change shards with live prepared locks (the target has no prepared
	// state to pair them with). Each is resolved through its home shard —
	// abort by default when the coordinator hasn't decided — which is the
	// clean mid-rebalance abort the client-side retry expects.
	if err := ms.resolveLockedRange(rs); err != nil {
		ms.migr.unmark(rs)
		ms.jrn.RecordTrace(tc.TraceID, events.Event{
			Kind: events.KindMigrationAbort, MasterID: ms.id, Epoch: ms.epoch,
			Detail: migrDetail(rs), Err: err.Error(),
		})
		return nil, fmt.Errorf("master %d: migration txn resolution: %w", ms.id, err)
	}
	bundle := &MigrationBundle{
		Objects: ms.store.ExportRange(func(key []byte) bool {
			return witness.RangesContain(rs, witness.RingPoint(key))
		}),
		Completions: ms.eng.Tracker().ExportRange(func(kh uint64) bool {
			return witness.RangesContainHash(rs, kh)
		}),
		Decisions: ms.store.ExportDecisions(func(h uint64) bool {
			return witness.RangesContainHash(rs, h)
		}),
	}
	executed := make(map[rifl.RPCID]bool, len(bundle.Completions))
	for _, c := range bundle.Completions {
		executed[c.ID] = true
	}
	bundle.WitnessRecords = ms.collectWitnessRecords(rs, executed)
	ms.jrn.RecordTrace(tc.TraceID, events.Event{
		Kind: events.KindMigrationExport, MasterID: ms.id, Epoch: ms.epoch,
		Detail: fmt.Sprintf("%s: %d objects, %d completions, %d witness records",
			migrDetail(rs), len(bundle.Objects), len(bundle.Completions), len(bundle.WitnessRecords)),
	})
	e := rpc.NewEncoder(256)
	bundle.marshal(e)
	return e.Bytes(), nil
}

// migrDetail renders a migration's arc set for journal events.
func migrDetail(rs []witness.HashRange) string {
	return fmt.Sprintf("%d ranges", len(rs))
}

// collectWitnessRecords snapshots this master's witnesses (live, no
// freeze — recording for unaffected keys continues) and returns the
// records touching the moving ranges, deduplicated by RPC ID. Snapshots
// happen after the freeze, so no new record for the ranges can land at the
// master afterwards; an unreachable witness is skipped — its records are
// redundant copies of the reachable ones for any operation that completed
// speculatively (completion required every witness to accept).
//
// Only records of EXECUTED operations (an exported completion exists)
// migrate. A record whose request never reached the master — it bounced on
// the frozen range, or is still in flight — must stay behind: its client
// drops it and re-issues under a fresh RIFL ID at the new owner, so
// carrying it over would let the target's §4.5 stale-garbage retry execute
// it as a second, distinct operation. Left at the source, it drains
// through the existing marked-range GC path without re-executing.
func (ms *MasterServer) collectWitnessRecords(rs []witness.HashRange, executed map[rifl.RPCID]bool) []witness.Record {
	ms.peersMu.Lock()
	witnesses := append([]*rpc.Peer(nil), ms.witnesses...)
	ms.peersMu.Unlock()
	payload := u64Payload(ms.id)
	seen := make(map[rifl.RPCID]bool)
	var out []witness.Record
	for _, w := range witnesses {
		ctx, cancel := context.WithTimeout(context.Background(), ms.opts.RPCTimeout)
		raw, err := w.Call(ctx, OpWitnessSnapshot, payload)
		cancel()
		if err != nil {
			continue
		}
		records, err := decodeWitnessRecords(raw)
		if err != nil {
			continue
		}
		for _, rec := range records {
			if seen[rec.ID] || !executed[rec.ID] {
				continue
			}
			inRange := false
			for _, kh := range rec.KeyHashes {
				if witness.RangesContainHash(rs, kh) {
					inRange = true
					break
				}
			}
			if inRange {
				seen[rec.ID] = true
				out = append(out, rec)
			}
		}
	}
	return out
}

// handleMigrateInstall imports a bundle: phase 2, on the target master.
// Objects and completion records become ordinary log entries and are
// synced to the target's backups before the reply, so the handoff is as
// durable as native execution by the time the ring flips.
func (ms *MasterServer) handleMigrateInstall(ctx context.Context, payload []byte) ([]byte, error) {
	d := rpc.NewDecoder(payload)
	masterID := d.U64()
	bundle, err := unmarshalBundle(d)
	if err != nil {
		return nil, err
	}
	if masterID != ms.id {
		return nil, fmt.Errorf("master %d: migrate-install addressed to %d", ms.id, masterID)
	}
	// Every install is a master-originated log entry (the engine's Internal
	// mode); one sync at the end covers them all.
	install := func(cmd kv.Command, id rifl.RPCID, keyHashes []uint64) error {
		ms.eng.Lock()
		out := ms.applyInternal(cmd, id, keyHashes)
		ms.eng.Unlock()
		if out.Reply.Status == core.StatusError {
			return errors.New(out.Reply.Err)
		}
		return nil
	}
	for _, o := range bundle.Objects {
		cmd := o.Command()
		if err := install(cmd, rifl.RPCID{}, cmd.KeyHashes()); err != nil {
			return nil, fmt.Errorf("master %d: install object %q: %w", ms.id, o.Key, err)
		}
	}
	for _, dec := range bundle.Decisions {
		// Install each migrated decision as a home-record decide under a
		// zero entry ID (its RIFL completion record travels separately in
		// bundle.Completions). Idempotent: the store keeps the first
		// outcome.
		cmd := kv.TxnDecide(&kv.TxnCommand{
			ID:         dec.ID,
			Commit:     dec.Commit,
			HomeRecord: true,
			Home:       kv.TxnHome{MasterID: ms.id, Addr: ms.addr, KeyHash: dec.HomeHash},
		})
		if err := install(cmd, rifl.RPCID{}, []uint64{dec.HomeHash}); err != nil {
			return nil, fmt.Errorf("master %d: install decision %v: %w", ms.id, dec.ID, err)
		}
	}
	for _, c := range bundle.Completions {
		// Under the original RPC ID: RIFL skips what a retried install redoes.
		if err := install(kv.MigrateRecord(c.Result, c.KeyHashes), c.ID, c.KeyHashes); err != nil {
			return nil, fmt.Errorf("master %d: install completion %v: %w", ms.id, c.ID, err)
		}
	}
	if err := ms.eng.Sync(context.Background()); err != nil {
		return nil, fmt.Errorf("master %d: install sync: %w", ms.id, err)
	}
	ms.installWitnessRecords(bundle.WitnessRecords)
	e := rpc.NewEncoder(16)
	e.U32(uint32(len(bundle.Objects)))
	e.U32(uint32(len(bundle.Completions)))
	return e.Bytes(), nil
}

// installWitnessRecords re-records migrated witness records on this
// master's own witnesses, so operations that were under witness protection
// at the source when their ranges froze stay protected here: a
// post-handoff crash replays them from a local witness (deduplicated
// against the migrated completion records). Best effort — every migrated
// operation that completed speculatively is already durable via the
// bundle's log entries and the install sync, so a rejected or lost record
// costs nothing but a future conservative conflict verdict.
func (ms *MasterServer) installWitnessRecords(records []witness.Record) {
	if len(records) == 0 {
		return
	}
	ms.peersMu.Lock()
	witnesses := append([]*rpc.Peer(nil), ms.witnesses...)
	ms.peersMu.Unlock()
	version := ms.State().WitnessListVersion()
	for _, rec := range records {
		req := &recordRequest{
			MasterID:  ms.id,
			Version:   version,
			KeyHashes: rec.KeyHashes,
			ID:        rec.ID,
			Request:   rec.Request,
			Class:     rec.Class,
		}
		payload := req.encode()
		for _, w := range witnesses {
			ctx, cancel := context.WithTimeout(context.Background(), ms.opts.RPCTimeout)
			_, _ = w.Call(ctx, OpWitnessRecord, payload)
			cancel()
		}
	}
}

// handleMigrateComplete commits the handoff on the source: the ranges
// become MOVED for good, their objects are dropped, and the target's
// address is kept as the forward for decision lookups.
func (ms *MasterServer) handleMigrateComplete(ctx context.Context, payload []byte) ([]byte, error) {
	d := rpc.NewDecoder(payload)
	masterID, rs := rangesIn(d)
	destAddr := d.String()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if masterID != ms.id {
		return nil, fmt.Errorf("master %d: migrate-complete addressed to %d", ms.id, masterID)
	}
	ms.eng.Lock()
	ms.migr.markMoved(rs, destAddr)
	n := ms.dropMovedObjects(rs)
	ms.eng.Unlock()
	tc, _ := metrics.TraceFromContext(ctx)
	ms.jrn.RecordTrace(tc.TraceID, events.Event{
		Kind: events.KindMigrationCommit, MasterID: ms.id, Epoch: ms.epoch,
		NewAddr: destAddr,
		Detail:  fmt.Sprintf("%s committed, %d objects dropped", migrDetail(rs), n),
	})
	e := rpc.NewEncoder(8)
	e.U32(uint32(n))
	return e.Bytes(), nil
}

// handleMigrateAbort unfreezes ranges on the source after a failed
// transfer; the source serves them again.
func (ms *MasterServer) handleMigrateAbort(ctx context.Context, payload []byte) ([]byte, error) {
	d := rpc.NewDecoder(payload)
	masterID, rs := rangesIn(d)
	if err := d.Err(); err != nil {
		return nil, err
	}
	if masterID != ms.id {
		return nil, fmt.Errorf("master %d: migrate-abort addressed to %d", ms.id, masterID)
	}
	ms.migr.unmark(rs)
	tc, _ := metrics.TraceFromContext(ctx)
	ms.jrn.RecordTrace(tc.TraceID, events.Event{
		Kind: events.KindMigrationAbort, MasterID: ms.id, Epoch: ms.epoch,
		Detail: migrDetail(rs),
	})
	return nil, nil
}

// handleMigrateDrop discards installed-but-never-owned range state on the
// target after a failed migration. No marks are left: the target may
// legitimately receive the same ranges in a later attempt.
func (ms *MasterServer) handleMigrateDrop(ctx context.Context, payload []byte) ([]byte, error) {
	d := rpc.NewDecoder(payload)
	masterID, rs := rangesIn(d)
	if err := d.Err(); err != nil {
		return nil, err
	}
	if masterID != ms.id {
		return nil, fmt.Errorf("master %d: migrate-drop addressed to %d", ms.id, masterID)
	}
	ms.eng.Lock()
	n := ms.dropMovedObjects(rs)
	ms.eng.Unlock()
	e := rpc.NewEncoder(8)
	e.U32(uint32(n))
	return e.Bytes(), nil
}
