package core

import (
	"sync"
	"sync/atomic"
	"time"

	"curp/internal/commute"
)

// MasterConfig tunes a CURP master's sync policy.
type MasterConfig struct {
	// SyncBatchSize is the number of unsynced operations that triggers a
	// background sync. The paper found 50 a good ceiling: larger batches
	// marginally help throughput but increase witness rejections (§4.4).
	// With AdaptiveFlush set it becomes the threshold's upper bound.
	SyncBatchSize int
	// HotKeyWindow enables the preemptive-sync heuristic of §4.4: if two
	// consecutive updates to the same object land within this many log
	// positions, the master syncs right after responding, so future
	// requests on the hot object are not blocked. 0 disables it.
	HotKeyWindow uint64
	// SyncEveryOp forces a sync after every operation (the "minimum batch
	// size 1" configuration of Figure 12 / §5.3's contention mitigation).
	SyncEveryOp bool
	// AdaptiveFlush replaces the fixed unsynced-count threshold with a
	// load-adaptive one: the effective threshold is the number of
	// operations that arrive within TargetFlushDelay at the currently
	// observed update rate, clamped to [MinSyncBatch, SyncBatchSize].
	// Under light load the master flushes after a couple of operations
	// (short durability/read-block lag, witness slots recycled at once);
	// under burst the batch grows toward SyncBatchSize, amortizing backup
	// RPCs exactly when throughput needs it.
	AdaptiveFlush bool
	// MinSyncBatch floors the adaptive threshold (default 2).
	MinSyncBatch int
	// TargetFlushDelay is the staleness budget the adaptive threshold
	// aims for: roughly how long a speculative operation may wait before
	// a background flush starts (default 500µs).
	TargetFlushDelay time.Duration
	// WitnessBurstLimit bounds a single key's run of unsynced COMMUTING
	// mutations: when the run reaches this length, NoteMutation reports
	// hot=true so the caller syncs right after replying. Commuting records
	// each occupy their own witness slot, so a hot counter's burst fills
	// its Ways-associative set; syncing just before the set is full
	// recycles the slots and keeps the burst on the 1-RTT path instead of
	// tripping witness rejections. 0 disables the bound. Size it to the
	// witness associativity (Ways).
	WitnessBurstLimit int
}

// DefaultMasterConfig returns the paper's defaults (batch 50, hot-key
// preemptive sync enabled).
func DefaultMasterConfig() MasterConfig {
	return MasterConfig{SyncBatchSize: 50, HotKeyWindow: 64}
}

// MasterState is the ordering half of a CURP master (paper §3.2.3, §4.3):
// it remembers, per key hash, the log position of the last mutation, and
// the last log position replicated to backups. An operation commutes with
// the unsynced suffix exactly when none of its keys were mutated after the
// last sync. MasterState is pure bookkeeping — execution and replication
// live in the substrate — so the identical logic drives the real cluster
// runtime, the discrete-event simulator, and unit tests.
//
// Safe for concurrent use; the caller must provide atomicity ACROSS calls
// where required (the cluster master serializes execution with its own
// lock, mirroring the single dispatch thread of the paper's RAMCloud
// implementation).
type MasterState struct {
	mu sync.Mutex
	// lastMutation maps key hash → the key's most recent unsynced mutation
	// (LSN + commutativity class). Entries at or below syncedLSN are pruned
	// on sync. When mutations of DIFFERENT classes land on one key within a
	// single unsynced window, the entry's class is poisoned to ClassWrite:
	// the window now contains an order-dependent pair, so nothing may
	// commute with it until a sync drains it.
	lastMutation map[uint64]keyMut
	// recentMutation also maps key hash → last mutation, but survives
	// syncs: it feeds the hot-key heuristic (§4.4), which cares about
	// update recency regardless of durability. Entries older than
	// HotKeyWindow are pruned on sync.
	recentMutation map[uint64]keyMut
	headLSN        uint64
	syncedLSN      uint64
	cfg            MasterConfig

	// lastArrival / gapEWMA smooth the update inter-arrival gap for the
	// adaptive flush threshold (nanoseconds; see MasterConfig).
	lastArrival int64
	gapEWMA     float64

	witnessListVersion uint64
	frozen             bool

	// Protocol counters live outside m.mu: counting happens on every
	// operation and stats are scraped concurrently by heartbeats and
	// /metrics exporters, so collection is lock-free (merge-on-snapshot
	// semantics — Stats() assembles a consistent-enough view from the
	// atomics without stalling the execution path).
	specOps       atomic.Uint64
	conflictSyncs atomic.Uint64
	batchSyncs    atomic.Uint64
	hotKeySyncs   atomic.Uint64
	burstSyncs    atomic.Uint64
	readBlocks    atomic.Uint64
}

// MasterStats counts protocol events for the evaluation harness.
type MasterStats struct {
	// SpeculativeOps completed without waiting for a sync (1 RTT path).
	SpeculativeOps uint64
	// ConflictSyncs were forced by a non-commutative operation.
	ConflictSyncs uint64
	// BatchSyncs were triggered by the unsynced-count threshold.
	BatchSyncs uint64
	// HotKeySyncs were triggered by the preemptive heuristic.
	HotKeySyncs uint64
	// BurstSyncs were triggered by the witness-burst bound: a single
	// key's run of commuting unsynced mutations reached
	// WitnessBurstLimit, so the master synced to recycle witness slots
	// before the key's set filled.
	BurstSyncs uint64
	// ReadBlocks are reads that had to wait for a sync (§A.3).
	ReadBlocks uint64
	// FlushThreshold is the current background-flush batch threshold —
	// SyncBatchSize for fixed policies, the load-adaptive value when
	// AdaptiveFlush is on.
	FlushThreshold uint64
}

// keyMut is one key's last-mutation record: where in the log it happened,
// what commutativity class it carried, and how long the key's current
// unsynced run of same-class commuting mutations is (the witness-burst
// bound's input; meaningful in lastMutation only).
type keyMut struct {
	lsn   uint64
	class commute.Class
	run   int
}

// NewMasterState creates master bookkeeping with the given config.
func NewMasterState(cfg MasterConfig) *MasterState {
	if cfg.SyncBatchSize <= 0 {
		cfg.SyncBatchSize = 50
	}
	if cfg.MinSyncBatch <= 0 {
		cfg.MinSyncBatch = 2
	}
	if cfg.MinSyncBatch > cfg.SyncBatchSize {
		cfg.MinSyncBatch = cfg.SyncBatchSize
	}
	if cfg.TargetFlushDelay <= 0 {
		cfg.TargetFlushDelay = 500 * time.Microsecond
	}
	return &MasterState{
		lastMutation:   make(map[uint64]keyMut),
		recentMutation: make(map[uint64]keyMut),
		cfg:            cfg,
	}
}

// Config returns the master's sync policy.
func (m *MasterState) Config() MasterConfig { return m.cfg }

// Conflicts reports whether an operation of the given commutativity class
// touching keyHashes fails to commute with the unsynced suffix: true when
// any touched key was mutated after the last backup sync by an operation
// the new one does not commute with. Two pending counter increments on one
// hot key commute and both stay speculative; a Put landing on that key does
// not, and must sync before its result is revealed. Reads pass
// commute.ClassWrite — returning a value that depends on an unsynced write
// would leak state that may not survive a crash (§3.2.3) regardless of how
// the writes commute among themselves.
func (m *MasterState) Conflicts(keyHashes []uint64, class commute.Class) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, kh := range keyHashes {
		if km, ok := m.lastMutation[kh]; ok && km.lsn > m.syncedLSN && !commute.Commutes(km.class, class) {
			return true
		}
	}
	return false
}

// NoteMutation records that an executed operation of the given class
// mutated keyHashes at log position lsn. It returns hot=true when the
// preemptive-sync heuristic fired (the key's previous mutation was within
// HotKeyWindow log positions AND the two do not commute), suggesting the
// caller start a sync immediately after replying (§4.4). The commutativity
// gate matters: a hot counter is the workload the class machinery exists
// for — preemptively syncing it would push every increment off the 1-RTT
// path the moment the key got popular, which is precisely backwards.
func (m *MasterState) NoteMutation(keyHashes []uint64, lsn uint64, class commute.Class) (hot bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if lsn > m.headLSN {
		m.headLSN = lsn
	}
	if m.cfg.AdaptiveFlush {
		now := time.Now().UnixNano()
		if m.lastArrival != 0 {
			gap := float64(now - m.lastArrival)
			if gap < 0 {
				gap = 0
			}
			if m.gapEWMA == 0 {
				m.gapEWMA = gap
			} else {
				// 0.25 smoothing: a burst drops the gap (and raises the
				// threshold) within a handful of operations, while one
				// straggler cannot reset an established rate.
				m.gapEWMA += (gap - m.gapEWMA) * 0.25
			}
		}
		m.lastArrival = now
	}
	burst := false
	for _, kh := range keyHashes {
		if prev, ok := m.recentMutation[kh]; ok && m.cfg.HotKeyWindow > 0 &&
			lsn-prev.lsn <= m.cfg.HotKeyWindow && !commute.Commutes(prev.class, class) {
			hot = true
		}
		m.recentMutation[kh] = keyMut{lsn: lsn, class: class}
		entryClass := class
		run := 1
		if km, ok := m.lastMutation[kh]; ok && km.lsn > m.syncedLSN {
			if km.class != class {
				// Mixed classes inside one unsynced window: poison the entry so
				// a later operation cannot commute past the older, different-
				// class mutation the single-entry map no longer remembers
				// (SetAdd, SetRemove, SetRemove must not let the third op skip
				// the first's ordering).
				entryClass = commute.ClassWrite
			} else if commute.Commutes(km.class, class) {
				// Same class and speculative-compatible: the burst grows —
				// each of these records occupies its own witness slot.
				run = km.run + 1
			}
		}
		if m.cfg.WitnessBurstLimit > 0 && run >= m.cfg.WitnessBurstLimit {
			burst = true
			run = 0 // the caller's sync drains the set; restart the count
		}
		m.lastMutation[kh] = keyMut{lsn: lsn, class: entryClass, run: run}
	}
	if hot {
		m.hotKeySyncs.Add(1)
	}
	if burst {
		m.burstSyncs.Add(1)
		hot = true
	}
	return hot
}

// NoteSync records that backups now hold every entry up to lsn, and prunes
// bookkeeping for keys whose last mutation is now durable.
func (m *MasterState) NoteSync(lsn uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if lsn <= m.syncedLSN {
		return
	}
	m.syncedLSN = lsn
	for kh, km := range m.lastMutation {
		if km.lsn <= lsn {
			delete(m.lastMutation, kh)
		}
	}
	// Bound the hot-key history: anything older than the window can no
	// longer make a new update "hot".
	if m.cfg.HotKeyWindow > 0 {
		for kh, km := range m.recentMutation {
			if km.lsn+m.cfg.HotKeyWindow < m.headLSN {
				delete(m.recentMutation, kh)
			}
		}
	} else {
		m.recentMutation = make(map[uint64]keyMut)
	}
}

// InitRestored initializes bookkeeping on a recovered master: head is the
// log position restored from backups and synced is how much of that log is
// already durable on the backups the master will sync to (0 when recovery
// reset them for re-seeding). No keys conflict until new mutations arrive —
// restored state predates any speculative execution by this master.
func (m *MasterState) InitRestored(head, synced uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.headLSN = head
	m.syncedLSN = synced
	m.lastMutation = make(map[uint64]keyMut)
	m.recentMutation = make(map[uint64]keyMut)
}

// Head returns the LSN of the most recent mutation seen.
func (m *MasterState) Head() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.headLSN
}

// SyncedLSN returns the highest LSN known replicated to backups.
func (m *MasterState) SyncedLSN() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.syncedLSN
}

// UnsyncedCount returns the number of log entries not yet on backups.
func (m *MasterState) UnsyncedCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return int(m.headLSN - m.syncedLSN)
}

// NeedsBatchSync reports whether the unsynced suffix reached the batch
// threshold (or SyncEveryOp is set), so the caller should start a
// background sync (§4.4). With AdaptiveFlush the threshold follows the
// offered load instead of sitting at SyncBatchSize.
func (m *MasterState) NeedsBatchSync() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.headLSN == m.syncedLSN {
		return false
	}
	if m.cfg.SyncEveryOp {
		return true
	}
	return int(m.headLSN-m.syncedLSN) >= m.flushThresholdLocked()
}

// flushThresholdLocked computes the current batch-flush threshold: the
// number of operations expected within TargetFlushDelay at the smoothed
// arrival rate, clamped to [MinSyncBatch, SyncBatchSize]. Must hold m.mu.
func (m *MasterState) flushThresholdLocked() int {
	if !m.cfg.AdaptiveFlush {
		return m.cfg.SyncBatchSize
	}
	if m.gapEWMA <= 0 {
		return m.cfg.MinSyncBatch
	}
	th := int(float64(m.cfg.TargetFlushDelay.Nanoseconds()) / m.gapEWMA)
	if th < m.cfg.MinSyncBatch {
		return m.cfg.MinSyncBatch
	}
	if th > m.cfg.SyncBatchSize {
		return m.cfg.SyncBatchSize
	}
	return th
}

// FlushThreshold returns the current effective batch-flush threshold
// (reported in stats and on master heartbeats).
func (m *MasterState) FlushThreshold() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.flushThresholdLocked()
}

// CheckWitnessList verifies a request's witness-list version. A master
// must reject requests recorded against a decommissioned witness set, or
// an unsynced update could "complete" while its only durable copy sits in
// witnesses that recovery will never consult (§3.6).
func (m *MasterState) CheckWitnessList(v uint64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return v == m.witnessListVersion
}

// WitnessListVersion returns the current version.
func (m *MasterState) WitnessListVersion() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.witnessListVersion
}

// SetWitnessListVersion installs a new witness configuration version. The
// caller must have synced to backups first (§3.6: the master syncs before
// acknowledging the new witness list, restoring f fault tolerance).
func (m *MasterState) SetWitnessListVersion(v uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.witnessListVersion = v
}

// Freeze stops the master from accepting operations (final step of
// migration, §3.6, or after deposal). Frozen masters answer WrongMaster.
func (m *MasterState) Freeze() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.frozen = true
}

// Frozen reports whether the master is frozen.
func (m *MasterState) Frozen() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.frozen
}

// CountSpeculative increments the 1-RTT completion counter (lock-free).
func (m *MasterState) CountSpeculative() { m.specOps.Add(1) }

// CountConflictSync increments the forced-sync counter (lock-free).
func (m *MasterState) CountConflictSync() { m.conflictSyncs.Add(1) }

// CountBatchSync increments the batch-sync counter (lock-free).
func (m *MasterState) CountBatchSync() { m.batchSyncs.Add(1) }

// CountReadBlock increments the blocked-read counter (lock-free).
func (m *MasterState) CountReadBlock() { m.readBlocks.Add(1) }

// Stats returns a snapshot of protocol counters. The counters are read
// atomically without taking the execution lock; only FlushThreshold — a
// function of the adaptive-flush EWMA — briefly takes m.mu.
func (m *MasterState) Stats() MasterStats {
	st := MasterStats{
		SpeculativeOps: m.specOps.Load(),
		ConflictSyncs:  m.conflictSyncs.Load(),
		BatchSyncs:     m.batchSyncs.Load(),
		HotKeySyncs:    m.hotKeySyncs.Load(),
		BurstSyncs:     m.burstSyncs.Load(),
		ReadBlocks:     m.readBlocks.Load(),
	}
	m.mu.Lock()
	st.FlushThreshold = uint64(m.flushThresholdLocked())
	m.mu.Unlock()
	return st
}

// UnsyncedInvariantHolds verifies the §3.2.3 safety invariant for tests:
// every tracked unsynced key maps to an LSN in (syncedLSN, headLSN]. It
// returns false if bookkeeping ever drifts.
func (m *MasterState) UnsyncedInvariantHolds() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, km := range m.lastMutation {
		if km.lsn <= m.syncedLSN || km.lsn > m.headLSN {
			return false
		}
	}
	return true
}
