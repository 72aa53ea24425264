// Package witness implements CURP's witness component (paper §3.2.2, §4.1,
// §4.2): lightweight temporary storage that makes client requests durable
// without ordering them. A witness accepts a record only if it commutes with
// every record it currently holds, which for NoSQL operations reduces to
// "no existing record touches any of the same keys" — checked with 64-bit
// key hashes.
//
// Storage is a set-associative cache: a record's key hash selects a set of
// slots; the record occupies any free slot in the set. Associativity
// trades a slightly more expensive lookup for far fewer false conflicts
// than direct mapping (paper §B.1 / Figure 11); this package also exposes
// the collision simulation that regenerates Figure 11.
//
// A witness has two modes. In normal mode it serves Record and GC. The
// first GetRecoveryData call irreversibly moves it to recovery mode, where
// all mutations are rejected, so clients cannot complete operations by
// recording to a witness whose contents have already been replayed.
package witness

import (
	"errors"
	"sync"

	"curp/internal/commute"
	"curp/internal/rifl"
)

// RecordResult is the witness's response to a record RPC.
type RecordResult int

const (
	// Accepted: the request is durably saved.
	Accepted RecordResult = iota
	// RejectedConflict: a non-commutative request (same key hash) is
	// already stored; the client must sync through the master.
	RejectedConflict
	// RejectedFull: no free slot in one of the key's sets.
	RejectedFull
	// RejectedWrongMaster: the record targets a master this witness does
	// not serve (stale client configuration).
	RejectedWrongMaster
	// RejectedRecovery: the witness is in recovery mode and immutable.
	RejectedRecovery
)

// String names the result.
func (r RecordResult) String() string {
	switch r {
	case Accepted:
		return "accepted"
	case RejectedConflict:
		return "rejected-conflict"
	case RejectedFull:
		return "rejected-full"
	case RejectedWrongMaster:
		return "rejected-wrong-master"
	case RejectedRecovery:
		return "rejected-recovery"
	}
	return "rejected-unknown"
}

// Accepted reports whether the record was saved.
func (r RecordResult) Ok() bool { return r == Accepted }

// Record is a saved client request.
type Record struct {
	// KeyHashes identifies the objects the request mutates.
	KeyHashes []uint64
	// ID is the request's RIFL RPC ID.
	ID rifl.RPCID
	// Request is the opaque serialized client request, replayed verbatim
	// during recovery.
	Request []byte
	// Class is the request's commutativity class: two same-key records of
	// one non-write class commute and may both be accepted (see
	// internal/commute). ClassWrite reproduces the paper's key-granular
	// rule.
	Class commute.Class
}

// GCKey identifies one (keyHash, rpcID) pair to drop; a gc RPC carries one
// pair per object a synced request mutated (paper §4.5).
type GCKey struct {
	KeyHash uint64
	ID      rifl.RPCID
}

// GCKeys builds the gc pairs for one request: every key hash it touched,
// under its RPC ID. Used by masters collecting synced requests and by
// clients retracting the records of an abandoned RPC.
func GCKeys(keyHashes []uint64, id rifl.RPCID) []GCKey {
	keys := make([]GCKey, len(keyHashes))
	for i, kh := range keyHashes {
		keys[i] = GCKey{KeyHash: kh, ID: id}
	}
	return keys
}

// Config sizes a witness.
type Config struct {
	// Slots is the total number of request slots (paper default: 4096).
	Slots int
	// Ways is the set associativity (paper default: 4).
	Ways int
	// SlotBytes is the capacity of one slot (paper: 2KB); requests larger
	// than this are rejected as full.
	SlotBytes int
	// StaleGCThreshold is the number of GC passes a record survives before
	// the witness reports it as suspected uncollected garbage when it
	// causes a rejection (paper §4.5 suggests 3).
	StaleGCThreshold int
}

// DefaultConfig matches the paper's RAMCloud implementation: 4096 slots,
// 4-way associative, 2KB per slot, stale after 3 GC passes.
func DefaultConfig() Config {
	return Config{Slots: 4096, Ways: 4, SlotBytes: 2048, StaleGCThreshold: 3}
}

type slot struct {
	occupied bool
	keyHash  uint64
	id       rifl.RPCID
	request  []byte
	multiKey []uint64      // all key hashes of the request (shared across copies)
	gcEpoch  uint64        // value of w.gcPasses when the record was written
	class    commute.Class // commutativity class of the stored request
}

// Stats counts witness activity for the evaluation harness.
type Stats struct {
	Accepts          uint64
	ConflictRejects  uint64
	FullRejects      uint64
	WrongMaster      uint64
	RecoveryRejects  uint64
	GCDrops          uint64
	StaleSuspicions  uint64
	RecordedRequests uint64 // distinct requests currently stored
}

// Witness is one witness instance serving a single master. Safe for
// concurrent use.
type Witness struct {
	mu       sync.Mutex
	cfg      Config
	masterID uint64
	sets     []slot // nSets × ways, flattened
	nSets    int
	recovery bool
	gcPasses uint64
	// oldestEpoch is a lower bound on the gcEpoch of every occupied slot:
	// exact after a GC pass that walked the table, and still a bound after
	// any insert (stamped with the current pass) or drop. While it is
	// younger than StaleGCThreshold no record can be stale, and GC skips the
	// walk.
	oldestEpoch uint64
	stats       Stats
}

// ErrBadConfig reports an invalid witness configuration.
var ErrBadConfig = errors.New("witness: slots must be a positive multiple of ways")

// New creates a witness for the given master (the start RPC of Figure 4).
func New(masterID uint64, cfg Config) (*Witness, error) {
	if cfg.Slots <= 0 || cfg.Ways <= 0 || cfg.Slots%cfg.Ways != 0 {
		return nil, ErrBadConfig
	}
	if cfg.SlotBytes <= 0 {
		cfg.SlotBytes = 2048
	}
	if cfg.StaleGCThreshold <= 0 {
		cfg.StaleGCThreshold = 3
	}
	return &Witness{
		cfg:      cfg,
		masterID: masterID,
		sets:     make([]slot, cfg.Slots),
		nSets:    cfg.Slots / cfg.Ways,
	}, nil
}

// MustNew is New for known-good configurations; it panics on error.
func MustNew(masterID uint64, cfg Config) *Witness {
	w, err := New(masterID, cfg)
	if err != nil {
		panic(err)
	}
	return w
}

// MasterID returns the master this witness serves.
func (w *Witness) MasterID() uint64 { return w.masterID }

// setIndex returns the first slot index of the set for a key hash.
func (w *Witness) setIndex(keyHash uint64) int {
	return int(keyHash%uint64(w.nSets)) * w.cfg.Ways
}

// Record saves a client request mutating the given key hashes (the record
// RPC of Figure 4). The request is accepted only if every key's set has a
// free slot and every existing same-key record commutes with it — distinct
// keys always commute; equal keys commute exactly when
// commute.Commutes(stored class, class) holds.
func (w *Witness) Record(masterID uint64, keyHashes []uint64, id rifl.RPCID, request []byte, class commute.Class) RecordResult {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.recordLocked(masterID, keyHashes, id, request, class)
}

// RecordBatch saves several client requests under one lock acquisition —
// the server side of a pipelined client's coalesced record RPC. Each
// request is accepted or rejected independently, exactly as if recorded
// one at a time in order: results[i] is the outcome for recs[i], and an
// accepted earlier record participates in the commutativity check of later
// records in the same batch (two same-key requests in one batch yield one
// accept and one conflict, never two accepts).
func (w *Witness) RecordBatch(masterID uint64, recs []Record) []RecordResult {
	out := make([]RecordResult, len(recs))
	w.mu.Lock()
	defer w.mu.Unlock()
	for i, r := range recs {
		out[i] = w.recordLocked(masterID, r.KeyHashes, r.ID, r.Request, r.Class)
	}
	return out
}

// recordLocked is Record's body; the caller holds w.mu.
func (w *Witness) recordLocked(masterID uint64, keyHashes []uint64, id rifl.RPCID, request []byte, class commute.Class) RecordResult {
	if w.recovery {
		w.stats.RecoveryRejects++
		return RejectedRecovery
	}
	if masterID != w.masterID {
		w.stats.WrongMaster++
		return RejectedWrongMaster
	}
	if len(keyHashes) == 0 || len(request) > w.cfg.SlotBytes {
		w.stats.FullRejects++
		return RejectedFull
	}
	// Pass 1: every key must commute with stored records and have a free
	// slot (paper §4.2: both conditions checked for every affected object
	// before any write).
	// Slot indices for a request of a few keys stay on the stack.
	var freeBuf, claimedBuf [8]int
	free := freeBuf[:]
	if len(keyHashes) > len(free) {
		free = make([]int, len(keyHashes))
	}
	for i, kh := range keyHashes {
		base := w.setIndex(kh)
		freeIdx := -1
		for j := 0; j < w.cfg.Ways; j++ {
			s := &w.sets[base+j]
			if s.occupied {
				// Same key: conflict unless both records belong to one
				// commutative class. Commutative same-key records coexist
				// (each claims its own slot), so a hot counter's set fills
				// toward Ways concurrent increments before rejecting full.
				if s.keyHash == kh && !commute.Commutes(s.class, class) {
					w.noteConflict(s)
					return RejectedConflict
				}
				continue
			}
			if freeIdx < 0 {
				freeIdx = base + j
			}
		}
		// A multi-key request claims one slot per key; two keys of the same
		// request may map to the same set, so a set needs as many free
		// slots as the keys mapping to it. Recheck below handles that by
		// claiming slots one key at a time in pass 2; here we only verify
		// at least one slot is free.
		if freeIdx < 0 {
			w.stats.FullRejects++
			return RejectedFull
		}
		free[i] = freeIdx
	}
	// Pass 2: claim slots. Because pass 1 reserved only one slot per key,
	// re-scan for keys whose reserved slot was taken by an earlier key of
	// this same request.
	claimed := claimedBuf[:0]
	for i, kh := range keyHashes {
		idx := free[i]
		if w.sets[idx].occupied {
			idx = -1
			base := w.setIndex(kh)
			for j := 0; j < w.cfg.Ways; j++ {
				if !w.sets[base+j].occupied {
					idx = base + j
					break
				}
			}
			if idx < 0 {
				// Roll back slots claimed for earlier keys of this request.
				for _, c := range claimed {
					w.sets[c] = slot{}
				}
				w.stats.FullRejects++
				return RejectedFull
			}
		}
		w.sets[idx] = slot{
			occupied: true,
			keyHash:  kh,
			id:       id,
			request:  request,
			multiKey: keyHashes,
			gcEpoch:  w.gcPasses,
			class:    class,
		}
		claimed = append(claimed, idx)
	}
	w.stats.Accepts++
	w.stats.RecordedRequests++
	return Accepted
}

// noteConflict records a conflict rejection and flags the blocking record
// as suspected uncollected garbage if it has survived several GC passes.
func (w *Witness) noteConflict(s *slot) {
	w.stats.ConflictRejects++
	if w.gcPasses-s.gcEpoch >= uint64(w.cfg.StaleGCThreshold) {
		w.stats.StaleSuspicions++
	}
}

// GC drops the records named by keys (the gc RPC of Figure 4). Pairs that
// are not found are ignored — their record RPCs may have been rejected. It
// returns records that have survived at least StaleGCThreshold GC passes:
// suspected uncollected garbage the master should retry and re-sync
// (paper §4.5).
func (w *Witness) GC(keys []GCKey) []Record {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.recovery {
		return nil
	}
	w.gcPasses++
	dropped := map[rifl.RPCID]bool{}
	for _, k := range keys {
		base := w.setIndex(k.KeyHash)
		for j := 0; j < w.cfg.Ways; j++ {
			s := &w.sets[base+j]
			if s.occupied && s.keyHash == k.KeyHash && s.id == k.ID {
				if !dropped[s.id] {
					dropped[s.id] = true
					w.stats.RecordedRequests--
				}
				w.stats.GCDrops++
				*s = slot{}
			}
		}
	}
	// Report stale survivors. Post-mortem, PR 23: this walked all the slots
	// on every pass — once per sync per witness, under the mutex records
	// wait for — to find, almost always, nothing.
	threshold := uint64(w.cfg.StaleGCThreshold)
	if w.gcPasses-w.oldestEpoch < threshold {
		return nil
	}
	var stale []Record
	var seen map[rifl.RPCID]bool
	oldest := w.gcPasses
	for i := range w.sets {
		s := &w.sets[i]
		if !s.occupied {
			continue
		}
		oldest = min(oldest, s.gcEpoch)
		if w.gcPasses-s.gcEpoch >= threshold && !seen[s.id] {
			if seen == nil {
				seen = map[rifl.RPCID]bool{}
			}
			seen[s.id] = true
			stale = append(stale, Record{KeyHashes: s.multiKey, ID: s.id, Request: s.request, Class: s.class})
		}
	}
	w.oldestEpoch = oldest
	return stale
}

// DropRecords removes the exact (keyHash, id) pairs — a client retracting
// the records of an RPC it is abandoning. Unlike GC this is not a
// collection pass: it does not advance the staleness clock (a bounce storm
// must not age unrelated records into spurious §4.5 suspicions), and it
// FAILS in recovery mode — the records were already surfaced to a
// recovering master and can no longer be retracted, so the caller must
// not abandon the RPC ID.
func (w *Witness) DropRecords(keys []GCKey) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.recovery {
		return errors.New("witness: in recovery; records already surfaced and cannot be retracted")
	}
	dropped := map[rifl.RPCID]bool{}
	for _, k := range keys {
		base := w.setIndex(k.KeyHash)
		for j := 0; j < w.cfg.Ways; j++ {
			s := &w.sets[base+j]
			if s.occupied && s.keyHash == k.KeyHash && s.id == k.ID {
				if !dropped[s.id] {
					dropped[s.id] = true
					w.stats.RecordedRequests--
				}
				w.stats.GCDrops++
				*s = slot{}
			}
		}
	}
	return nil
}

// GetRecoveryData irreversibly switches the witness to recovery mode and
// returns every stored request exactly once (multi-key requests are
// deduplicated by RPC ID). All requests in a witness are mutually
// commutative, so the recovering master may replay them in any order.
func (w *Witness) GetRecoveryData() []Record {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.recovery = true
	seen := map[rifl.RPCID]bool{}
	var out []Record
	for i := range w.sets {
		s := &w.sets[i]
		if s.occupied && !seen[s.id] {
			seen[s.id] = true
			out = append(out, Record{KeyHashes: s.multiKey, ID: s.id, Request: s.request, Class: s.class})
		}
	}
	return out
}

// Commutes reports whether an operation touching keyHashes commutes with
// every record currently stored — the probe clients use to decide whether a
// nearby backup's value is safe to read (paper §A.1). A witness in recovery
// mode answers false: its contents are being replayed and reads must go to
// the master.
func (w *Witness) Commutes(keyHashes []uint64) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.recovery {
		return false
	}
	for _, kh := range keyHashes {
		base := w.setIndex(kh)
		for j := 0; j < w.cfg.Ways; j++ {
			s := &w.sets[base+j]
			if s.occupied && s.keyHash == kh {
				return false
			}
		}
	}
	return true
}

// SnapshotRecords returns the distinct requests currently stored without
// changing the witness's mode (unlike GetRecoveryData). Masters co-hosted
// with their witnesses use it to enumerate collectable records.
func (w *Witness) SnapshotRecords() []Record {
	w.mu.Lock()
	defer w.mu.Unlock()
	seen := map[rifl.RPCID]bool{}
	var out []Record
	for i := range w.sets {
		s := &w.sets[i]
		if s.occupied && !seen[s.id] {
			seen[s.id] = true
			out = append(out, Record{KeyHashes: s.multiKey, ID: s.id, Request: s.request, Class: s.class})
		}
	}
	return out
}

// InRecovery reports whether the witness has been frozen for recovery.
func (w *Witness) InRecovery() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.recovery
}

// End decommissions the witness (PAPER §4.6, Figure 4's end RPC): it drops
// every record. DEVIATION: Figure 4's end frees the slot for another master.
// Here a server allocates a fresh Witness per start, so an ended one stays in
// recovery mode for good: a record RPC that looked this instance up before
// the end is rejected, not accepted by an object no recovery will ever read.
func (w *Witness) End() {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i := range w.sets {
		w.sets[i] = slot{}
	}
	w.recovery = true
	w.stats = Stats{}
	w.gcPasses, w.oldestEpoch = 0, 0
}

// Stats returns a snapshot of activity counters.
func (w *Witness) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

// Len returns the number of distinct requests currently stored.
func (w *Witness) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return int(w.stats.RecordedRequests)
}

// MemoryFootprint returns the approximate resident bytes of this witness:
// slot payload capacity plus per-slot metadata. With the default 4096×2KB
// configuration this is ≈9MB, the paper's §5.2 figure.
func (w *Witness) MemoryFootprint() int64 {
	const perSlotMetadata = 48 // hash, id, epoch, header
	return int64(w.cfg.Slots) * int64(w.cfg.SlotBytes+perSlotMetadata)
}
