package witness

import (
	"curp/internal/commute"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"curp/internal/rifl"
)

func testWitness(t *testing.T) *Witness {
	t.Helper()
	w, err := New(1, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func id(c, s uint64) rifl.RPCID {
	return rifl.RPCID{Client: rifl.ClientID(c), Seq: rifl.Seq(s)}
}

func TestNewValidation(t *testing.T) {
	for _, cfg := range []Config{
		{Slots: 0, Ways: 4},
		{Slots: 10, Ways: 4}, // not a multiple
		{Slots: 16, Ways: 0},
		{Slots: -4, Ways: 4},
	} {
		if _, err := New(1, cfg); err == nil {
			t.Errorf("config %+v should be rejected", cfg)
		}
	}
	// Defaults fill in.
	w, err := New(1, Config{Slots: 8, Ways: 2})
	if err != nil {
		t.Fatal(err)
	}
	if w.cfg.SlotBytes != 2048 || w.cfg.StaleGCThreshold != 3 {
		t.Fatalf("defaults not applied: %+v", w.cfg)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNew should panic on bad config")
		}
	}()
	MustNew(1, Config{Slots: 3, Ways: 2})
}

func TestRecordAcceptAndConflict(t *testing.T) {
	w := testWitness(t)
	if res := w.Record(1, []uint64{100}, id(1, 1), []byte("x=1"), commute.ClassWrite); !res.Ok() {
		t.Fatalf("first record = %v", res)
	}
	// Same key, different request: non-commutative → reject (paper example:
	// witness holding "x←1" cannot accept "x←5").
	if res := w.Record(1, []uint64{100}, id(1, 2), []byte("x=5"), commute.ClassWrite); res != RejectedConflict {
		t.Fatalf("conflicting record = %v, want RejectedConflict", res)
	}
	// Different key: commutative → accept.
	if res := w.Record(1, []uint64{200}, id(1, 3), []byte("y=2"), commute.ClassWrite); !res.Ok() {
		t.Fatalf("commutative record = %v", res)
	}
	st := w.Stats()
	if st.Accepts != 2 || st.ConflictRejects != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if w.Len() != 2 {
		t.Fatalf("len = %d", w.Len())
	}
}

func TestRecordWrongMaster(t *testing.T) {
	w := testWitness(t)
	if res := w.Record(2, []uint64{1}, id(1, 1), []byte("x"), commute.ClassWrite); res != RejectedWrongMaster {
		t.Fatalf("wrong master = %v", res)
	}
	if w.MasterID() != 1 {
		t.Fatalf("master = %d", w.MasterID())
	}
}

func TestRecordOversizedAndEmpty(t *testing.T) {
	w := MustNew(1, Config{Slots: 16, Ways: 4, SlotBytes: 8})
	if res := w.Record(1, []uint64{1}, id(1, 1), make([]byte, 9), commute.ClassWrite); res != RejectedFull {
		t.Fatalf("oversized = %v", res)
	}
	if res := w.Record(1, nil, id(1, 2), []byte("x"), commute.ClassWrite); res != RejectedFull {
		t.Fatalf("no keys = %v", res)
	}
}

func TestSetFullRejection(t *testing.T) {
	// 8 slots, 4-way → 2 sets. Fill one set with 4 distinct keys mapping to
	// it; the 5th must be RejectedFull.
	w := MustNew(1, Config{Slots: 8, Ways: 4})
	nSets := uint64(2)
	var inserted int
	kh := uint64(0)
	for inserted < 4 {
		kh += nSets // all map to set 0
		if res := w.Record(1, []uint64{kh}, id(1, kh), []byte("v"), commute.ClassWrite); !res.Ok() {
			t.Fatalf("fill %d = %v", inserted, res)
		}
		inserted++
	}
	kh += nSets
	if res := w.Record(1, []uint64{kh}, id(1, kh), []byte("v"), commute.ClassWrite); res != RejectedFull {
		t.Fatalf("full set = %v, want RejectedFull", res)
	}
	// The other set is untouched.
	if res := w.Record(1, []uint64{1}, id(2, 1), []byte("v"), commute.ClassWrite); !res.Ok() {
		t.Fatalf("other set = %v", res)
	}
}

func TestMultiKeyRecord(t *testing.T) {
	w := testWitness(t)
	// A transaction touching 3 objects occupies 3 slots but is one request.
	keys := []uint64{10, 20, 30}
	if res := w.Record(1, keys, id(1, 1), []byte("txn"), commute.ClassWrite); !res.Ok() {
		t.Fatalf("multi-key = %v", res)
	}
	if w.Len() != 1 {
		t.Fatalf("len = %d, want 1 (single request)", w.Len())
	}
	// Any overlap conflicts.
	if res := w.Record(1, []uint64{20}, id(1, 2), []byte("w"), commute.ClassWrite); res != RejectedConflict {
		t.Fatalf("overlap = %v", res)
	}
	// Recovery data deduplicates to one record with all keys.
	recs := w.GetRecoveryData()
	if len(recs) != 1 || len(recs[0].KeyHashes) != 3 || recs[0].ID != id(1, 1) {
		t.Fatalf("recovery data = %+v", recs)
	}
}

func TestMultiKeySameSetRollback(t *testing.T) {
	// Two keys of one request mapping to the same set need two free slots;
	// if only one is free the record must be rejected and fully rolled back.
	w := MustNew(1, Config{Slots: 4, Ways: 2}) // 2 sets of 2
	// Fill set 0 with one record: one slot left in set 0.
	if res := w.Record(1, []uint64{0}, id(1, 1), []byte("a"), commute.ClassWrite); !res.Ok() {
		t.Fatal(res)
	}
	// Request touching keys 2 and 4 — both map to set 0 (even numbers).
	if res := w.Record(1, []uint64{2, 4}, id(1, 2), []byte("b"), commute.ClassWrite); res != RejectedFull {
		t.Fatalf("same-set multi-key = %v, want RejectedFull", res)
	}
	// Rollback must leave the one free slot usable.
	if res := w.Record(1, []uint64{6}, id(1, 3), []byte("c"), commute.ClassWrite); !res.Ok() {
		t.Fatalf("slot not rolled back: %v", res)
	}
	if w.Len() != 2 {
		t.Fatalf("len = %d", w.Len())
	}
}

func TestMultiKeyBothFitSameSet(t *testing.T) {
	w := MustNew(1, Config{Slots: 4, Ways: 2})
	// Keys 2 and 4 both map to set 0, which has 2 free slots → accept.
	if res := w.Record(1, []uint64{2, 4}, id(1, 1), []byte("b"), commute.ClassWrite); !res.Ok() {
		t.Fatalf("multi-key same set with space = %v", res)
	}
	// Set 0 now full.
	if res := w.Record(1, []uint64{6}, id(1, 2), []byte("c"), commute.ClassWrite); res != RejectedFull {
		t.Fatalf("set should be full: %v", res)
	}
}

func TestGC(t *testing.T) {
	w := testWitness(t)
	w.Record(1, []uint64{1}, id(1, 1), []byte("a"), commute.ClassWrite)
	w.Record(1, []uint64{2}, id(1, 2), []byte("b"), commute.ClassWrite)
	w.Record(1, []uint64{3, 4}, id(1, 3), []byte("c"), commute.ClassWrite)
	if w.Len() != 3 {
		t.Fatalf("len = %d", w.Len())
	}
	// GC one single-key record and the multi-key record (all pairs).
	stale := w.GC([]GCKey{
		{KeyHash: 1, ID: id(1, 1)},
		{KeyHash: 3, ID: id(1, 3)},
		{KeyHash: 4, ID: id(1, 3)},
	})
	if len(stale) != 0 {
		t.Fatalf("stale = %v", stale)
	}
	if w.Len() != 1 {
		t.Fatalf("len after gc = %d, want 1", w.Len())
	}
	// The freed keys are usable again.
	if res := w.Record(1, []uint64{1}, id(9, 1), []byte("a2"), commute.ClassWrite); !res.Ok() {
		t.Fatalf("key 1 after gc = %v", res)
	}
	// GC of unknown pairs is ignored (record RPC might have been rejected).
	w.GC([]GCKey{{KeyHash: 99, ID: id(9, 9)}})
}

func TestGCWrongIDLeavesRecord(t *testing.T) {
	w := testWitness(t)
	w.Record(1, []uint64{5}, id(1, 1), []byte("v"), commute.ClassWrite)
	w.GC([]GCKey{{KeyHash: 5, ID: id(1, 99)}}) // ID mismatch
	if w.Len() != 1 {
		t.Fatal("gc with mismatched id dropped the record")
	}
}

func TestStaleGarbageDetection(t *testing.T) {
	// A record that survives ≥3 GC passes is reported as suspected
	// uncollected garbage in GC responses, and conflict rejections against
	// it are counted (paper §4.5).
	w := testWitness(t)
	w.Record(1, []uint64{42}, id(1, 1), []byte("orphan"), commute.ClassWrite)
	var stale []Record
	for i := 0; i < 3; i++ {
		stale = w.GC(nil)
	}
	if len(stale) != 1 || stale[0].ID != id(1, 1) {
		t.Fatalf("stale after 3 passes = %+v", stale)
	}
	// A conflicting record against the stale entry bumps StaleSuspicions.
	if res := w.Record(1, []uint64{42}, id(2, 1), []byte("new"), commute.ClassWrite); res != RejectedConflict {
		t.Fatalf("conflict = %v", res)
	}
	if st := w.Stats(); st.StaleSuspicions != 1 {
		t.Fatalf("stale suspicions = %d", st.StaleSuspicions)
	}
	// After the master retries and GCs it, the key frees up.
	w.GC([]GCKey{{KeyHash: 42, ID: id(1, 1)}})
	if res := w.Record(1, []uint64{42}, id(2, 2), []byte("new"), commute.ClassWrite); !res.Ok() {
		t.Fatalf("after stale collection = %v", res)
	}
}

func TestRecoveryModeFreezes(t *testing.T) {
	w := testWitness(t)
	w.Record(1, []uint64{1}, id(1, 1), []byte("a"), commute.ClassWrite)
	if w.InRecovery() {
		t.Fatal("fresh witness in recovery")
	}
	recs := w.GetRecoveryData()
	if len(recs) != 1 || string(recs[0].Request) != "a" {
		t.Fatalf("recovery data = %+v", recs)
	}
	if !w.InRecovery() {
		t.Fatal("witness should be frozen")
	}
	// All mutations rejected.
	if res := w.Record(1, []uint64{2}, id(1, 2), []byte("b"), commute.ClassWrite); res != RejectedRecovery {
		t.Fatalf("record in recovery = %v", res)
	}
	if got := w.GC([]GCKey{{KeyHash: 1, ID: id(1, 1)}}); got != nil {
		t.Fatalf("gc in recovery = %v", got)
	}
	if w.Len() != 1 {
		t.Fatal("recovery mutated contents")
	}
	// Repeated GetRecoveryData returns the same data.
	recs2 := w.GetRecoveryData()
	if len(recs2) != 1 || recs2[0].ID != recs[0].ID {
		t.Fatalf("second recovery data = %+v", recs2)
	}
}

// An ended witness drops its records and stays frozen: nothing reuses the
// object (servers allocate a fresh one per start), so a record or a
// retraction that still holds the old pointer must be refused.
func TestEndStaysFrozen(t *testing.T) {
	w := testWitness(t)
	w.Record(1, []uint64{1}, id(1, 1), []byte("a"), commute.ClassWrite)
	w.GetRecoveryData()
	w.End()
	if !w.InRecovery() || w.Len() != 0 {
		t.Fatalf("ended witness: recovery=%v len=%d, want frozen and empty", w.InRecovery(), w.Len())
	}
	if res := w.Record(1, []uint64{1}, id(1, 2), []byte("b"), commute.ClassWrite); res != RejectedRecovery {
		t.Fatalf("record after End = %v", res)
	}
	if err := w.DropRecords([]GCKey{{KeyHash: 1, ID: id(1, 1)}}); err == nil {
		t.Fatal("DropRecords after End succeeded")
	}
	// Ending a witness that was never frozen (a replaced witness of a live
	// master) poisons it just the same.
	w = testWitness(t)
	w.End()
	if res := w.Record(1, []uint64{2}, id(1, 3), []byte("c"), commute.ClassWrite); res != RejectedRecovery {
		t.Fatalf("record after End without recovery = %v", res)
	}
}

func TestCommutativityInvariant(t *testing.T) {
	// Property (paper §3.2.2): a witness never holds two records with a
	// common key hash. Drive it with random records and GCs and verify.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := MustNew(1, Config{Slots: 64, Ways: 4, SlotBytes: 64})
		live := map[rifl.RPCID][]uint64{}
		for i := 0; i < 300; i++ {
			switch rng.Intn(3) {
			case 0, 1: // record
				nk := rng.Intn(3) + 1
				keys := make([]uint64, 0, nk)
				seen := map[uint64]bool{}
				for len(keys) < nk {
					k := uint64(rng.Intn(40))
					if !seen[k] {
						seen[k] = true
						keys = append(keys, k)
					}
				}
				rid := id(1, uint64(i+1))
				if w.Record(1, keys, rid, []byte("v"), commute.ClassWrite).Ok() {
					live[rid] = keys
				}
			case 2: // gc a random live record
				for rid, keys := range live {
					var gcs []GCKey
					for _, k := range keys {
						gcs = append(gcs, GCKey{KeyHash: k, ID: rid})
					}
					w.GC(gcs)
					delete(live, rid)
					break
				}
			}
			// Invariant: stored records are pairwise key-disjoint.
			used := map[uint64]rifl.RPCID{}
			for rid, keys := range live {
				for _, k := range keys {
					if other, dup := used[k]; dup && other != rid {
						return false
					}
					used[k] = rid
				}
			}
			// And the witness agrees with our model of what is stored.
			if w.Len() != len(live) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestPerSlotClassInvariant extends the §3.2.2 property to the class-aware
// conflict rule: a witness may hold two live records sharing a key hash
// ONLY when their classes commute (same non-write class), and it must
// never report a conflict when they do. Random records across all five
// classes, interleaved with random GCs, are checked against a model of
// the live set after every step.
func TestPerSlotClassInvariant(t *testing.T) {
	classes := []commute.Class{
		commute.ClassWrite, commute.ClassCounter,
		commute.ClassSetAdd, commute.ClassSetRemove, commute.ClassBucket,
	}
	type rec struct {
		keys  []uint64
		class commute.Class
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := MustNew(1, Config{Slots: 64, Ways: 4, SlotBytes: 64})
		live := map[rifl.RPCID]rec{}
		for i := 0; i < 300; i++ {
			switch rng.Intn(3) {
			case 0, 1: // record with a random class
				nk := rng.Intn(3) + 1
				keys := make([]uint64, 0, nk)
				seen := map[uint64]bool{}
				for len(keys) < nk {
					k := uint64(rng.Intn(40))
					if !seen[k] {
						seen[k] = true
						keys = append(keys, k)
					}
				}
				cls := classes[rng.Intn(len(classes))]
				conflict := false
				for _, r := range live {
					for _, k := range r.keys {
						for _, k2 := range keys {
							if k == k2 && !commute.Commutes(r.class, cls) {
								conflict = true
							}
						}
					}
				}
				switch res := w.Record(1, keys, id(1, uint64(i+1)), []byte("v"), cls); {
				case res.Ok():
					if conflict {
						return false // accepted over a non-commuting record
					}
					live[id(1, uint64(i+1))] = rec{keys, cls}
				case res == RejectedConflict:
					if !conflict {
						return false // spurious conflict between commuting records
					}
				case res == RejectedFull:
					// Capacity, not correctness; the model skips it too.
				default:
					return false
				}
			case 2: // gc a random live record
				for rid, r := range live {
					var gcs []GCKey
					for _, k := range r.keys {
						gcs = append(gcs, GCKey{KeyHash: k, ID: rid})
					}
					w.GC(gcs)
					delete(live, rid)
					break
				}
			}
			if w.Len() != len(live) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRecoveryDataMatchesAccepted(t *testing.T) {
	// Property: GetRecoveryData returns exactly the accepted-and-not-GCed
	// requests, each exactly once.
	rng := rand.New(rand.NewSource(11))
	w := testWitness(t)
	expect := map[rifl.RPCID]bool{}
	for i := 0; i < 500; i++ {
		rid := id(uint64(rng.Intn(5)+1), uint64(i+1))
		keys := []uint64{rng.Uint64(), rng.Uint64()}
		if w.Record(1, keys, rid, []byte("v"), commute.ClassWrite).Ok() {
			expect[rid] = true
			if rng.Intn(4) == 0 {
				w.GC([]GCKey{{keys[0], rid}, {keys[1], rid}})
				delete(expect, rid)
			}
		}
	}
	recs := w.GetRecoveryData()
	if len(recs) != len(expect) {
		t.Fatalf("recovery count = %d, want %d", len(recs), len(expect))
	}
	for _, r := range recs {
		if !expect[r.ID] {
			t.Fatalf("unexpected record %v", r.ID)
		}
		delete(expect, r.ID)
	}
}

func TestConcurrentRecords(t *testing.T) {
	w := testWitness(t)
	var wg sync.WaitGroup
	accepted := make([]int, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 500; i++ {
				rid := id(uint64(g+1), uint64(i+1))
				if w.Record(1, []uint64{rng.Uint64()}, rid, []byte("v"), commute.ClassWrite).Ok() {
					accepted[g]++
				}
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, a := range accepted {
		total += a
	}
	if w.Len() != total {
		t.Fatalf("len = %d, accepted = %d", w.Len(), total)
	}
}

func TestMemoryFootprint(t *testing.T) {
	w := testWitness(t)
	mb := float64(w.MemoryFootprint()) / (1 << 20)
	// Paper §5.2: ≈9MB per master-witness pair with 4096 × 2KB slots.
	if mb < 8 || mb > 10 {
		t.Fatalf("memory footprint = %.1f MB, want ≈9", mb)
	}
}

func TestKeyHash(t *testing.T) {
	if KeyHash([]byte("hello")) != KeyHashString("hello") {
		t.Fatal("byte and string hashes differ")
	}
	if KeyHash([]byte("a")) == KeyHash([]byte("b")) {
		t.Fatal("trivial collision")
	}
	if KeyHash(nil) != KeyHashString("") {
		t.Fatal("empty hash mismatch")
	}
	// Distribution sanity: hashes of sequential keys spread across sets.
	sets := map[uint64]int{}
	for i := 0; i < 4096; i++ {
		sets[KeyHashString(string(rune(i)))%1024]++
	}
	if len(sets) < 900 {
		t.Fatalf("poor hash spread: only %d/1024 sets hit", len(sets))
	}
}

func TestCollisionTrialShape(t *testing.T) {
	// Figure 11 shape: associativity increases expected records before
	// collision; direct-mapped 4096 slots collides around ~80 (birthday).
	direct := ExpectedRecordsToCollision(4096, 1, 200, 1)
	if direct < 50 || direct > 120 {
		t.Fatalf("direct-mapped 4096: %.1f, want ≈80", direct)
	}
	way2 := ExpectedRecordsToCollision(4096, 2, 100, 2)
	way4 := ExpectedRecordsToCollision(4096, 4, 100, 3)
	way8 := ExpectedRecordsToCollision(4096, 8, 50, 4)
	if !(direct < way2 && way2 < way4 && way4 < way8) {
		t.Fatalf("associativity ordering violated: %0.f %0.f %0.f %0.f", direct, way2, way4, way8)
	}
	// Larger caches help too.
	small := ExpectedRecordsToCollision(512, 4, 100, 5)
	if small >= way4 {
		t.Fatalf("smaller cache should collide earlier: %.0f vs %.0f", small, way4)
	}
}

func TestRecordResultString(t *testing.T) {
	for r, want := range map[RecordResult]string{
		Accepted:            "accepted",
		RejectedConflict:    "rejected-conflict",
		RejectedFull:        "rejected-full",
		RejectedWrongMaster: "rejected-wrong-master",
		RejectedRecovery:    "rejected-recovery",
		RecordResult(99):    "rejected-unknown",
	} {
		if r.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(r), r.String(), want)
		}
	}
}

func BenchmarkWitnessRecordGC(b *testing.B) {
	// The §5.2 witness-capacity microbenchmark: record with an occasional
	// batched GC (1 per 50 records), mirroring the paper's measurement of
	// 1.27M record RPCs/s on one thread.
	w := MustNew(1, DefaultConfig())
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, 0, 50)
	var gcs []GCKey
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kh := rng.Uint64()
		rid := id(1, uint64(i+1))
		w.Record(1, []uint64{kh}, rid, nil, commute.ClassWrite)
		keys = append(keys, kh)
		gcs = append(gcs, GCKey{KeyHash: kh, ID: rid})
		if len(keys) == 50 {
			w.GC(gcs)
			keys = keys[:0]
			gcs = gcs[:0]
		}
	}
}

func BenchmarkKeyHash(b *testing.B) {
	key := []byte("key000000000000000000000000042")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KeyHash(key)
	}
}

// TestRecordBatchPerRecordOutcomes: a batch is accepted/rejected per
// record, aligned with the input, and behaves exactly like sequential
// records — including a same-key pair inside one batch (one accept, one
// conflict), wrong-master and recovery-mode rejections.
func TestRecordBatchPerRecordOutcomes(t *testing.T) {
	w := MustNew(1, Config{Slots: 8, Ways: 2, SlotBytes: 64})
	recs := []Record{
		{KeyHashes: []uint64{10}, ID: id(1, 1), Request: []byte("a")},
		{KeyHashes: []uint64{11}, ID: id(1, 2), Request: []byte("b")},
		{KeyHashes: []uint64{10}, ID: id(1, 3), Request: []byte("c")}, // conflicts with rec 0
	}
	results := w.RecordBatch(1, recs)
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	if results[0] != Accepted || results[1] != Accepted {
		t.Fatalf("disjoint records = %v %v", results[0], results[1])
	}
	if results[2] != RejectedConflict {
		t.Fatalf("same-key record = %v, want conflict", results[2])
	}
	if w.Len() != 2 {
		t.Fatalf("len = %d", w.Len())
	}

	// Wrong master rejects per record.
	for i, res := range w.RecordBatch(9, recs[:2]) {
		if res != RejectedWrongMaster {
			t.Fatalf("record %d = %v", i, res)
		}
	}

	// Recovery mode rejects everything.
	w.GetRecoveryData()
	for i, res := range w.RecordBatch(1, []Record{{KeyHashes: []uint64{99}, ID: id(1, 9), Request: []byte("z")}}) {
		if res != RejectedRecovery {
			t.Fatalf("record %d = %v", i, res)
		}
	}
}

// TestGCWalkSkipIsInvisible: the bound that lets GC skip its table walk
// never hides a stale record. A twin witness whose bound is zeroed before
// every pass — the unconditional walk — is fed the same randomized
// record/gc/drop sequence and must report the same stale sets, in the same
// passes and the same order.
func TestGCWalkSkipIsInvisible(t *testing.T) {
	cfg := Config{Slots: 64, Ways: 4, SlotBytes: 64, StaleGCThreshold: 3}
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w, ref := MustNew(1, cfg), MustNew(1, cfg)
		var live []GCKey // pairs of accepted records not yet named in a gc or drop
		skipped, reported := 0, 0
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 6:
				keys := []uint64{uint64(rng.Intn(48))}
				if rng.Intn(4) == 0 {
					keys = append(keys, uint64(rng.Intn(48)))
				}
				rid, class := id(1, uint64(step+1)), commute.Class(rng.Intn(3))
				got, want := w.Record(1, keys, rid, []byte("r"), class), ref.Record(1, keys, rid, []byte("r"), class)
				if got != want {
					t.Errorf("seed %d step %d: record = %v, unconditional walk's twin = %v", seed, step, got, want)
					return false
				}
				if got.Ok() {
					live = append(live, GCKeys(keys, rid)...)
				}
			case op < 9:
				// A pass naming a random subset: what stays ages toward stale.
				var batch, rest []GCKey
				for _, k := range live {
					if rng.Intn(3) > 0 {
						batch = append(batch, k)
					} else {
						rest = append(rest, k)
					}
				}
				live = rest
				walked := w.gcPasses+1-w.oldestEpoch >= uint64(cfg.StaleGCThreshold)
				ref.oldestEpoch = 0
				got, want := w.GC(batch), ref.GC(batch)
				if !walked {
					skipped++
				}
				reported += len(want)
				if len(got) != len(want) {
					t.Errorf("seed %d step %d (walked=%v): stale = %+v, unconditional walk = %+v", seed, step, walked, got, want)
					return false
				}
				for i := range got {
					if got[i].ID != want[i].ID {
						t.Errorf("seed %d step %d: stale[%d] = %v, unconditional walk = %v", seed, step, i, got[i].ID, want[i].ID)
						return false
					}
				}
			default:
				if n := len(live); n > 0 {
					k := live[rng.Intn(n)]
					if w.DropRecords([]GCKey{k}) != nil || ref.DropRecords([]GCKey{k}) != nil {
						t.Errorf("seed %d step %d: drop failed", seed, step)
						return false
					}
				}
			}
		}
		if skipped == 0 || reported == 0 {
			t.Errorf("seed %d: %d passes skipped their walk, %d stale reports; the property was not exercised", seed, skipped, reported)
			return false
		}
		return w.Stats() == ref.Stats()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
