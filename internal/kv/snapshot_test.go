package kv

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"curp/internal/rifl"
	"curp/internal/witness"
)

func put(k, v string) *Command { return &Command{Op: OpPut, Key: []byte(k), Value: []byte(v)} }

func TestTruncateThenEntriesSince(t *testing.T) {
	s := NewStore()
	for i := 1; i <= 8; i++ {
		s.Apply(put(fmt.Sprint("k", i), "v"), rid(1, uint64(i)))
	}
	if err := s.TruncateTo(9); err == nil {
		t.Fatal("truncate past the head accepted")
	}
	if err := s.TruncateTo(5); err != nil {
		t.Fatal(err)
	}
	if s.Base() != 5 || s.LogLen() != 3 || s.Head() != 8 {
		t.Fatalf("base %d, %d entries, head %d", s.Base(), s.LogLen(), s.Head())
	}
	// At the base: everything retained. Above: the suffix. At or past the
	// head: nothing.
	if ents := s.EntriesSince(5); len(ents) != 3 || ents[0].LSN != 6 || ents[2].LSN != 8 {
		t.Fatalf("entries since the base = %+v", ents)
	}
	if ents := s.EntriesSince(7); len(ents) != 1 || ents[0].LSN != 8 {
		t.Fatalf("entries above the base = %+v", ents)
	}
	if s.EntriesSince(8) != nil || s.EntriesSince(20) != nil {
		t.Fatal("entries at or past the head")
	}
	// Below the base: a replication gap in the making. Loud.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("EntriesSince below the base returned quietly")
			}
		}()
		s.EntriesSince(4)
	}()
	// Truncating backwards is a no-op, and the log goes on at head+1.
	if err := s.TruncateTo(2); err != nil || s.Base() != 5 {
		t.Fatalf("truncate below the base: %v, base %d", err, s.Base())
	}
	if _, lsn, _ := s.Apply(put("k9", "v"), rid(1, 9)); lsn != 9 {
		t.Fatalf("apply after truncate at lsn %d", lsn)
	}
	if err := s.TruncateTo(9); err != nil || s.LogLen() != 0 {
		t.Fatalf("truncate to the head: %v, %d entries left", err, s.LogLen())
	}
	// A store nobody truncates keeps everything.
	u := NewStore()
	for i := 1; i <= 4; i++ {
		u.Apply(put("k", "v"), rid(1, uint64(i)))
	}
	if len(u.EntriesSince(0)) != 4 || u.Base() != 0 {
		t.Fatal("an untruncated store lost entries")
	}
}

// TestTruncationKeepsUnsyncedProperty is invariant (i) at the store: over
// random apply / sync / truncate sequences driven the way a master drives
// them (truncate only to what is synced), every entry above the synced LSN
// is still in the log, in order, and the retained window never exceeds what
// was applied since the last truncation.
//
// PAPER §3.2: an unsynced operation's only copies are the master's log and
// the witnesses; the log must not lose it.
func TestTruncationKeepsUnsyncedProperty(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore()
		var synced LSN
		var seq uint64
		for step := 0; step < 300; step++ {
			switch rng.Intn(4) {
			case 0, 1:
				seq++
				s.Apply(put(fmt.Sprint("k", rng.Intn(8)), fmt.Sprint(seq)), rid(1, seq))
			case 2: // a sync: the backups hold some prefix of what is unsynced
				synced += LSN(rng.Int63n(int64(s.Head()-synced) + 1))
			case 3:
				if err := s.TruncateTo(synced); err != nil {
					t.Fatalf("seed %d: truncate to synced %d: %v", seed, synced, err)
				}
			}
			if s.Base() > synced {
				t.Fatalf("seed %d step %d: base %d passed synced %d", seed, step, s.Base(), synced)
			}
			ents := s.EntriesSince(synced)
			if LSN(len(ents)) != s.Head()-synced {
				t.Fatalf("seed %d step %d: %d entries above synced %d, head %d", seed, step, len(ents), synced, s.Head())
			}
			for i, en := range ents {
				if en.LSN != synced+LSN(i)+1 {
					t.Fatalf("seed %d step %d: entry %d has lsn %d after synced %d", seed, step, i, en.LSN, synced)
				}
			}
		}
	}
}

// mixedHistory applies n random operations — puts with and without TTL,
// deletes, increments, a prepared transaction left open, a decision record,
// a client whose lease expires — under acks that trail the sequence numbers
// the way a live client's do.
func mixedHistory(s *Store, seed int64, n int) {
	rng := rand.New(rand.NewSource(seed))
	seqs := map[uint64]uint64{}
	for i := 0; i < n; i++ {
		client := uint64(1 + rng.Intn(3))
		seqs[client]++
		id := rid(client, seqs[client])
		var ack rifl.Seq
		if seqs[client] > 3 {
			ack = rifl.Seq(seqs[client] - uint64(rng.Intn(3)))
		}
		k := []byte(fmt.Sprint("key-", rng.Intn(20)))
		var cmd Command
		switch rng.Intn(6) {
		case 0:
			cmd = Delete(k)
		case 1:
			cmd = Increment([]byte(fmt.Sprint("ctr-", rng.Intn(4))), int64(rng.Intn(9)))
		case 2:
			cmd = PutTTL(k, []byte(fmt.Sprint(i)), 1<<62+int64(i))
		default:
			cmd = Put(k, []byte(fmt.Sprint(i)))
		}
		s.ApplyAcked(&cmd, id, ack)
	}
	prep := TxnPrepare(&TxnCommand{
		ID: rid(9, 1), Home: TxnHome{MasterID: 1, Addr: "m", KeyHash: 7},
		Writes: []TxnWrite{{Op: OpPut, Key: []byte("locked"), Value: []byte("pending")}},
	})
	s.Apply(&prep, rid(9, 2))
	dec := TxnDecide(&TxnCommand{ID: rid(9, 3), Commit: true, HomeRecord: true, Home: TxnHome{KeyHash: 11}})
	s.Apply(&dec, rid(9, 3))
	exp := ExpireClient(2)
	s.Apply(&exp, rifl.RPCID{})
}

// canonical orders a snapshot's sections so two captures of equal state
// compare equal.
func canonical(snap Snapshot) Snapshot {
	SortByKeyHash(snap.Objects)
	byID := func(a, b rifl.RPCID) int {
		if a.Client != b.Client {
			return int(a.Client) - int(b.Client)
		}
		return int(a.Seq) - int(b.Seq)
	}
	slices.SortFunc(snap.Prepared, func(a, b PreparedTxn) int { return byID(a.ID, b.ID) })
	slices.SortFunc(snap.Decisions, func(a, b TxnDecisionRecord) int { return byID(a.ID, b.ID) })
	slices.SortFunc(snap.Completions, func(a, b rifl.Completion) int { return byID(a.ID, b.ID) })
	slices.SortFunc(snap.Clients, func(a, b rifl.ClientMark) int { return int(a.Client) - int(b.Client) })
	return snap
}

// TestBackupEqualsReplay: what a backup holds after N appends — however the
// appends were batched, retried and overlapped — is exactly what replaying
// the same entries from scratch gives: same objects, versions, TTLs, locks,
// decisions, completion records and client marks. And a backup installed
// from that snapshot, piece by piece, holds it too.
func TestBackupEqualsReplay(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		master := NewStore()
		mixedHistory(master, seed, 400)
		entries := master.EntriesSince(0)

		scratch := NewBackup()
		if err := scratch.Append(entries); err != nil {
			t.Fatal(err)
		}
		batched := NewBackup()
		rng := rand.New(rand.NewSource(seed))
		for at := 0; at < len(entries); {
			n := min(1+rng.Intn(50), len(entries)-at)
			from := max(0, at-rng.Intn(5)) // a retried sync re-sends a suffix it already delivered
			if err := batched.Append(entries[from : at+n]); err != nil {
				t.Fatalf("seed %d: append [%d,%d): %v", seed, from, at+n, err)
			}
			at += n
		}
		want := canonical(scratch.Snapshot())
		if got := canonical(batched.Snapshot()); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: a backup fed in batches differs from a from-scratch replay", seed)
		}
		if want.LSN != master.Head() || len(want.Prepared) != 1 || len(want.Decisions) != 1 {
			t.Fatalf("seed %d: snapshot at %d with %d prepared, %d decisions", seed, want.LSN, len(want.Prepared), len(want.Decisions))
		}
		// The master's own objects agree with the replica's.
		fromMaster := master.Snapshot()
		SortByKeyHash(fromMaster.Objects)
		if !reflect.DeepEqual(fromMaster.Objects, want.Objects) {
			t.Fatalf("seed %d: replica objects differ from the master's", seed)
		}
		// Client 2 expired; the others' records below their watermark are gone.
		marks := map[rifl.ClientID]rifl.ClientMark{}
		for _, m := range want.Clients {
			marks[m.Client] = m
		}
		if !marks[2].Expired {
			t.Fatalf("seed %d: expired client's mark = %+v", seed, marks[2])
		}
		for _, c := range want.Completions {
			if c.ID.Client == 2 || c.ID.Seq < marks[c.ID.Client].FirstUnacked {
				t.Fatalf("seed %d: completion %v survived its client's ack or expiry (%+v)", seed, c.ID, marks[c.ID.Client])
			}
		}
		if scratch.CompletionRecords() != len(want.Completions) {
			t.Fatalf("seed %d: %d records counted, %d in the snapshot", seed, scratch.CompletionRecords(), len(want.Completions))
		}

		// Install the snapshot in three pieces; the copy must equal the original.
		copyOf := NewBackup()
		third := len(want.Objects) / 3
		pieces := []Snapshot{
			{LSN: want.LSN, Objects: want.Objects[:third]},
			{LSN: want.LSN, Objects: want.Objects[third:], Prepared: want.Prepared},
			{LSN: want.LSN, Decisions: want.Decisions, Completions: want.Completions, Clients: want.Clients},
		}
		for i := range pieces {
			if err := copyOf.Install(&pieces[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := copyOf.FinishInstall(want.LSN); err != nil {
			t.Fatal(err)
		}
		if got := canonical(copyOf.Snapshot()); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: an installed backup differs from its source", seed)
		}
		// The lock it installed holds, and it takes the next entry only.
		next := put("after", "install")
		var locked *LockedError
		if _, err := copyOf.Read(&Command{Op: OpGet, Key: []byte("locked")}); !errors.As(err, &locked) || locked.Txn != rid(9, 1) {
			t.Fatalf("seed %d: read of a key the installed transaction locks: %v", seed, err)
		}
		if err := copyOf.Append([]Entry{{LSN: want.LSN + 2, Cmd: next, Result: &Result{}}}); err == nil {
			t.Fatalf("seed %d: installed backup accepted a gap", seed)
		}
		if err := copyOf.Append([]Entry{{LSN: want.LSN + 1, Cmd: next, ID: rid(1, 1000), Result: &Result{}}}); err != nil {
			t.Fatalf("seed %d: installed backup refused the next entry: %v", seed, err)
		}
	}
}

func TestSnapshotSharesValuesAndSurvivesWrites(t *testing.T) {
	s := NewStore()
	big := bytes.Repeat([]byte("x"), 1<<16)
	cmd := &Command{Op: OpPut, Key: []byte("k"), Value: big}
	s.Apply(cmd, rid(1, 1))
	snap := s.Snapshot()
	if len(snap.Objects) != 1 || &snap.Objects[0].Value[0] == &big[0] {
		t.Fatal("a locally built command's value must have been copied by the store, once")
	}
	stored, _, _ := s.Peek([]byte("k"))
	if &snap.Objects[0].Value[0] != &stored[0] {
		t.Fatal("the snapshot copied the value")
	}
	// Overwrite and delete: the capture still reads what it captured.
	s.Apply(put("k", "new"), rid(1, 2))
	s.Apply(&Command{Op: OpDelete, Key: []byte("k")}, rid(1, 3))
	if !bytes.Equal(snap.Objects[0].Value, big) || snap.Objects[0].Tombstone {
		t.Fatal("the capture changed under a later write")
	}
}

func TestSortByKeyHashIsKeyHashOrder(t *testing.T) {
	var objs []MigratedObject
	for i := 0; i < 200; i++ {
		objs = append(objs, MigratedObject{Key: []byte(fmt.Sprint("key-", i))})
	}
	SortByKeyHash(objs)
	for i := 1; i < len(objs); i++ {
		if witness.KeyHash(objs[i-1].Key) > witness.KeyHash(objs[i].Key) {
			t.Fatalf("object %d out of key-hash order", i)
		}
	}
}

func TestAdoptSwitchesAtOnce(t *testing.T) {
	built := NewStore()
	snap := Snapshot{LSN: 7, Objects: []MigratedObject{{Key: []byte("a"), Value: []byte("1"), Version: 3, ExpireAt: 1 << 62}}}
	built.Install(&snap)
	if err := built.FinishInstall(7); err != nil {
		t.Fatal(err)
	}
	live := NewStore()
	if err := live.Adopt(built); err != nil {
		t.Fatal(err)
	}
	if v, ver, ok := live.Get([]byte("a")); !ok || string(v) != "1" || ver != 3 || live.Head() != 7 || live.Base() != 7 {
		t.Fatalf("adopted store: %q v%d ok=%v head %d base %d", v, ver, ok, live.Head(), live.Base())
	}
	if keys := live.ExpiredKeys(1<<62, 0); len(keys) != 1 {
		t.Fatalf("TTL index not adopted: %v", keys)
	}
	if err := live.Adopt(NewStore()); err == nil {
		t.Fatal("adopt into a store that holds state accepted")
	}
	if err := live.FinishInstall(9); err == nil {
		t.Fatal("finish-install on a store that already has a head accepted")
	}
}
