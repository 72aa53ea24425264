package kv

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"curp/internal/rifl"
	"curp/internal/rpc"
)

func rid(c, s uint64) rifl.RPCID {
	return rifl.RPCID{Client: rifl.ClientID(c), Seq: rifl.Seq(s)}
}

func TestPutGetDelete(t *testing.T) {
	s := NewStore()
	res, lsn, err := s.Apply(&Command{Op: OpPut, Key: []byte("a"), Value: []byte("1")}, rid(1, 1))
	if err != nil || lsn != 1 || res.Version != 1 {
		t.Fatalf("put: %v lsn=%d res=%+v", err, lsn, res)
	}
	res, lsn, err = s.Apply(&Command{Op: OpGet, Key: []byte("a")}, rid(1, 2))
	if err != nil || lsn != 0 {
		t.Fatalf("get: %v lsn=%d", err, lsn)
	}
	if !res.Found || string(res.Value) != "1" || res.Version != 1 {
		t.Fatalf("get res = %+v", res)
	}
	// Overwrite bumps version.
	res, _, _ = s.Apply(&Command{Op: OpPut, Key: []byte("a"), Value: []byte("2")}, rid(1, 3))
	if res.Version != 2 {
		t.Fatalf("version = %d", res.Version)
	}
	// Delete leaves a tombstone with a bumped version.
	res, lsn, err = s.Apply(&Command{Op: OpDelete, Key: []byte("a")}, rid(1, 4))
	if err != nil || lsn == 0 || !res.Found || res.Version != 3 {
		t.Fatalf("delete: %v %+v", err, res)
	}
	res, _, _ = s.Apply(&Command{Op: OpGet, Key: []byte("a")}, rid(1, 5))
	if res.Found {
		t.Fatal("deleted key still visible")
	}
	if _, _, ok := s.Get([]byte("a")); ok {
		t.Fatal("Get should miss deleted key")
	}
	// Deleting a missing key is mutating (logged) but Found=false.
	res, lsn, err = s.Apply(&Command{Op: OpDelete, Key: []byte("nope")}, rid(1, 6))
	if err != nil || lsn == 0 || res.Found {
		t.Fatalf("delete missing: %v lsn=%d %+v", err, lsn, res)
	}
}

func TestGetMissing(t *testing.T) {
	s := NewStore()
	res, lsn, err := s.Apply(&Command{Op: OpGet, Key: []byte("ghost")}, rid(1, 1))
	if err != nil || lsn != 0 || res.Found {
		t.Fatalf("get missing: %v %+v", err, res)
	}
	if s.Head() != 0 {
		t.Fatal("read should not advance log")
	}
}

func TestIncrement(t *testing.T) {
	s := NewStore()
	res, _, err := s.Apply(&Command{Op: OpIncrement, Key: []byte("ctr"), Delta: 5}, rid(1, 1))
	if err != nil || string(res.Value) != "5" {
		t.Fatalf("incr: %v %+v", err, res)
	}
	res, _, err = s.Apply(&Command{Op: OpIncrement, Key: []byte("ctr"), Delta: -2}, rid(1, 2))
	if err != nil || string(res.Value) != "3" {
		t.Fatalf("incr: %v %+v", err, res)
	}
	// Increment of a non-numeric value fails without mutating.
	s.Apply(&Command{Op: OpPut, Key: []byte("str"), Value: []byte("abc")}, rid(1, 3))
	head := s.Head()
	if _, _, err := s.Apply(&Command{Op: OpIncrement, Key: []byte("str"), Delta: 1}, rid(1, 4)); !errors.Is(err, ErrNotCounter) {
		t.Fatalf("err = %v", err)
	}
	if s.Head() != head {
		t.Fatal("failed increment advanced log")
	}
}

func TestCondPut(t *testing.T) {
	s := NewStore()
	// Creating: expect version 0.
	res, lsn, err := s.Apply(&Command{Op: OpCondPut, Key: []byte("k"), Value: []byte("v1"), ExpectVersion: 0}, rid(1, 1))
	if err != nil || !res.Found || lsn == 0 {
		t.Fatalf("condput create: %v %+v", err, res)
	}
	// Wrong expected version: no-op, reports current version.
	res, lsn, err = s.Apply(&Command{Op: OpCondPut, Key: []byte("k"), Value: []byte("v2"), ExpectVersion: 0}, rid(1, 2))
	if err != nil || res.Found || lsn != 0 || res.Version != 1 {
		t.Fatalf("condput stale: %v lsn=%d %+v", err, lsn, res)
	}
	// Correct version succeeds.
	res, _, err = s.Apply(&Command{Op: OpCondPut, Key: []byte("k"), Value: []byte("v2"), ExpectVersion: 1}, rid(1, 3))
	if err != nil || !res.Found || res.Version != 2 {
		t.Fatalf("condput ok: %v %+v", err, res)
	}
	v, _, _ := s.Get([]byte("k"))
	if string(v) != "v2" {
		t.Fatalf("value = %q", v)
	}
}

func TestMultiPutMultiGet(t *testing.T) {
	s := NewStore()
	cmd := &Command{Op: OpMultiPut, Pairs: []KV{
		{Key: []byte("x"), Value: []byte("1")},
		{Key: []byte("y"), Value: []byte("2")},
	}}
	if _, lsn, err := s.Apply(cmd, rid(1, 1)); err != nil || lsn != 1 {
		t.Fatalf("multiput: %v lsn=%d", err, lsn)
	}
	// Both keys share the same last-update LSN.
	if s.KeyLSN([]byte("x")) != 1 || s.KeyLSN([]byte("y")) != 1 {
		t.Fatalf("key lsns = %d %d", s.KeyLSN([]byte("x")), s.KeyLSN([]byte("y")))
	}
	res, _, err := s.Apply(&Command{Op: OpMultiGet, Pairs: []KV{
		{Key: []byte("x")}, {Key: []byte("missing")}, {Key: []byte("y")},
	}}, rid(1, 2))
	if err != nil || len(res.Values) != 3 {
		t.Fatalf("multiget: %v %+v", err, res)
	}
	if string(res.Values[0]) != "1" || res.Values[1] != nil || string(res.Values[2]) != "2" {
		t.Fatalf("values = %q", res.Values)
	}
}

func TestMultiIncr(t *testing.T) {
	s := NewStore()
	cmd := &Command{Op: OpMultiIncr, Pairs: []KV{
		{Key: []byte("a"), Value: []byte("-10")},
		{Key: []byte("b"), Value: []byte("10")},
	}}
	res, lsn, err := s.Apply(cmd, rid(1, 1))
	if err != nil || lsn != 1 {
		t.Fatalf("multiincr: %v lsn=%d", err, lsn)
	}
	if len(res.Values) != 2 || string(res.Values[0]) != "-10" || string(res.Values[1]) != "10" {
		t.Fatalf("values = %q", res.Values)
	}
	// Both keys share the mutation LSN (commutativity footprint).
	if s.KeyLSN([]byte("a")) != 1 || s.KeyLSN([]byte("b")) != 1 {
		t.Fatal("key lsns not stamped")
	}
	// Atomicity on error: a non-counter leg leaves all keys untouched.
	s.Apply(&Command{Op: OpPut, Key: []byte("str"), Value: []byte("x")}, rid(1, 2))
	bad := &Command{Op: OpMultiIncr, Pairs: []KV{
		{Key: []byte("a"), Value: []byte("5")},
		{Key: []byte("str"), Value: []byte("5")},
	}}
	if _, _, err := s.Apply(bad, rid(1, 3)); !errors.Is(err, ErrNotCounter) {
		t.Fatalf("err = %v", err)
	}
	v, _, _ := s.Get([]byte("a"))
	if string(v) != "-10" {
		t.Fatalf("a mutated by failed multiincr: %q", v)
	}
	// Malformed delta rejected.
	if _, _, err := s.Apply(&Command{Op: OpMultiIncr, Pairs: []KV{{Key: []byte("a"), Value: []byte("xyz")}}}, rid(1, 4)); err == nil {
		t.Fatal("bad delta accepted")
	}
	// Replay reproduces the same state.
	b := NewBackup()
	if err := b.Append(s.EntriesSince(0)); err != nil {
		t.Fatal(err)
	}
	r := restoreFrom(t, b)
	v, _, _ = r.Get([]byte("b"))
	if string(v) != "10" {
		t.Fatalf("replayed b = %q", v)
	}
	if OpMultiIncr.String() != "multiincr" {
		t.Fatal("op name")
	}
}

func TestUnknownOp(t *testing.T) {
	s := NewStore()
	if _, _, err := s.Apply(&Command{Op: CommandOp(99)}, rid(1, 1)); err == nil {
		t.Fatal("unknown op accepted")
	}
	if CommandOp(99).String() != "op(99)" {
		t.Fatal("op string")
	}
}

func TestKeyLSNTracking(t *testing.T) {
	s := NewStore()
	s.Apply(&Command{Op: OpPut, Key: []byte("a"), Value: []byte("1")}, rid(1, 1))
	s.Apply(&Command{Op: OpPut, Key: []byte("b"), Value: []byte("1")}, rid(1, 2))
	s.Apply(&Command{Op: OpPut, Key: []byte("a"), Value: []byte("2")}, rid(1, 3))
	if got := s.KeyLSN([]byte("a")); got != 3 {
		t.Fatalf("a lsn = %d", got)
	}
	if got := s.KeyLSN([]byte("b")); got != 2 {
		t.Fatalf("b lsn = %d", got)
	}
	if got := s.KeyLSN([]byte("zzz")); got != 0 {
		t.Fatalf("missing lsn = %d", got)
	}
	if s.Head() != 3 || s.Len() != 2 {
		t.Fatalf("head=%d len=%d", s.Head(), s.Len())
	}
}

func TestEntriesSince(t *testing.T) {
	s := NewStore()
	for i := 1; i <= 5; i++ {
		s.Apply(&Command{Op: OpPut, Key: []byte{byte(i)}, Value: []byte("v")}, rid(1, uint64(i)))
	}
	ents := s.EntriesSince(2)
	if len(ents) != 3 || ents[0].LSN != 3 || ents[2].LSN != 5 {
		t.Fatalf("entries = %+v", ents)
	}
	if s.EntriesSince(5) != nil || s.EntriesSince(9) != nil {
		t.Fatal("empty suffix should be nil")
	}
	all := s.EntriesSince(0)
	if len(all) != 5 {
		t.Fatalf("all = %d", len(all))
	}
}

func TestCommandCodec(t *testing.T) {
	cmds := []*Command{
		{Op: OpPut, Key: []byte("k"), Value: []byte("v")},
		{Op: OpGet, Key: []byte("k")},
		{Op: OpDelete, Key: []byte("k")},
		{Op: OpIncrement, Key: []byte("c"), Delta: -7},
		{Op: OpCondPut, Key: []byte("k"), Value: []byte("v2"), ExpectVersion: 9},
		{Op: OpMultiPut, Pairs: []KV{{[]byte("a"), []byte("1")}, {[]byte("b"), []byte("2")}}},
		{Op: OpMultiGet, Pairs: []KV{{Key: []byte("a")}, {Key: []byte("b")}}},
	}
	for _, c := range cmds {
		got, err := DecodeCommand(c.Encode())
		if err != nil {
			t.Fatalf("%v: %v", c.Op, err)
		}
		if got.Op != c.Op || !bytes.Equal(got.Key, c.Key) || !bytes.Equal(got.Value, c.Value) ||
			got.Delta != c.Delta || got.ExpectVersion != c.ExpectVersion || len(got.Pairs) != len(c.Pairs) {
			t.Fatalf("round trip mismatch: %+v vs %+v", got, c)
		}
		for i := range c.Pairs {
			if !bytes.Equal(got.Pairs[i].Key, c.Pairs[i].Key) || !bytes.Equal(got.Pairs[i].Value, c.Pairs[i].Value) {
				t.Fatalf("pair %d mismatch", i)
			}
		}
	}
	if _, err := DecodeCommand([]byte{1, 2}); err == nil {
		t.Fatal("truncated command accepted")
	}
}

func TestResultCodec(t *testing.T) {
	rs := []*Result{
		{Found: true, Value: []byte("v"), Version: 3},
		{Found: false},
		{Found: true, Values: [][]byte{[]byte("a"), nil, []byte("c")}},
	}
	for _, r := range rs {
		got, err := DecodeResult(r.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if got.Found != r.Found || !bytes.Equal(got.Value, r.Value) || got.Version != r.Version || len(got.Values) != len(r.Values) {
			t.Fatalf("mismatch: %+v vs %+v", got, r)
		}
		for i := range r.Values {
			if (got.Values[i] == nil) != (r.Values[i] == nil) || !bytes.Equal(got.Values[i], r.Values[i]) {
				t.Fatalf("values[%d] mismatch: %q vs %q", i, got.Values[i], r.Values[i])
			}
		}
	}
	if _, err := DecodeResult([]byte{}); err == nil {
		t.Fatal("truncated result accepted")
	}
}

func TestCommandCodecQuick(t *testing.T) {
	f := func(key, value []byte, delta int64, ev uint64) bool {
		c := &Command{Op: OpCondPut, Key: key, Value: value, Delta: delta, ExpectVersion: ev}
		got, err := DecodeCommand(c.Encode())
		if err != nil {
			return false
		}
		return bytes.Equal(got.Key, key) && bytes.Equal(got.Value, value) &&
			got.Delta == delta && got.ExpectVersion == ev
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEntryCodec(t *testing.T) {
	en := &Entry{
		LSN: 7,
		Cmd: &Command{Op: OpPut, Key: []byte("k"), Value: []byte("v")},
		ID:  rid(3, 9),
		Result: &Result{
			Found: true, Version: 2,
		},
	}
	e := rpc.NewEncoder(64)
	en.Marshal(e)
	got, err := UnmarshalEntry(rpc.NewDecoder(e.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.LSN != 7 || got.ID != rid(3, 9) || string(got.Cmd.Key) != "k" || got.Result.Version != 2 {
		t.Fatalf("entry = %+v", got)
	}
	if _, err := UnmarshalEntry(rpc.NewDecoder([]byte{1})); err == nil {
		t.Fatal("truncated entry accepted")
	}
}

func TestKeyHashes(t *testing.T) {
	single := &Command{Op: OpPut, Key: []byte("k")}
	if len(single.KeyHashes()) != 1 {
		t.Fatal("single key hash count")
	}
	multi := &Command{Op: OpMultiPut, Pairs: []KV{{Key: []byte("a")}, {Key: []byte("b")}}}
	hs := multi.KeyHashes()
	if len(hs) != 2 || hs[0] == hs[1] {
		t.Fatalf("multi hashes = %v", hs)
	}
	if !(&Command{Op: OpGet}).IsReadOnly() || (&Command{Op: OpPut}).IsReadOnly() {
		t.Fatal("IsReadOnly")
	}
	if !(&Command{Op: OpMultiGet}).IsReadOnly() {
		t.Fatal("multiget should be read-only")
	}
}

func TestBackupAppendContiguity(t *testing.T) {
	s := NewStore()
	for i := 1; i <= 6; i++ {
		s.Apply(&Command{Op: OpPut, Key: []byte{byte(i)}, Value: []byte("v")}, rid(1, uint64(i)))
	}
	b := NewBackup()
	if err := b.Append(s.EntriesSince(0)[:3]); err != nil {
		t.Fatal(err)
	}
	if b.SyncedLSN() != 3 {
		t.Fatalf("synced = %d", b.SyncedLSN())
	}
	// Overlapping retry is idempotent.
	if err := b.Append(s.EntriesSince(1)[:4]); err != nil {
		t.Fatal(err)
	}
	if b.SyncedLSN() != 5 {
		t.Fatalf("synced after overlap = %d", b.SyncedLSN())
	}
	// A gap is rejected.
	gap := s.EntriesSince(5) // entry 6 comes right after 5 — fine
	if err := b.Append(gap); err != nil {
		t.Fatal(err)
	}
	b2 := NewBackup()
	if err := b2.Append(s.EntriesSince(2)); err == nil {
		t.Fatal("gap accepted")
	}
	// What the backup keeps of six entries is their effect: six objects and,
	// nobody having acked anything, six completion records. No entry.
	if b.Objects() != 6 || b.CompletionRecords() != 6 {
		t.Fatalf("objects = %d, completion records = %d", b.Objects(), b.CompletionRecords())
	}
}

// restoreFrom rebuilds a store from a backup's snapshot: what a recovering
// master does with the state it pulls.
func restoreFrom(t testing.TB, b *Backup) *Store {
	t.Helper()
	snap := b.Snapshot()
	s := NewStore()
	s.Install(&snap)
	if err := s.FinishInstall(snap.LSN); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBackupSnapshotRestoresStore(t *testing.T) {
	s := NewStore()
	s.Apply(&Command{Op: OpPut, Key: []byte("a"), Value: []byte("1")}, rid(1, 1))
	s.Apply(&Command{Op: OpPut, Key: []byte("b"), Value: []byte("2")}, rid(1, 2))
	s.Apply(&Command{Op: OpDelete, Key: []byte("a")}, rid(1, 3))
	s.Apply(&Command{Op: OpIncrement, Key: []byte("c"), Delta: 41}, rid(2, 1))
	s.Apply(&Command{Op: OpIncrement, Key: []byte("c"), Delta: 1}, rid(2, 2))

	b := NewBackup()
	if err := b.Append(s.EntriesSince(0)); err != nil {
		t.Fatal(err)
	}
	restored := restoreFrom(t, b)
	if _, _, ok := restored.Get([]byte("a")); ok {
		t.Fatal("deleted key revived")
	}
	v, ver, ok := restored.Get([]byte("b"))
	if !ok || string(v) != "2" || ver != 1 {
		t.Fatalf("b = %q v%d ok=%v", v, ver, ok)
	}
	v, _, _ = restored.Get([]byte("c"))
	if string(v) != "42" {
		t.Fatalf("c = %q", v)
	}
	if restored.Head() != s.Head() {
		t.Fatalf("head %d vs %d", restored.Head(), s.Head())
	}
	// Every restored object counts as last updated at the snapshot: synced.
	if got := restored.KeyLSN([]byte("c")); got != s.Head() {
		t.Fatalf("restored key lsn = %d, want the snapshot's %d", got, s.Head())
	}
	// The restored store has state, not history: its log starts after the
	// snapshot, and asking for what came before is a bug.
	if restored.LogLen() != 0 || restored.Base() != s.Head() {
		t.Fatalf("restored log holds %d entries from base %d", restored.LogLen(), restored.Base())
	}
	if _, lsn, err := restored.Apply(&Command{Op: OpPut, Key: []byte("d"), Value: []byte("4")}, rid(1, 4)); err != nil || lsn != s.Head()+1 {
		t.Fatalf("first apply after restore: lsn %d err %v", lsn, err)
	}
	// The snapshot carries RIFL IDs and results for the tracker rebuild.
	snap := b.Snapshot()
	byID := map[rifl.RPCID][]byte{}
	for _, c := range snap.Completions {
		byID[c.ID] = c.Result
	}
	if len(byID) != 5 {
		t.Fatalf("snapshot completions = %d, want 5", len(byID))
	}
	res, err := DecodeResult(byID[rid(2, 2)])
	if err != nil || string(res.Value) != "42" {
		t.Fatalf("completion of the second increment = %+v, %v", res, err)
	}
}

func TestReplayEntryGap(t *testing.T) {
	s := NewStore()
	en := &Entry{LSN: 5, Cmd: &Command{Op: OpPut, Key: []byte("k"), Value: []byte("v")}, Result: &Result{}}
	if err := s.ReplayEntry(en); err == nil {
		t.Fatal("gap replay accepted")
	}
}

func TestStoreEquivalenceProperty(t *testing.T) {
	// Property: replaying a store's log into a fresh store yields the same
	// observable state (same values and versions for all keys).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore()
		keys := [][]byte{[]byte("a"), []byte("b"), []byte("c"), []byte("d")}
		for i := 0; i < 200; i++ {
			k := keys[rng.Intn(len(keys))]
			var cmd *Command
			switch rng.Intn(4) {
			case 0:
				cmd = &Command{Op: OpPut, Key: k, Value: []byte(fmt.Sprint(i))}
			case 1:
				cmd = &Command{Op: OpDelete, Key: k}
			case 2:
				cmd = &Command{Op: OpCondPut, Key: k, Value: []byte("c"), ExpectVersion: uint64(rng.Intn(5))}
			case 3:
				cmd = &Command{Op: OpGet, Key: k}
			}
			s.Apply(cmd, rid(1, uint64(i+1)))
		}
		b := NewBackup()
		if err := b.Append(s.EntriesSince(0)); err != nil {
			return false
		}
		r := restoreFrom(t, b)
		for _, k := range keys {
			v1, ver1, ok1 := s.Get(k)
			v2, ver2, ok2 := r.Get(k)
			if ok1 != ok2 || ver1 != ver2 || !bytes.Equal(v1, v2) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestStoreConcurrentApply(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := []byte{byte(g)}
			for i := 0; i < 200; i++ {
				if _, _, err := s.Apply(&Command{Op: OpIncrement, Key: key, Delta: 1}, rid(uint64(g+1), uint64(i+1))); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Head() != 8*200 {
		t.Fatalf("head = %d", s.Head())
	}
	for g := 0; g < 8; g++ {
		v, _, _ := s.Get([]byte{byte(g)})
		if string(v) != "200" {
			t.Fatalf("counter %d = %q", g, v)
		}
	}
}

func TestGetCopiesValue(t *testing.T) {
	s := NewStore()
	s.Apply(&Command{Op: OpPut, Key: []byte("k"), Value: []byte("abc")}, rid(1, 1))
	v, _, _ := s.Get([]byte("k"))
	v[0] = 'X'
	v2, _, _ := s.Get([]byte("k"))
	if string(v2) != "abc" {
		t.Fatal("Get aliased internal buffer")
	}
	res, _, _ := s.Apply(&Command{Op: OpGet, Key: []byte("k")}, rid(1, 2))
	res.Value[0] = 'Y'
	v3, _, _ := s.Get([]byte("k"))
	if string(v3) != "abc" {
		t.Fatal("Apply(Get) aliased internal buffer")
	}
}

func BenchmarkStorePut(b *testing.B) {
	s := NewStore()
	val := make([]byte, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := []byte(fmt.Sprintf("key%d", i%10000))
		s.Apply(&Command{Op: OpPut, Key: key, Value: val}, rid(1, uint64(i+1)))
	}
}

// TestMigrateObjectInstall: OpMigrateObject reproduces exported state
// verbatim — value, version, and tombstones — and the install survives a
// log replay (the path a target backup and a target recovery both take).
func TestMigrateObjectInstall(t *testing.T) {
	src := NewStore()
	if _, _, err := src.Apply(&Command{Op: OpPut, Key: []byte("a"), Value: []byte("v1")}, rid(1, 1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := src.Apply(&Command{Op: OpPut, Key: []byte("a"), Value: []byte("v2")}, rid(1, 2)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := src.Apply(&Command{Op: OpDelete, Key: []byte("gone")}, rid(1, 3)); err != nil {
		t.Fatal(err)
	}
	all := func([]byte) bool { return true }
	exported := src.ExportRange(all)
	if len(exported) != 2 {
		t.Fatalf("exported %d objects, want 2 (live + tombstone)", len(exported))
	}

	dst := NewStore()
	for _, o := range exported {
		cmd := &Command{Op: OpMigrateObject, Key: o.Key, Value: o.Value, ExpectVersion: o.Version}
		if o.Tombstone {
			cmd.Delta = 1
		}
		if _, lsn, err := dst.Apply(cmd, rifl.RPCID{}); err != nil || lsn == 0 {
			t.Fatalf("install %q: lsn=%d err=%v", o.Key, lsn, err)
		}
	}
	v, ver, ok := dst.Get([]byte("a"))
	if !ok || string(v) != "v2" || ver != 2 {
		t.Fatalf("installed object = %q v%d ok=%v, want v2/2", v, ver, ok)
	}
	if _, _, ok := dst.Get([]byte("gone")); ok {
		t.Fatal("tombstone installed as a live object")
	}
	// Tombstone keeps its version for conditional writes.
	res, _, err := dst.Apply(&Command{Op: OpGet, Key: []byte("gone")}, rifl.RPCID{})
	if err != nil || res.Found || res.Version != 1 {
		t.Fatalf("tombstone read = %+v, %v", res, err)
	}

	// Replaying the install log (backup materialization) reproduces it.
	replica := NewStore()
	for _, en := range dst.EntriesSince(0) {
		en := en
		if err := replica.ReplayEntry(&en); err != nil {
			t.Fatalf("replay: %v", err)
		}
	}
	if v, ver, ok := replica.Get([]byte("a")); !ok || string(v) != "v2" || ver != 2 {
		t.Fatalf("replayed install = %q v%d ok=%v", v, ver, ok)
	}

	// DropRange removes what ExportRange saw, and nothing else.
	if n := dst.DropRange(func(k []byte) bool { return string(k) == "a" }); n != 1 {
		t.Fatalf("DropRange removed %d, want 1", n)
	}
	if _, _, ok := dst.Get([]byte("a")); ok {
		t.Fatal("dropped key still readable")
	}
}

// TestMigrateRecordCarriesResult: an OpMigrateRecord entry preserves the
// original result bytes and key hashes through the log, so a recovered
// target still answers migrated duplicates with the original outcome.
func TestMigrateRecordCarriesResult(t *testing.T) {
	orig := &Result{Found: true, Value: []byte("42"), Version: 7}
	cmd := &Command{Op: OpMigrateRecord, Value: orig.Encode(), Hashes: []uint64{123, 456}}
	s := NewStore()
	res, lsn, err := s.Apply(cmd, rid(9, 5))
	if err != nil || lsn == 0 {
		t.Fatalf("apply migrate-record: lsn=%d err=%v", lsn, err)
	}
	if !res.Found || string(res.Value) != "42" || res.Version != 7 {
		t.Fatalf("decoded result = %+v", res)
	}
	if s.Len() != 0 {
		t.Fatalf("migrate-record mutated %d objects", s.Len())
	}
	entries := s.EntriesSince(0)
	if len(entries) != 1 || entries[0].ID != rid(9, 5) {
		t.Fatalf("entries = %+v", entries)
	}
	// Codec round-trip keeps the hash override.
	e := rpc.NewEncoder(64)
	entries[0].Marshal(e)
	back, err := UnmarshalEntry(rpc.NewDecoder(e.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if hs := back.Cmd.KeyHashes(); len(hs) != 2 || hs[0] != 123 || hs[1] != 456 {
		t.Fatalf("round-tripped hashes = %v", hs)
	}
}
