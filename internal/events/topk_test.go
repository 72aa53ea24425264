package events

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
)

// TestTopKCounts: tracked hashes count exactly while the table has room.
func TestTopKCounts(t *testing.T) {
	s := NewTopK("m", 4)
	for i := 0; i < 5; i++ {
		s.Observe(1)
	}
	s.Observe(2)
	d := s.Dump()
	if d.Total != 6 {
		t.Fatalf("Total = %d, want 6", d.Total)
	}
	if len(d.Keys) != 2 || d.Keys[0].Hash != 1 || d.Keys[0].Count != 5 || d.Keys[0].Err != 0 {
		t.Fatalf("keys = %+v, want hash 1 count 5 err 0 first", d.Keys)
	}
}

// TestTopKEviction: a miss on a full table evicts the minimum and the
// newcomer inherits min+1 with the space-saving error bound, keeping
// Count-Err a lower bound on true frequency.
func TestTopKEviction(t *testing.T) {
	s := NewTopK("m", 2)
	s.Observe(1)
	s.Observe(1)
	s.Observe(1)
	s.Observe(2) // table now full: {1:3, 2:1}
	s.Observe(3) // evicts 2 (min count 1): 3 enters with count 2, err 1
	d := s.Dump()
	if len(d.Keys) != 2 {
		t.Fatalf("got %d keys, want 2", len(d.Keys))
	}
	if d.Keys[0].Hash != 1 || d.Keys[0].Count != 3 {
		t.Fatalf("hottest = %+v, want hash 1 count 3", d.Keys[0])
	}
	if d.Keys[1].Hash != 3 || d.Keys[1].Count != 2 || d.Keys[1].Err != 1 {
		t.Fatalf("newcomer = %+v, want hash 3 count 2 err 1", d.Keys[1])
	}
	if lower := d.Keys[1].Count - d.Keys[1].Err; lower != 1 {
		t.Fatalf("lower bound = %d, want the true frequency 1", lower)
	}
}

// TestTopKHeavyHitterGuarantee: any hash with true frequency > N/k stays
// tracked through arbitrary churn — the property the analytics rely on.
func TestTopKHeavyHitterGuarantee(t *testing.T) {
	s := NewTopK("m", 8)
	const hot, total = 42, 400
	for i := 0; i < total; i++ {
		if i%3 == 0 {
			s.Observe(hot) // ~33% of traffic: way above total/k
		} else {
			s.Observe(uint64(1000 + i)) // long tail of one-hit hashes
		}
	}
	d := s.Dump()
	if len(d.Keys) == 0 || d.Keys[0].Hash != hot {
		t.Fatalf("hottest tracked hash = %+v, want %d first", d.Keys, hot)
	}
}

// TestTopKDumpOrder: hottest first, ties broken by ascending hash for a
// stable display.
func TestTopKDumpOrder(t *testing.T) {
	s := NewTopK("m", 8)
	s.ObserveAll([]uint64{9, 5, 5, 7})
	d := s.Dump()
	want := []uint64{5, 7, 9}
	for i, h := range want {
		if d.Keys[i].Hash != h {
			t.Fatalf("dump order = %+v, want hashes %v", d.Keys, want)
		}
	}
}

// TestNilTopKDisabled: nil sketch is a no-op.
func TestNilTopKDisabled(t *testing.T) {
	var s *TopK
	s.Observe(1)
	s.ObserveAll([]uint64{1, 2})
	s.SetShard(1)
	if d := s.Dump(); d.Total != 0 || len(d.Keys) != 0 {
		t.Fatalf("nil sketch dumped %+v", d)
	}
}

// TestTopKHandler pins the /hotkeys wire shape: a single JSON document
// with node identity, total_observations, and keys hottest-first.
func TestTopKHandler(t *testing.T) {
	s := NewTopK("10.0.0.1:7101", 4)
	s.SetShard(1)
	s.ObserveAll([]uint64{7, 7, 3})
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/hotkeys", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /hotkeys: HTTP %d", rec.Code)
	}
	var d HotKeyDump
	if err := json.Unmarshal(rec.Body.Bytes(), &d); err != nil {
		t.Fatal(err)
	}
	if d.Node != "10.0.0.1:7101" || d.Shard != 1 || d.Total != 3 {
		t.Fatalf("dump = %+v", d)
	}
	if len(d.Keys) != 2 || d.Keys[0].Hash != 7 || d.Keys[0].Count != 2 {
		t.Fatalf("keys = %+v, want hash 7 count 2 first", d.Keys)
	}
}

// TestMultiHotKeysHandler: aggregating endpoints answer with an array,
// skipping nil sketches.
func TestMultiHotKeysHandler(t *testing.T) {
	a := NewTopK("a", 4)
	a.Observe(1)
	h := MultiHotKeysHandler(func() []*TopK { return []*TopK{a, nil} })
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/hotkeys", nil))
	var dumps []HotKeyDump
	if err := json.Unmarshal(rec.Body.Bytes(), &dumps); err != nil {
		t.Fatal(err)
	}
	if len(dumps) != 1 || dumps[0].Node != "a" {
		t.Fatalf("dumps = %+v, want one dump for node a", dumps)
	}
}
