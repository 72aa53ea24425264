package events

import (
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
)

// TopK is a space-saving top-K heavy-hitter sketch over 64-bit key hashes —
// the key-space analytics half of the flight recorder. Masters feed it the
// same witness.KeyHash values requests already carry, so the sketch's view
// of "hot" matches exactly what the witnesses see conflicting, and the
// ROADMAP's load-shedding / load-chasing-rebalance follow-ons can consume
// it without re-hashing anything.
//
// Space-saving (Metwally et al.): a hit on a tracked hash increments it; a
// miss with a full table evicts the minimum-count entry and inherits its
// count as the new entry's overestimation error. Guarantees: any key with
// true frequency > N/k is tracked, and Count-Err is a lower bound on the
// true frequency.
//
// A nil *TopK is fully disabled; every method is a no-op. Observe is one
// short critical section over a k-sized table (k defaults to 32), cheap
// enough for the update hot path.
type TopK struct {
	node  string
	shard atomic.Int64

	mu      sync.Mutex
	k       int
	total   uint64
	entries map[uint64]*hkEntry
}

type hkEntry struct {
	hash  uint64
	count uint64
	err   uint64
}

// DefaultHotKeys is the default sketch width: enough to surface a working
// set of hot keys without a measurable scan cost on eviction.
const DefaultHotKeys = 32

// HotKey is one tracked heavy hitter. Count overestimates the true
// frequency by at most Err.
type HotKey struct {
	Hash  uint64 `json:"key_hash"`
	Count uint64 `json:"count"`
	Err   uint64 `json:"err,omitempty"`
}

// HotKeyDump is the /hotkeys JSON document: one master's sketch, hottest
// first.
type HotKeyDump struct {
	Node  string   `json:"node"`
	Shard int      `json:"shard"`
	Total uint64   `json:"total_observations"`
	Keys  []HotKey `json:"keys"`
}

// NewTopK creates a sketch tracking the k heaviest hashes (DefaultHotKeys
// when k <= 0).
func NewTopK(node string, k int) *TopK {
	if k <= 0 {
		k = DefaultHotKeys
	}
	t := &TopK{node: node, k: k, entries: make(map[uint64]*hkEntry, k)}
	t.shard.Store(-1)
	return t
}

// SetShard records the shard index stamped on dumps (-1 = unknown).
func (t *TopK) SetShard(i int) {
	if t != nil {
		t.shard.Store(int64(i))
	}
}

// Observe counts one access to hash.
func (t *TopK) Observe(hash uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.total++
	if e := t.entries[hash]; e != nil {
		e.count++
		t.mu.Unlock()
		return
	}
	if len(t.entries) < t.k {
		t.entries[hash] = &hkEntry{hash: hash, count: 1}
		t.mu.Unlock()
		return
	}
	// Table full: evict the minimum and inherit its count as the error
	// bound (the space-saving replacement rule).
	var min *hkEntry
	for _, e := range t.entries {
		if min == nil || e.count < min.count {
			min = e
		}
	}
	// The evicted entry becomes the newcomer's: no allocation per eviction.
	delete(t.entries, min.hash)
	min.hash, min.count, min.err = hash, min.count+1, min.count
	t.entries[hash] = min
	t.mu.Unlock()
}

// ObserveAll counts one access to each hash (a multi-key operation).
func (t *TopK) ObserveAll(hashes []uint64) {
	if t == nil {
		return
	}
	for _, h := range hashes {
		t.Observe(h)
	}
}

// Dump snapshots the sketch, hottest key first.
func (t *TopK) Dump() HotKeyDump {
	d := HotKeyDump{Keys: []HotKey{}}
	if t == nil {
		return d
	}
	d.Node, d.Shard = t.node, int(t.shard.Load())
	t.mu.Lock()
	d.Total = t.total
	for _, e := range t.entries {
		d.Keys = append(d.Keys, HotKey{Hash: e.hash, Count: e.count, Err: e.err})
	}
	t.mu.Unlock()
	sort.Slice(d.Keys, func(i, j int) bool {
		if d.Keys[i].Count != d.Keys[j].Count {
			return d.Keys[i].Count > d.Keys[j].Count
		}
		return d.Keys[i].Hash < d.Keys[j].Hash
	})
	return d
}

// Handler serves GET /hotkeys: the sketch as a single HotKeyDump document.
func (t *TopK) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if t == nil {
			http.Error(w, "hot-key analytics disabled", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		writeJSON(w, t.Dump())
	})
}

// MultiHotKeysHandler serves /hotkeys over several sketches (dashboard
// endpoints aggregating a partition). fetch runs per request so a promoted
// replacement master's sketch appears on the next poll.
func MultiHotKeysHandler(fetch func() []*TopK) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		dumps := []HotKeyDump{}
		for _, t := range fetch() {
			if t == nil {
				continue
			}
			dumps = append(dumps, t.Dump())
		}
		writeJSON(w, dumps)
	})
}
