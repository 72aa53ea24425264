package curp

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// TestShardedPublicAPISmoke is the end-to-end sharded acceptance check:
// with 4 shards, keys route stably to their owning partition, cross-shard
// MultiIncrement sums are exactly-once under retries, crashing one shard's
// master leaves the other shards serving 1-RTT updates, and Recover
// restores the crashed shard without losing completed writes.
func TestShardedPublicAPISmoke(t *testing.T) {
	c, err := StartSharded(Options{F: 1, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.NumShards() != 4 {
		t.Fatalf("NumShards = %d", c.NumShards())
	}
	cl, err := c.NewClient("app")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	// Stable routing: cluster and client agree, and a key's shard never
	// changes across calls.
	for i := 0; i < 32; i++ {
		key := []byte(fmt.Sprintf("route:%d", i))
		s := cl.ShardFor(key)
		if s != c.ShardFor(key) || s != cl.ShardFor(key) {
			t.Fatalf("unstable routing for %q", key)
		}
		if _, err := cl.Put(ctx, key, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	// Find one counter key per shard for a cross-shard transfer.
	counters := make([][]byte, c.NumShards())
	found := 0
	for i := 0; found < c.NumShards(); i++ {
		key := []byte(fmt.Sprintf("acct:%d", i))
		if s := c.ShardFor(key); counters[s] == nil {
			counters[s] = key
			found++
		}
	}
	deltas := []IncrPair{
		{Key: counters[0], Delta: 5},
		{Key: counters[1], Delta: 6},
		{Key: counters[2], Delta: 7},
		{Key: counters[3], Delta: 8},
	}
	if _, err := cl.MultiIncrement(ctx, deltas); err != nil {
		t.Fatal(err)
	}

	// Crash shard 2's master mid-deployment.
	const crashed = 2
	c.CrashMaster(crashed)

	// The surviving shards still complete distinct-key updates in 1 RTT.
	before := cl.Stats()
	wrote := 0
	for i := 0; wrote < 12; i++ {
		key := []byte(fmt.Sprintf("live:%d", i))
		if c.ShardFor(key) == crashed {
			continue
		}
		if _, err := cl.Put(ctx, key, []byte("x")); err != nil {
			t.Fatalf("surviving shard put: %v", err)
		}
		wrote++
	}
	if got := cl.Stats().FastPath - before.FastPath; got != 12 {
		t.Fatalf("fast-path during crash = %d, want 12", got)
	}

	// A transfer spanning the crashed shard retries (same RIFL IDs) until
	// recovery publishes a new view, then applies exactly once.
	recovered := make(chan error, 1)
	go func() {
		time.Sleep(50 * time.Millisecond)
		recovered <- c.Recover(crashed, "master-b")
	}()
	cctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	vals, err := cl.MultiIncrement(cctx, deltas)
	cancel()
	if err != nil {
		t.Fatalf("crash-spanning transfer: %v", err)
	}
	if err := <-recovered; err != nil {
		t.Fatalf("recover: %v", err)
	}
	want := []int64{10, 12, 14, 16}
	for i, v := range vals {
		if v != want[i] {
			t.Fatalf("sums after retried transfer = %v, want %v (double- or zero-applied leg)", vals, want)
		}
	}
	if st := cl.Stats(); st.Retries == 0 {
		t.Fatalf("expected retries against the crashed shard, stats = %+v", st)
	}

	// Recovery preserved every completed write.
	for i := 0; i < 32; i++ {
		key := []byte(fmt.Sprintf("route:%d", i))
		v, ok, err := cl.Get(ctx, key)
		if err != nil || !ok || string(v) != "v" {
			t.Fatalf("key %q after recovery: %v %v %q", key, err, ok, v)
		}
	}
	if addrs := c.MasterAddrs(); len(addrs) != 4 || addrs[crashed] != "s2-master-b" {
		t.Fatalf("master addrs after recovery = %v", addrs)
	}
}

// TestShardedSingleShardMatchesStart: Shards defaulting to 1 gives the
// single-partition behavior through the sharded API.
func TestShardedSingleShardMatchesStart(t *testing.T) {
	c, err := StartSharded(Options{F: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.NumShards() != 1 {
		t.Fatalf("NumShards = %d", c.NumShards())
	}
	cl, err := c.NewClient("app")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	if _, err := cl.Put(ctx, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if n, err := cl.Increment(ctx, []byte("n"), 41); err != nil || n != 41 {
		t.Fatalf("incr: %v %d", err, n)
	}
	if err := cl.MultiPut(ctx, []KV{{Key: []byte("a"), Value: []byte("1")}, {Key: []byte("b"), Value: []byte("2")}}); err != nil {
		t.Fatal(err)
	}
	v, ok, err := cl.GetNearby(ctx, []byte("k"))
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("nearby: %v %v %q", err, ok, v)
	}
	if st := cl.Stats(); st.FastPath == 0 {
		t.Fatalf("stats = %+v", st)
	}
}
