package curp

import (
	"context"
	"errors"
	"fmt"
	"runtime"
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

// TestShardedStatsSumEveryCounter: ShardedClient.Stats sums ALL of the
// per-shard clients' counters — transaction outcomes and the live pipeline
// depth included.
func TestShardedStatsSumEveryCounter(t *testing.T) {
	// A small one-way delay keeps asynchronous updates outstanding long
	// enough to observe the in-flight gauge.
	c, err := StartSharded(Options{F: 1, Shards: 2, Latency: func(from, to string) time.Duration {
		return 2 * time.Millisecond
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl, err := c.NewClient("stats")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	keys := crossShardTxnKeys(t, "st", 2, 2)

	const commits = 3
	for i := 0; i < commits; i++ {
		tx := cl.Txn()
		tx.Increment(keys[i%2], -1)
		tx.Increment(keys[(i+1)%2], 1)
		if err := tx.Commit(ctx); err != nil {
			t.Fatalf("cross-shard commit %d: %v", i, err)
		}
	}
	tx := cl.Txn()
	if _, _, err := tx.Get(ctx, keys[0]); err != nil {
		t.Fatal(err)
	}
	tx.Put(keys[1], []byte("must-not-land"))
	if _, err := cl.Increment(ctx, keys[0], 1); err != nil { // invalidate the read
		t.Fatal(err)
	}
	if err := tx.Commit(ctx); !errors.Is(err, ErrTxnAborted) {
		t.Fatalf("invalidated commit: %v, want ErrTxnAborted", err)
	}
	if st := cl.Stats(); st.TxnCommits != commits || st.TxnAborts != 1 {
		t.Fatalf("TxnCommits = %d, TxnAborts = %d, want %d and 1 (stats %+v)", st.TxnCommits, st.TxnAborts, commits, st)
	}

	var futs []*Future
	for i := 0; i < 8; i++ {
		futs = append(futs, cl.PutAsync(ctx, []byte(fmt.Sprintf("st-async:%d", i)), []byte("v")))
	}
	settled := make(chan struct{})
	go func() {
		defer close(settled)
		for _, f := range futs {
			if err := f.Err(); err != nil {
				t.Errorf("async put: %v", err)
			}
		}
	}()
	sawDepth := false
	for !sawDepth {
		select {
		case <-settled:
			t.Fatal("PipelineDepth stayed 0 while 8 async puts were outstanding")
		default:
			sawDepth = cl.Stats().PipelineDepth > 0
			runtime.Gosched()
		}
	}
	<-settled
}
