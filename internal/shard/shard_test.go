package shard

import (
	"context"
	"fmt"
	"testing"
	"time"

	"curp/internal/addrbook"
	"curp/internal/kv"
	"curp/internal/transport"
)

func testOptions(shards int) Options {
	o := DefaultOptions()
	o.Shards = shards
	o.Partition.F = 1
	o.Partition.Master.RPCTimeout = time.Second
	return o
}

func startTestCluster(t *testing.T, opts Options) *Cluster {
	t.Helper()
	c, err := StartCluster(transport.NewMemNetwork(nil), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func testClient(t *testing.T, c *Cluster, name string) *Client {
	t.Helper()
	cl, err := c.NewClient(name)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// TestShardedRoutingStable: every key routes to the shard the ring names,
// lands in exactly that partition's store, and reads back through any
// client of the deployment.
func TestShardedRoutingStable(t *testing.T) {
	c := startTestCluster(t, testOptions(4))
	cl := testClient(t, c, "router")
	ctx := context.Background()

	perShard := make([]int, c.NumShards())
	for i := 0; i < 64; i++ {
		key := []byte(fmt.Sprintf("user:%d", i))
		if cl.ShardOf(key) != c.CurrentRing().Shard(key) {
			t.Fatalf("client and cluster ring disagree on %q", key)
		}
		if _, err := cl.Put(ctx, key, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
		perShard[cl.ShardOf(key)]++
	}
	// The write is in the owning partition's store and nowhere else.
	for i := 0; i < 64; i++ {
		key := []byte(fmt.Sprintf("user:%d", i))
		owner := c.CurrentRing().Shard(key)
		for s := 0; s < c.NumShards(); s++ {
			_, _, ok := c.Part(s).Master.Store().Get(key)
			if ok != (s == owner) {
				t.Fatalf("key %q present=%v on shard %d, owner is %d", key, ok, s, owner)
			}
		}
	}
	for s, n := range perShard {
		if n == 0 {
			t.Fatalf("shard %d received no keys: %v", s, perShard)
		}
	}
	// A second client routes identically and reads every value back.
	cl2 := testClient(t, c, "reader")
	for i := 0; i < 64; i++ {
		key := []byte(fmt.Sprintf("user:%d", i))
		v, ok, err := cl2.Get(ctx, key)
		if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("get %q: %v %v %q", key, err, ok, v)
		}
	}
}

// pickKeysOnDistinctShards returns `want` keys that live on pairwise
// distinct shards, including one owned by shard `include`.
func pickKeysOnDistinctShards(t *testing.T, r *Ring, want, include int) [][]byte {
	t.Helper()
	byShard := make(map[int][]byte)
	for i := 0; len(byShard) < r.Shards() && i < 10000; i++ {
		key := []byte(fmt.Sprintf("acct:%d", i))
		s := r.Shard(key)
		if byShard[s] == nil {
			byShard[s] = key
		}
	}
	keys := [][]byte{byShard[include]}
	for s := 0; s < r.Shards() && len(keys) < want; s++ {
		if s != include && byShard[s] != nil {
			keys = append(keys, byShard[s])
		}
	}
	if len(keys) < want || keys[0] == nil {
		t.Fatalf("could not find %d keys on distinct shards", want)
	}
	return keys
}

// TestCrossShardMultiIncrement: a MultiIncrement spanning several shards
// applies every leg exactly once and returns values aligned with the
// caller's order.
func TestCrossShardMultiIncrement(t *testing.T) {
	c := startTestCluster(t, testOptions(4))
	cl := testClient(t, c, "bank")
	ctx := context.Background()

	keys := pickKeysOnDistinctShards(t, c.CurrentRing(), 3, 0)
	deltas := []kv.IncrPair{
		{Key: keys[0], Delta: 100},
		{Key: keys[1], Delta: -40},
		{Key: keys[2], Delta: 7},
	}
	vals, err := cl.MultiIncrement(ctx, deltas)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 3 || vals[0] != 100 || vals[1] != -40 || vals[2] != 7 {
		t.Fatalf("first transfer values = %v", vals)
	}
	// Repeat: each application is exactly-once, so totals accumulate by
	// exactly one delta per call.
	for round := 2; round <= 5; round++ {
		vals, err = cl.MultiIncrement(ctx, deltas)
		if err != nil {
			t.Fatal(err)
		}
		if vals[0] != int64(100*round) || vals[1] != int64(-40*round) || vals[2] != int64(7*round) {
			t.Fatalf("round %d values = %v", round, vals)
		}
	}
	for i, key := range keys {
		n, err := cl.Increment(ctx, key, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := []int64{500, -200, 35}[i]
		if n != want {
			t.Fatalf("counter %q = %d, want %d", key, n, want)
		}
	}
}

// TestMultiIncrementExactlyOnceUnderRetries: a cross-shard transfer whose
// owning master is down when the operation starts retries internally (same
// RIFL ID) until recovery publishes a new view, then lands exactly once —
// the sums reflect each transfer one time despite the retries.
func TestMultiIncrementExactlyOnceUnderRetries(t *testing.T) {
	c := startTestCluster(t, testOptions(4))
	cl := testClient(t, c, "bank")
	ctx := context.Background()

	const crashed = 2
	keys := pickKeysOnDistinctShards(t, c.CurrentRing(), 3, crashed)
	deltas := []kv.IncrPair{
		{Key: keys[0], Delta: 10}, // on the shard that will crash
		{Key: keys[1], Delta: 20},
		{Key: keys[2], Delta: 30},
	}
	// Seed the counters so recovery must also preserve completed writes.
	if _, err := cl.MultiIncrement(ctx, deltas); err != nil {
		t.Fatal(err)
	}

	c.CrashMaster(crashed)
	recovered := make(chan error, 1)
	go func() {
		// Let the client burn at least one attempt against the dead master
		// before the replacement appears.
		time.Sleep(50 * time.Millisecond)
		recovered <- c.Recover(crashed, "master2")
	}()

	cctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	vals, err := cl.MultiIncrement(cctx, deltas)
	if err != nil {
		t.Fatalf("transfer across crash: %v", err)
	}
	if err := <-recovered; err != nil {
		t.Fatalf("recover: %v", err)
	}
	if vals[0] != 20 || vals[1] != 40 || vals[2] != 60 {
		t.Fatalf("values after crash-spanning transfer = %v, want [20 40 60]", vals)
	}
	if st := cl.Stats(); st.Retries == 0 {
		t.Fatalf("expected retries against the crashed shard, stats = %+v", st)
	}
	// One more transfer confirms the replayed/retried legs were not
	// double-applied anywhere.
	vals, err = cl.MultiIncrement(ctx, deltas)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != 30 || vals[1] != 60 || vals[2] != 90 {
		t.Fatalf("post-recovery values = %v, want [30 60 90]", vals)
	}
}

// TestCrashIsolation: crashing one shard's master leaves every other shard
// completing updates on the 1-RTT fast path, and recovery restores the
// crashed shard without losing completed writes.
func TestCrashIsolation(t *testing.T) {
	c := startTestCluster(t, testOptions(4))
	cl := testClient(t, c, "app")
	ctx := context.Background()

	// Complete writes on every shard.
	var keys [][]byte
	for i := 0; len(keys) < 40; i++ {
		keys = append(keys, []byte(fmt.Sprintf("pre:%d", i)))
	}
	for _, key := range keys {
		if _, err := cl.Put(ctx, key, []byte("before")); err != nil {
			t.Fatal(err)
		}
	}

	const crashed = 1
	c.CrashMaster(crashed)

	// The surviving shards keep serving distinct-key updates in 1 RTT.
	before := cl.Stats()
	wrote := 0
	for i := 0; wrote < 20; i++ {
		key := []byte(fmt.Sprintf("during:%d", i))
		if c.CurrentRing().Shard(key) == crashed {
			continue
		}
		if _, err := cl.Put(ctx, key, []byte("live")); err != nil {
			t.Fatalf("surviving shard %d rejected put: %v", c.CurrentRing().Shard(key), err)
		}
		wrote++
	}
	after := cl.Stats()
	if got := after.FastPath - before.FastPath; got != 20 {
		t.Fatalf("fast-path completions during crash = %d, want 20 (stats %+v)", got, after)
	}

	// Recovery brings the crashed shard back with every completed write.
	if err := c.Recover(crashed, "master2"); err != nil {
		t.Fatal(err)
	}
	for _, key := range keys {
		cctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		v, ok, err := cl.Get(cctx, key)
		cancel()
		if err != nil || !ok || string(v) != "before" {
			t.Fatalf("key %q after recovery (shard %d): %v %v %q", key, c.CurrentRing().Shard(key), err, ok, v)
		}
	}
	// And the recovered shard accepts new updates again.
	for i := 0; i < 200; i++ {
		key := []byte(fmt.Sprintf("post:%d", i))
		if c.CurrentRing().Shard(key) != crashed {
			continue
		}
		if _, err := cl.Put(ctx, key, []byte("after")); err != nil {
			t.Fatalf("recovered shard rejected put: %v", err)
		}
		break
	}
}

// TestCrossShardMultiPut: pairs spread over all shards land atomically per
// shard and read back everywhere.
func TestCrossShardMultiPut(t *testing.T) {
	c := startTestCluster(t, testOptions(4))
	cl := testClient(t, c, "writer")
	ctx := context.Background()

	var pairs []kv.KV
	for i := 0; i < 16; i++ {
		pairs = append(pairs, kv.KV{
			Key:   []byte(fmt.Sprintf("mp:%d", i)),
			Value: []byte(fmt.Sprintf("val-%d", i)),
		})
	}
	if err := cl.MultiPut(ctx, pairs); err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		v, ok, err := cl.Get(ctx, p.Key)
		if err != nil || !ok || string(v) != string(p.Value) {
			t.Fatalf("get %q: %v %v %q", p.Key, err, ok, v)
		}
	}
}

// TestSingleShardDegeneratesToOnePartition: Shards=1 behaves exactly like
// the unsharded cluster (every op on shard 0).
func TestSingleShardDegeneratesToOnePartition(t *testing.T) {
	opts := testOptions(1)
	c := startTestCluster(t, opts)
	if c.NumShards() != 1 {
		t.Fatalf("NumShards = %d", c.NumShards())
	}
	cl := testClient(t, c, "solo")
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		key := []byte(fmt.Sprintf("k%d", i))
		if s := cl.ShardOf(key); s != 0 {
			t.Fatalf("ShardOf(%q) = %d", key, s)
		}
		if _, err := cl.Put(ctx, key, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if st := cl.Stats(); st.FastPath != 10 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestShardedOptionsPropagate: per-partition options reach every shard
// (the deployment's address function, F, witness counts).
func TestShardedOptionsPropagate(t *testing.T) {
	opts := testOptions(3)
	opts.Partition.F = 2
	opts.Addrs = func(s int, slot addrbook.Role, i int) string { return "deploy-" + hostNames(s, slot, i) }
	c := startTestCluster(t, opts)
	for s, part := range c.Parts {
		if len(part.Backups) != 2 || len(part.Witnesses) != 2 {
			t.Fatalf("shard %d has %d backups / %d witnesses, want 2/2", s, len(part.Backups), len(part.Witnesses))
		}
		if got, want := part.Master.Addr(), fmt.Sprintf("deploy-s%d-master1", s); got != want {
			t.Fatalf("shard %d master addr = %q, want %q", s, got, want)
		}
	}
}

// TestRecoverAddressing: a manual Recover scopes its host name to the shard
// under the default names, and takes the partition's next Spare slot when
// the deployment is placed by its own address function (curpd's address
// book), where a host name is not an address. Completed writes survive.
func TestRecoverAddressing(t *testing.T) {
	book := addrbook.Book{Host: "h", Port: 7000}
	for _, tc := range []struct {
		name  string
		addrs func(int, addrbook.Role, int) string
		want  string
	}{
		{"host names", nil, "s1-master2"},
		{"address book", book.RPC, book.RPC(1, addrbook.Spare, 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := testOptions(2)
			opts.Addrs = tc.addrs
			c := startTestCluster(t, opts)
			cl := testClient(t, c, "recoverer")
			ctx := context.Background()
			var key []byte
			for i := 0; c.CurrentRing().Shard(key) != 1; i++ {
				key = []byte(fmt.Sprintf("k%d", i))
			}
			if _, err := cl.Put(ctx, key, []byte("v")); err != nil {
				t.Fatal(err)
			}
			c.CrashMaster(1)
			if err := c.Recover(1, "master2"); err != nil {
				t.Fatal(err)
			}
			if got := c.Part(1).CurrentMaster().Addr(); got != tc.want {
				t.Fatalf("recovered master at %q, want %q", got, tc.want)
			}
			if v, ok, err := cl.Get(ctx, key); err != nil || !ok || string(v) != "v" {
				t.Fatalf("get after recovery: %q %v %v", v, ok, err)
			}
		})
	}
}
