package curp

import (
	"context"
	"fmt"
	"testing"
	"time"
)

func TestPublicAPIRoundTrip(t *testing.T) {
	c, err := Start(Options{F: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl, err := c.NewClient("app")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	if _, err := cl.Put(ctx, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := cl.Get(ctx, []byte("k"))
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("get: %v %v %q", err, ok, v)
	}
	if n, err := cl.Increment(ctx, []byte("n"), 5); err != nil || n != 5 {
		t.Fatalf("incr: %v %d", err, n)
	}
	applied, _, err := cl.CondPut(ctx, []byte("cas"), []byte("x"), 0)
	if err != nil || !applied {
		t.Fatalf("condput: %v %v", err, applied)
	}
	if err := cl.MultiPut(ctx, []KV{{Key: []byte("a"), Value: []byte("1")}, {Key: []byte("b"), Value: []byte("2")}}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Delete(ctx, []byte("k")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := cl.Get(ctx, []byte("k")); ok {
		t.Fatal("deleted key visible")
	}
	st := cl.Stats()
	if st.FastPath == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPublicAPICrashRecovery(t *testing.T) {
	c, err := Start(Options{F: 2, SyncBatchSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl, _ := c.NewClient("app")
	defer cl.Close()
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if _, err := cl.Put(ctx, []byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	c.CrashMaster()
	if err := c.Recover("master-b"); err != nil {
		t.Fatal(err)
	}
	if c.MasterAddr() != "master-b" {
		t.Fatalf("master addr = %s", c.MasterAddr())
	}
	for i := 0; i < 10; i++ {
		v, ok, err := cl.Get(ctx, []byte(fmt.Sprintf("k%d", i)))
		if err != nil || !ok || string(v) != "v" {
			t.Fatalf("k%d: %v %v %q", i, err, ok, v)
		}
	}
}

func TestPublicAPILatencyInjection(t *testing.T) {
	// Geo-style: master is far (5ms one-way), witnesses/backups near.
	far := c2s("master1")
	c, err := Start(Options{F: 1, Latency: func(from, to string) time.Duration {
		if far[from] || far[to] {
			return 25 * time.Millisecond
		}
		return 100 * time.Microsecond
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl, _ := c.NewClient("app")
	defer cl.Close()
	ctx := context.Background()
	if _, err := cl.Put(ctx, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Force a sync so the backup holds the value and the witness is clean.
	if _, err := cl.Put(ctx, []byte("k"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	v, ok, err := cl.GetNearby(ctx, []byte("k"))
	local := time.Since(start)
	if err != nil || !ok || string(v) != "v2" {
		t.Fatalf("nearby: %v %v %q", err, ok, v)
	}
	if cl.Stats().BackupReads != 1 {
		t.Fatalf("stats = %+v", cl.Stats())
	}
	start = time.Now()
	if _, _, err := cl.Get(ctx, []byte("k")); err != nil {
		t.Fatal(err)
	}
	remote := time.Since(start)
	// The nearby read avoids both 5ms wide-area legs; compare against the
	// master read rather than wall-clock (host timer granularity inflates
	// sub-millisecond sleeps).
	if local*2 > remote {
		t.Fatalf("nearby read %v not ≪ master read %v", local, remote)
	}
	if len(c.WitnessAddrs()) != 1 || len(c.BackupAddrs()) != 1 {
		t.Fatal("addr accessors")
	}
}

func c2s(ss ...string) map[string]bool {
	m := map[string]bool{}
	for _, s := range ss {
		m[s] = true
	}
	return m
}

func TestDurableCache(t *testing.T) {
	d, err := NewDurableCache(Options{F: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := d.Set(ctx, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := d.Get(ctx, []byte("k")); !ok || string(v) != "v" {
		t.Fatalf("get = %q %v", v, ok)
	}
	if n, err := d.Incr(ctx, []byte("c"), 7); err != nil || n != 7 {
		t.Fatalf("incr: %v %d", err, n)
	}
	if err := d.HSet(ctx, []byte("h"), []byte("f"), []byte("hv")); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := d.HGet(ctx, []byte("h"), []byte("f")); !ok || string(v) != "hv" {
		t.Fatalf("hget = %q", v)
	}
	if n, err := d.RPush(ctx, []byte("l"), []byte("x")); err != nil || n != 1 {
		t.Fatalf("rpush: %v %d", err, n)
	}
	if vs, err := d.LRange(ctx, []byte("l"), 0, -1); err != nil || len(vs) != 1 {
		t.Fatalf("lrange: %v %q", err, vs)
	}
	// Distinct keys → all updates on the 1-RTT path, zero fsyncs so far
	// except the one forced by reading un-fsynced keys... reads DO force
	// syncs, so just check the fast-path counter.
	if st := d.Stats(); st.FastPath == 0 {
		t.Fatalf("stats = %+v", st)
	}
	// The zero Options value follows Start's defaults: F=3 witnesses, the
	// paper's witness geometry, and the hot-key heuristic enabled.
	dd, err := NewDurableCache(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(dd.witnesses) != 3 {
		t.Fatalf("default cache has %d witnesses, want 3", len(dd.witnesses))
	}
	// An invalid explicit witness geometry is rejected, not silently
	// patched.
	if _, err := NewDurableCache(Options{WitnessSlots: 10, WitnessWays: 4}); err == nil {
		t.Fatal("invalid witness geometry should be rejected")
	}
}

func TestDurableCacheCrashRecovery(t *testing.T) {
	d, _ := NewDurableCache(Options{F: 1, SyncBatchSize: 25})
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		if err := d.Set(ctx, []byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	durable := d.Crash() // un-fsynced tail lost
	r, err := RecoverCache(durable, d)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		v, ok, err := r.Get(ctx, []byte(fmt.Sprintf("k%d", i)))
		if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("k%d after crash: %v %v %q", i, err, ok, v)
		}
	}
	if r.Fsyncs() == 0 {
		t.Fatal("recovery should fsync the rebuilt log")
	}
}

// TestClusterOptionsPipelineDerivation pins how MaxPipelineDepth sizes the
// witnesses: associativity doubles from the default to the next power of
// two holding that many same-key records (capped at 64), an explicit
// WitnessWays wins, Slots never drops below Ways, and the master's burst
// limit is the resolved associativity (disabled without a depth).
func TestClusterOptionsPipelineDerivation(t *testing.T) {
	for _, tc := range []struct {
		depth, ways, slots          int // Options in
		wantWays, wantSlots, wantBL int // cluster.Options out
	}{
		{depth: 0, wantWays: 4, wantSlots: 4096, wantBL: 0},
		{depth: 3, wantWays: 4, wantSlots: 4096, wantBL: 4},
		{depth: 16, wantWays: 16, wantSlots: 4096, wantBL: 16},
		{depth: 100, wantWays: 64, wantSlots: 4096, wantBL: 64},
		{depth: 0, ways: 8, wantWays: 8, wantSlots: 4096, wantBL: 0},
		{depth: 3, ways: 8, wantWays: 8, wantSlots: 4096, wantBL: 8},
		{depth: 16, ways: 8, wantWays: 8, wantSlots: 4096, wantBL: 8},
		{depth: 100, ways: 8, wantWays: 8, wantSlots: 4096, wantBL: 8},
		{depth: 16, slots: 2, wantWays: 16, wantSlots: 16, wantBL: 16},
	} {
		got := clusterOptions(Options{MaxPipelineDepth: tc.depth, WitnessWays: tc.ways, WitnessSlots: tc.slots})
		if got.Witness.Ways != tc.wantWays || got.Witness.Slots != tc.wantSlots || got.Master.Core.WitnessBurstLimit != tc.wantBL {
			t.Errorf("depth %d ways %d slots %d: Ways %d Slots %d BurstLimit %d, want %d %d %d",
				tc.depth, tc.ways, tc.slots,
				got.Witness.Ways, got.Witness.Slots, got.Master.Core.WitnessBurstLimit,
				tc.wantWays, tc.wantSlots, tc.wantBL)
		}
	}
}
