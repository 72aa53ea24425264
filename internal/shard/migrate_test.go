package shard

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// movingKeys returns test keys that change owner when cur grows one shard,
// mapped source shard → keys, plus a set of keys that stay put.
func movingKeys(cur *Ring, prefix string, want int) (moving map[int][]string, staying []string) {
	grown := cur.Grow()
	moving = make(map[int][]string)
	total := 0
	for i := 0; total < want && i < 100000; i++ {
		key := fmt.Sprintf("%s:%d", prefix, i)
		if from, to := cur.ShardString(key), grown.ShardString(key); from != to {
			moving[from] = append(moving[from], key)
			total++
		} else if len(staying) < want {
			staying = append(staying, key)
		}
	}
	return moving, staying
}

// TestLiveMigrationMovesKeys: AddShard+Rebalance migrates exactly the
// grown ring's key ranges onto the new shard — values, versions, and
// counters survive, the source drops its copies, and a client opened
// before the rebalance re-routes through the redirect path.
func TestLiveMigrationMovesKeys(t *testing.T) {
	c := startTestCluster(t, testOptions(3))
	cl := testClient(t, c, "app")
	ctx := context.Background()

	moving, staying := movingKeys(c.CurrentRing(), "mig", 24)
	if len(moving) == 0 {
		t.Fatal("no moving keys found")
	}
	var allMoving []string
	for _, keys := range moving {
		allMoving = append(allMoving, keys...)
	}

	// Seed state the migration must carry: plain values (two writes, so
	// versions reach 2), counters (5 increments each), and untouched keys.
	for _, key := range append(append([]string(nil), allMoving...), staying...) {
		if _, err := cl.Put(ctx, []byte(key), []byte("v1-"+key)); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Put(ctx, []byte(key), []byte("v2-"+key)); err != nil {
			t.Fatal(err)
		}
	}
	counter := allMoving[0] + "/counter"
	ctrShard := c.CurrentRing().ShardString(counter)
	for i := 0; i < 5; i++ {
		if _, err := cl.Increment(ctx, []byte(counter), 1); err != nil {
			t.Fatal(err)
		}
	}

	if s, err := c.AddShard(); err != nil || s != 3 {
		t.Fatalf("AddShard = %d, %v", s, err)
	}
	if err := c.Rebalance(ctx); err != nil {
		t.Fatalf("Rebalance: %v", err)
	}
	ring := c.CurrentRing()
	if ring.Shards() != 4 || ring.Epoch() != 1 {
		t.Fatalf("ring after rebalance: %d shards epoch %d", ring.Shards(), ring.Epoch())
	}

	// The pre-rebalance client reads every key back (bounced operations
	// re-route) and sees the latest values.
	for _, key := range append(append([]string(nil), allMoving...), staying...) {
		v, ok, err := cl.Get(ctx, []byte(key))
		if err != nil || !ok || string(v) != "v2-"+key {
			t.Fatalf("get %q after rebalance: %v %v %q", key, err, ok, v)
		}
	}

	// Moved keys live on the new shard's store and nowhere else.
	for _, key := range allMoving {
		if owner := ring.ShardString(key); owner != 3 {
			t.Fatalf("key %q owned by %d after grow, want 3", key, owner)
		}
		if _, _, ok := c.Part(3).Master.Store().Get([]byte(key)); !ok {
			t.Fatalf("moved key %q missing on target store", key)
		}
	}
	for from, keys := range moving {
		for _, key := range keys {
			if _, _, ok := c.Part(from).Master.Store().Get([]byte(key)); ok {
				t.Fatalf("moved key %q still on source shard %d", key, from)
			}
		}
	}

	// Every read flavor re-routes across the handoff, including the §A.3
	// stale read (whose redirect is a distinct code path) and the §A.1
	// nearby read (whose backup replica is fenced at the source).
	for _, key := range allMoving[:3] {
		if v, ok, err := cl.GetStale(ctx, []byte(key)); err != nil || !ok || string(v) != "v2-"+key {
			t.Fatalf("GetStale %q after rebalance: %v %v %q", key, err, ok, v)
		}
		if v, ok, err := cl.GetNearby(ctx, []byte(key)); err != nil || !ok || string(v) != "v2-"+key {
			t.Fatalf("GetNearby %q after rebalance: %v %v %q", key, err, ok, v)
		}
	}

	// Versions migrated: a conditional write against the pre-migration
	// version succeeds on the new owner.
	applied, ver, err := cl.CondPut(ctx, []byte(allMoving[0]), []byte("v3"), 2)
	if err != nil || !applied || ver != 3 {
		t.Fatalf("CondPut across migration: applied=%v ver=%d err=%v", applied, ver, err)
	}

	// Counters keep counting exactly-once across the handoff.
	if moved := ring.ShardString(counter) != ctrShard; moved {
		t.Logf("counter %q moved %d→%d", counter, ctrShard, ring.ShardString(counter))
	}
	for i := 0; i < 5; i++ {
		if _, err := cl.Increment(ctx, []byte(counter), 1); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := cl.Increment(ctx, []byte(counter), 0); err != nil || n != 10 {
		t.Fatalf("counter after migration = %d, %v, want 10", n, err)
	}

	// A fresh client routes by the new ring immediately.
	cl2 := testClient(t, c, "late")
	if cl2.NumShards() != 4 {
		t.Fatalf("fresh client covers %d shards", cl2.NumShards())
	}
	for _, key := range staying {
		if v, ok, err := cl2.Get(ctx, []byte(key)); err != nil || !ok || string(v) != "v2-"+key {
			t.Fatalf("fresh client get %q: %v %v %q", key, err, ok, v)
		}
	}
}

// TestRebalanceNoSpareIsNoop: Rebalance with no spare partitions returns
// immediately without touching the ring.
func TestRebalanceNoSpareIsNoop(t *testing.T) {
	c := startTestCluster(t, testOptions(2))
	if err := c.Rebalance(context.Background()); err != nil {
		t.Fatal(err)
	}
	if r := c.CurrentRing(); r.Shards() != 2 || r.Epoch() != 0 {
		t.Fatalf("ring changed: %d shards epoch %d", r.Shards(), r.Epoch())
	}
}

// TestRebalanceMultiStep: two spares are absorbed one epoch per grow step.
func TestRebalanceMultiStep(t *testing.T) {
	c := startTestCluster(t, testOptions(2))
	cl := testClient(t, c, "app")
	ctx := context.Background()
	for i := 0; i < 30; i++ {
		if _, err := cl.Put(ctx, []byte(fmt.Sprintf("ms:%d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := c.AddShard(); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Rebalance(ctx); err != nil {
		t.Fatal(err)
	}
	if r := c.CurrentRing(); r.Shards() != 4 || r.Epoch() != 2 {
		t.Fatalf("ring after two grows: %d shards epoch %d", r.Shards(), r.Epoch())
	}
	for i := 0; i < 30; i++ {
		key := fmt.Sprintf("ms:%d", i)
		if v, ok, err := cl.Get(ctx, []byte(key)); err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("get %q: %v %v %q", key, err, ok, v)
		}
	}
}

// TestCrashDuringMigration kills the source master at two protocol stages
// and asserts the moving range ends up on exactly one side — recovered at
// the source when the migration aborted, installed at the target when it
// committed — never both, and never lost.
func TestCrashDuringMigration(t *testing.T) {
	seed := func(t *testing.T, c *Cluster, cl *Client) (moving map[int][]string, all []string) {
		ctx := context.Background()
		moving, staying := movingKeys(c.CurrentRing(), "cr", 18)
		if len(moving) == 0 {
			t.Fatal("no moving keys found")
		}
		for _, keys := range moving {
			all = append(all, keys...)
		}
		all = append(all, staying...)
		for _, key := range all {
			if _, err := cl.Put(ctx, []byte(key), []byte("val-"+key)); err != nil {
				t.Fatal(err)
			}
		}
		return moving, all
	}
	// crashSource picks the source shard whose ranges move and crashes it
	// when the hook fires. With several sources contributing ranges, the
	// highest-numbered one is collected last, so a BeforeCollect crash
	// still exercises the abort of earlier sources' freezes.
	pickSource := func(moving map[int][]string) int {
		src := -1
		for s := range moving {
			if s > src {
				src = s
			}
		}
		return src
	}

	t.Run("abort-before-collect", func(t *testing.T) {
		c := startTestCluster(t, testOptions(3))
		cl := testClient(t, c, "app")
		ctx := context.Background()
		moving, all := seed(t, c, cl)
		src := pickSource(moving)

		if _, err := c.AddShard(); err != nil {
			t.Fatal(err)
		}
		c.Hooks.BeforeCollect = func(int) { c.CrashMaster(src) }
		if err := c.Rebalance(ctx); err == nil {
			t.Fatal("Rebalance succeeded despite a source crash before collect")
		}
		// The ring never flipped: the range stays with its sources.
		if r := c.CurrentRing(); r.Shards() != 3 || r.Epoch() != 0 {
			t.Fatalf("ring after aborted rebalance: %d shards epoch %d", r.Shards(), r.Epoch())
		}
		if err := c.Recover(src, "master2"); err != nil {
			t.Fatalf("recover source: %v", err)
		}
		// Every key — including the crashed source's moving range — is
		// recovered at its ORIGINAL shard; the target holds nothing.
		for _, key := range all {
			cctx, cancel := context.WithTimeout(ctx, 10*time.Second)
			v, ok, err := cl.Get(cctx, []byte(key))
			cancel()
			if err != nil || !ok || string(v) != "val-"+key {
				t.Fatalf("key %q after aborted migration: %v %v %q", key, err, ok, v)
			}
		}
		if n := c.Part(3).Master.Store().Len(); n != 0 {
			t.Fatalf("target store holds %d objects after aborted migration", n)
		}
	})

	t.Run("recover-during-step", func(t *testing.T) {
		// The nastiest interleaving: the source crashes mid-step and an
		// operator recovers it BEFORE the step commits. The coordinator's
		// freeze record (written before collect) keeps the replacement
		// master's ranges frozen, so it cannot accept writes that the
		// committing step would silently strand — no split-brain.
		c := startTestCluster(t, testOptions(3))
		cl := testClient(t, c, "app")
		ctx := context.Background()
		moving, all := seed(t, c, cl)
		src := pickSource(moving)

		if _, err := c.AddShard(); err != nil {
			t.Fatal(err)
		}
		c.Hooks.AfterCollect = func(int) {
			c.CrashMaster(src)
			if err := c.Recover(src, "master2"); err != nil {
				t.Errorf("recover source mid-step: %v", err)
			}
		}
		err := c.Rebalance(ctx)
		// The step commits regardless (its bundle was exported before the
		// crash); only the source-side cleanup may be left to recovery.
		if r := c.CurrentRing(); r.Shards() != 4 || r.Epoch() != 1 {
			t.Fatalf("ring after mid-step recovery: %d shards epoch %d (err=%v)", r.Shards(), r.Epoch(), err)
		}
		// Every key is served correctly through the routing client, and
		// writes to moved keys land on the target, not the recovered
		// source.
		probe := moving[src][0]
		cctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		if _, err := cl.Put(cctx, []byte(probe), []byte("post-recovery")); err != nil {
			t.Fatalf("put %q after mid-step recovery: %v", probe, err)
		}
		cancel()
		if v, _, ok := c.Part(3).Master.Store().Get([]byte(probe)); !ok || string(v) != "post-recovery" {
			t.Fatalf("post-recovery write landed off-target: %q ok=%v", v, ok)
		}
		for _, key := range all {
			want := "val-" + key
			if key == probe {
				want = "post-recovery"
			}
			cctx, cancel := context.WithTimeout(ctx, 10*time.Second)
			v, ok, err := cl.Get(cctx, []byte(key))
			cancel()
			if err != nil || !ok || string(v) != want {
				t.Fatalf("key %q after mid-step recovery: %v %v %q", key, err, ok, v)
			}
		}
	})

	t.Run("commit-after-collect", func(t *testing.T) {
		c := startTestCluster(t, testOptions(3))
		cl := testClient(t, c, "app")
		ctx := context.Background()
		moving, all := seed(t, c, cl)
		src := pickSource(moving)

		if _, err := c.AddShard(); err != nil {
			t.Fatal(err)
		}
		// The source dies after exporting its ranges: collect already
		// drained them to its backups AND handed them to the driver, so
		// the migration commits; only the source's local cleanup is left
		// to its recovery.
		c.Hooks.AfterCollect = func(int) { c.CrashMaster(src) }
		err := c.Rebalance(ctx)
		if r := c.CurrentRing(); r.Shards() != 4 || r.Epoch() != 1 {
			t.Fatalf("ring after committed rebalance: %d shards epoch %d (err=%v)", r.Shards(), r.Epoch(), err)
		}
		if err := c.Recover(src, "master2"); err != nil {
			t.Fatalf("recover source: %v", err)
		}
		// Exactly one side serves each moved key: the target's store has
		// it, the recovered source's does not (its recovery applied the
		// coordinator's moved-range record, dropping restored objects and
		// skipping witness replays for the range).
		for _, keys := range moving {
			for _, key := range keys {
				if _, _, ok := c.Part(3).Master.Store().Get([]byte(key)); !ok {
					t.Fatalf("moved key %q missing on target after commit", key)
				}
			}
		}
		for _, key := range moving[src] {
			if _, _, ok := c.Part(src).Master.Store().Get([]byte(key)); ok {
				t.Fatalf("moved key %q resurrected on recovered source %d", key, src)
			}
		}
		// And every key reads back correctly through the routing client.
		for _, key := range all {
			cctx, cancel := context.WithTimeout(ctx, 10*time.Second)
			v, ok, err := cl.Get(cctx, []byte(key))
			cancel()
			if err != nil || !ok || string(v) != "val-"+key {
				t.Fatalf("key %q after committed migration: %v %v %q", key, err, ok, v)
			}
		}
	})
}

// shrinkingKeys returns test keys the leaving shard hands off when cur
// shrinks one shard, mapped target shard → keys, plus keys that stay put.
// Every moving key is owned by the highest shard under cur — the dual of
// the grow case, where every moving key is owned by the new shard after.
func shrinkingKeys(t *testing.T, cur *Ring, prefix string, want int) (moving map[int][]string, staying []string) {
	t.Helper()
	shrunk, err := cur.Shrink()
	if err != nil {
		t.Fatal(err)
	}
	leaving := cur.Shards() - 1
	moving = make(map[int][]string)
	total := 0
	for i := 0; total < want && i < 100000; i++ {
		key := fmt.Sprintf("%s:%d", prefix, i)
		if from, to := cur.ShardString(key), shrunk.ShardString(key); from != to {
			if from != leaving {
				t.Fatalf("shrink moves key %q from shard %d, want only %d", key, from, leaving)
			}
			moving[to] = append(moving[to], key)
			total++
		} else if len(staying) < want {
			staying = append(staying, key)
		}
	}
	return moving, staying
}

// TestRemoveShardDrainsKeys: RemoveShard live-migrates the highest shard's
// key ranges back to the survivors (fanning out to many targets — the dual
// of a grow step), publishes the shrunk ring, and retires the drained
// partition. Values, versions, and counters survive; a client opened before
// the drain re-routes through the redirect path.
func TestRemoveShardDrainsKeys(t *testing.T) {
	c := startTestCluster(t, testOptions(4))
	cl := testClient(t, c, "app")
	ctx := context.Background()

	cur := c.CurrentRing()
	leaving := cur.Shards() - 1
	moving, staying := shrinkingKeys(t, cur, "drain", 24)
	if len(moving) < 2 {
		t.Fatalf("shrink fans out to %d targets, want several", len(moving))
	}
	var allMoving []string
	for _, keys := range moving {
		allMoving = append(allMoving, keys...)
	}

	// Seed state the drain must carry: plain values (two writes, so
	// versions reach 2), a counter on the leaving shard, untouched keys.
	for _, key := range append(append([]string(nil), allMoving...), staying...) {
		if _, err := cl.Put(ctx, []byte(key), []byte("v1-"+key)); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Put(ctx, []byte(key), []byte("v2-"+key)); err != nil {
			t.Fatal(err)
		}
	}
	var counter string
	for i := 0; ; i++ {
		counter = fmt.Sprintf("drainctr:%d", i)
		if cur.ShardString(counter) == leaving {
			break
		}
	}
	for i := 0; i < 5; i++ {
		if _, err := cl.Increment(ctx, []byte(counter), 1); err != nil {
			t.Fatal(err)
		}
	}

	if err := c.RemoveShard(ctx); err != nil {
		t.Fatalf("RemoveShard: %v", err)
	}
	ring := c.CurrentRing()
	if ring.Shards() != 3 || ring.Epoch() != 1 {
		t.Fatalf("ring after drain: %d shards epoch %d", ring.Shards(), ring.Epoch())
	}
	if n := c.NumShards(); n != 3 {
		t.Fatalf("NumShards after drain = %d, want 3", n)
	}

	// The pre-drain client reads every key back (bounced operations
	// re-route to the survivors) and sees the latest values.
	for _, key := range append(append([]string(nil), allMoving...), staying...) {
		v, ok, err := cl.Get(ctx, []byte(key))
		if err != nil || !ok || string(v) != "v2-"+key {
			t.Fatalf("get %q after drain: %v %v %q", key, err, ok, v)
		}
	}

	// Each drained key landed on exactly the survivor the shrunk ring
	// names.
	for to, keys := range moving {
		for _, key := range keys {
			if owner := ring.ShardString(key); owner != to {
				t.Fatalf("key %q owned by %d after shrink, want %d", key, owner, to)
			}
			if _, _, ok := c.Part(to).Master.Store().Get([]byte(key)); !ok {
				t.Fatalf("drained key %q missing on survivor %d", key, to)
			}
		}
	}

	// Versions migrated: a conditional write against the pre-drain
	// version succeeds on the new owner.
	applied, ver, err := cl.CondPut(ctx, []byte(allMoving[0]), []byte("v3"), 2)
	if err != nil || !applied || ver != 3 {
		t.Fatalf("CondPut across drain: applied=%v ver=%d err=%v", applied, ver, err)
	}

	// The counter keeps counting exactly-once on its survivor.
	for i := 0; i < 5; i++ {
		if _, err := cl.Increment(ctx, []byte(counter), 1); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := cl.Increment(ctx, []byte(counter), 0); err != nil || n != 10 {
		t.Fatalf("counter after drain = %d, %v, want 10", n, err)
	}

	// A fresh client covers only the survivors.
	cl2 := testClient(t, c, "late")
	if cl2.NumShards() != 3 {
		t.Fatalf("fresh client covers %d shards", cl2.NumShards())
	}
	for _, key := range allMoving[:3] {
		if v, ok, err := cl2.Get(ctx, []byte(key)); err != nil || !ok || string(v) != "v3" && string(v) != "v2-"+key {
			t.Fatalf("fresh client get %q: %v %v %q", key, err, ok, v)
		}
	}

	// Grow-then-shrink round trip: adding a shard back restores the
	// pre-drain mapping exactly (the mapping is a pure function of the
	// shard count), at a higher epoch.
	if s, err := c.AddShard(); err != nil || s != 3 {
		t.Fatalf("AddShard after drain = %d, %v", s, err)
	}
	if err := c.Rebalance(ctx); err != nil {
		t.Fatalf("Rebalance after drain: %v", err)
	}
	regrown := c.CurrentRing()
	if regrown.Shards() != 4 || regrown.Epoch() != 2 {
		t.Fatalf("ring after regrow: %d shards epoch %d", regrown.Shards(), regrown.Epoch())
	}
	// cl2 was opened on the 3-shard ring: reading a key the regrow moved
	// exercises the refresh path that dials the newly covered shard.
	for _, key := range allMoving[:3] {
		if owner := regrown.ShardString(key); owner != leaving {
			t.Fatalf("key %q owned by %d after regrow, want %d", key, owner, leaving)
		}
		if v, ok, err := cl2.Get(ctx, []byte(key)); err != nil || !ok || len(v) == 0 {
			t.Fatalf("get %q after regrow: %v %v", key, err, ok)
		}
	}
}

// TestRemoveShardRejectsSpare: a partition not covered by the ring blocks
// RemoveShard — the operator must Rebalance onto it (or retire it by other
// means) first, otherwise the drained shard's data would land partly on a
// partition the ring never routes to.
func TestRemoveShardRejectsSpare(t *testing.T) {
	c := startTestCluster(t, testOptions(2))
	ctx := context.Background()
	if _, err := c.AddShard(); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveShard(ctx); err == nil {
		t.Fatal("RemoveShard with an uncovered spare succeeded, want error")
	}
	if err := c.Rebalance(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveShard(ctx); err != nil {
		t.Fatalf("RemoveShard after rebalance: %v", err)
	}
	if got := c.CurrentRing().Shards(); got != 2 {
		t.Fatalf("shards after drain = %d, want 2", got)
	}
}

// TestMigrationKeepsTTL: a key's expiry travels with it. A PutTTL key that
// changes owner in a rebalance carries its expiry stamp to the new shard,
// which goes on to expire it — the handoff must not turn a lease into a
// permanent value.
func TestMigrationKeepsTTL(t *testing.T) {
	c := startTestCluster(t, testOptions(3))
	cl := testClient(t, c, "app")
	ctx := context.Background()

	moving, _ := movingKeys(c.CurrentRing(), "ttl", 4)
	var keys []string
	for _, ks := range moving {
		keys = append(keys, ks...)
	}
	if len(keys) == 0 {
		t.Fatal("no moving keys found")
	}
	expireAt := time.Now().Add(time.Hour).UnixNano()
	for _, key := range keys {
		if _, err := cl.PutTTL(ctx, []byte(key), []byte("leased"), expireAt); err != nil {
			t.Fatal(err)
		}
	}
	if s, err := c.AddShard(); err != nil || s != 3 {
		t.Fatalf("AddShard = %d, %v", s, err)
	}
	if err := c.Rebalance(ctx); err != nil {
		t.Fatalf("Rebalance: %v", err)
	}

	target := c.Part(3).Master.Store()
	for _, key := range keys {
		if owner := c.CurrentRing().ShardString(key); owner != 3 {
			t.Fatalf("key %q owned by %d after grow, want 3", key, owner)
		}
		objs := target.ExportRange(func(k []byte) bool { return string(k) == key })
		if len(objs) != 1 || objs[0].ExpireAt != expireAt {
			t.Fatalf("key %q on its new shard: %+v, want expiry %d", key, objs, expireAt)
		}
		if v, ok, err := cl.Get(ctx, []byte(key)); err != nil || !ok || string(v) != "leased" {
			t.Fatalf("get %q before its expiry: %v %v %q", key, err, ok, v)
		}
	}
	// The new owner's clock passes the expiry: the keys are gone.
	target.SetClock(func() int64 { return expireAt + 1 })
	for _, key := range keys {
		if v, ok, err := cl.Get(ctx, []byte(key)); err != nil || ok {
			t.Fatalf("get %q past its expiry on the new shard: %v %v %q", key, err, ok, v)
		}
	}
}
