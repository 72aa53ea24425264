package shard

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// keysBetween returns test keys that change owner when the ring steps from
// cur to next, mapped source shard → keys, plus a set of keys that stay put.
func keysBetween(cur, next *Ring, prefix string, want int) (moving map[int][]string, staying []string) {
	moving = make(map[int][]string)
	total := 0
	for i := 0; total < want && i < 100000; i++ {
		key := fmt.Sprintf("%s:%d", prefix, i)
		if from, to := cur.ShardString(key), next.ShardString(key); from != to {
			moving[from] = append(moving[from], key)
			total++
		} else if len(staying) < want {
			staying = append(staying, key)
		}
	}
	return moving, staying
}

// movingKeys is keysBetween for the grow step cur → cur.Grow().
func movingKeys(cur *Ring, prefix string, want int) (moving map[int][]string, staying []string) {
	return keysBetween(cur, cur.Grow(), prefix, want)
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

// TestCrashDuringMigration crashes servers at precise stages of the one
// handoff step, in both directions it runs — a grow (AddShard+Rebalance:
// many sources, one target) and a shrink (RemoveShard: one source, many
// targets) — and asserts the moving ranges end up on exactly one side:
// recovered at the source when the step aborted, installed at the targets
// when it committed — never both, and never lost.
func TestCrashDuringMigration(t *testing.T) {
	directions := []struct {
		// prefix names the direction's subtests; the grow direction keeps
		// the bare scenario names it has always had.
		prefix  string
		shards  int
		next    func(t *testing.T, cur *Ring) *Ring
		prepare func(c *Cluster) error
		step    func(ctx context.Context, c *Cluster) error
	}{
		{
			prefix: "", shards: 3,
			next:    func(_ *testing.T, cur *Ring) *Ring { return cur.Grow() },
			prepare: func(c *Cluster) error { _, err := c.AddShard(); return err },
			step:    func(ctx context.Context, c *Cluster) error { return c.Rebalance(ctx) },
		},
		{
			prefix: "shrink-", shards: 4,
			next: func(t *testing.T, cur *Ring) *Ring {
				next, err := cur.Shrink()
				if err != nil {
					t.Fatal(err)
				}
				return next
			},
			prepare: func(*Cluster) error { return nil },
			step:    func(ctx context.Context, c *Cluster) error { return c.RemoveShard(ctx) },
		},
	}

	for _, d := range directions {
		// fixture is a seeded deployment about to take the step cur → next.
		type fixture struct {
			c         *Cluster
			cl        *Client
			cur, next *Ring
			moving    map[int][]string // source shard → keys the step moves
			all       []string
			// src is the source whose servers the scenario crashes. With
			// several sources contributing ranges (a grow), the
			// highest-numbered one is collected last, so a BeforeCollect
			// crash still exercises the abort of earlier sources' freezes.
			src int
		}
		setup := func(t *testing.T) *fixture {
			f := &fixture{c: startTestCluster(t, testOptions(d.shards)), src: -1}
			f.cl = testClient(t, f.c, "app")
			f.cur = f.c.CurrentRing()
			f.next = d.next(t, f.cur)
			var staying []string
			f.moving, staying = keysBetween(f.cur, f.next, "cr", 18)
			if len(f.moving) == 0 {
				t.Fatal("no moving keys found")
			}
			for s, keys := range f.moving {
				f.all = append(f.all, keys...)
				f.src = max(f.src, s)
			}
			f.all = append(f.all, staying...)
			for _, key := range f.all {
				if _, err := f.cl.Put(context.Background(), []byte(key), []byte("val-"+key)); err != nil {
					t.Fatal(err)
				}
			}
			if err := d.prepare(f.c); err != nil {
				t.Fatal(err)
			}
			return f
		}
		// readAll reads every seeded key through the routing client;
		// override names keys whose value a scenario rewrote.
		readAll := func(t *testing.T, f *fixture, override map[string]string) {
			t.Helper()
			for _, key := range f.all {
				want, ok := override[key]
				if !ok {
					want = "val-" + key
				}
				cctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				v, found, err := f.cl.Get(cctx, []byte(key))
				cancel()
				if err != nil || !found || string(v) != want {
					t.Fatalf("key %q: %v %v %q, want %q", key, err, found, v, want)
				}
			}
		}
		// stored reports whether shard s's live master holds key.
		stored := func(f *fixture, s int, key string) bool {
			_, _, ok := f.c.Part(s).Master.Store().Get([]byte(key))
			return ok
		}
		assertRing := func(t *testing.T, f *fixture, want *Ring, when string, err error) {
			t.Helper()
			if r := f.c.CurrentRing(); r.Shards() != want.Shards() || r.Epoch() != want.Epoch() {
				t.Fatalf("ring %s: %d shards epoch %d, want %d shards epoch %d (err=%v)",
					when, r.Shards(), r.Epoch(), want.Shards(), want.Epoch(), err)
			}
		}
		// assertOnTargets: every moved key lives on the shard next names.
		assertOnTargets := func(t *testing.T, f *fixture) {
			t.Helper()
			for _, keys := range f.moving {
				for _, key := range keys {
					if to := f.next.ShardString(key); !stored(f, to, key) {
						t.Fatalf("moved key %q missing on its target shard %d", key, to)
					}
				}
			}
		}

		t.Run(d.prefix+"abort-before-collect", func(t *testing.T) {
			f := setup(t)
			ctx := context.Background()
			f.c.Hooks.BeforeCollect = func(int) { f.c.CrashMaster(f.src) }
			err := d.step(ctx, f.c)
			if err == nil {
				t.Fatal("step succeeded despite a source crash before collect")
			}
			// The ring never flipped: the ranges stay with their sources.
			assertRing(t, f, f.cur, "after aborted step", err)
			if err := f.c.Recover(f.src, "master2"); err != nil {
				t.Fatalf("recover source: %v", err)
			}
			// Every key — including the crashed source's moving range — is
			// recovered at its ORIGINAL shard; the targets hold nothing of
			// the aborted moves.
			readAll(t, f, nil)
			for from, keys := range f.moving {
				for _, key := range keys {
					if !stored(f, from, key) {
						t.Fatalf("key %q missing on its source shard %d after aborted step", key, from)
					}
					if to := f.next.ShardString(key); stored(f, to, key) {
						t.Fatalf("target shard %d holds %q after aborted step", to, key)
					}
				}
			}
		})

		t.Run(d.prefix+"recover-during-step", func(t *testing.T) {
			// The nastiest interleaving: the source crashes mid-step and an
			// operator recovers it BEFORE the step commits. The coordinator's
			// freeze record (written before collect) keeps the replacement
			// master's ranges frozen, so it cannot accept writes that the
			// committing step would silently strand — no split-brain.
			f := setup(t)
			ctx := context.Background()
			f.c.Hooks.AfterCollect = func(int) {
				f.c.CrashMaster(f.src)
				if err := f.c.Recover(f.src, "master2"); err != nil {
					t.Errorf("recover source mid-step: %v", err)
				}
			}
			err := d.step(ctx, f.c)
			// The step commits regardless (its bundles were exported before
			// the crash); only the source-side cleanup may be left to
			// recovery.
			assertRing(t, f, f.next, "after mid-step recovery", err)
			// Every key is served correctly through the routing client, and
			// writes to moved keys land on the target, not the recovered
			// source.
			probe := f.moving[f.src][0]
			cctx, cancel := context.WithTimeout(ctx, 10*time.Second)
			if _, err := f.cl.Put(cctx, []byte(probe), []byte("post-recovery")); err != nil {
				t.Fatalf("put %q after mid-step recovery: %v", probe, err)
			}
			cancel()
			to := f.next.ShardString(probe)
			if v, _, ok := f.c.Part(to).Master.Store().Get([]byte(probe)); !ok || string(v) != "post-recovery" {
				t.Fatalf("post-recovery write landed off-target: %q ok=%v", v, ok)
			}
			readAll(t, f, map[string]string{probe: "post-recovery"})
		})

		t.Run(d.prefix+"commit-after-collect", func(t *testing.T) {
			f := setup(t)
			ctx := context.Background()
			// The source dies after exporting its ranges: collect already
			// drained them to its backups AND handed them to the driver, so
			// the migration commits; only the source's local cleanup is left
			// to its recovery.
			f.c.Hooks.AfterCollect = func(int) { f.c.CrashMaster(f.src) }
			err := d.step(ctx, f.c)
			assertRing(t, f, f.next, "after committed step", err)
			if err := f.c.Recover(f.src, "master2"); err != nil {
				t.Fatalf("recover source: %v", err)
			}
			// Exactly one side serves each moved key: the target's store has
			// it, the recovered source's does not (its recovery applied the
			// coordinator's moved-range record, dropping restored objects and
			// skipping witness replays for the range).
			assertOnTargets(t, f)
			for _, key := range f.moving[f.src] {
				if stored(f, f.src, key) {
					t.Fatalf("moved key %q resurrected on recovered source %d", key, f.src)
				}
			}
			readAll(t, f, nil)
		})

		t.Run(d.prefix+"fence-failure-parks-then-converges", func(t *testing.T) {
			// A source backup dies before it can be fenced: the handoff is
			// committed (moved records in place, sources dropped the ranges)
			// but must NOT be published — an unfenced backup would serve the
			// stale range after the flip. Once the backup is replaced, a
			// re-run converges from exactly the parked state.
			f := setup(t)
			ctx := context.Background()
			part := f.c.Part(f.src)
			dead := part.BackupServers()[0]
			f.c.Hooks.AfterCollect = func(int) { dead.Close() }
			err := d.step(ctx, f.c)
			if err == nil {
				t.Fatal("step succeeded with an unfenced source backup")
			}
			assertRing(t, f, f.cur, "after fence failure", err)
			assertOnTargets(t, f)

			f.c.Hooks.AfterCollect = nil
			fresh, err := part.SpareBackup(partitionMasterID)
			if err != nil {
				t.Fatal(err)
			}
			if err := part.Coord.ReplaceBackup(partitionMasterID, dead.Addr(), fresh); err != nil {
				t.Fatalf("replace the dead backup: %v", err)
			}
			if err := d.step(ctx, f.c); err != nil {
				t.Fatalf("re-run after backup replacement: %v", err)
			}
			assertRing(t, f, f.next, "after re-run", nil)
			assertOnTargets(t, f)
			readAll(t, f, nil)
		})
	}
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

// TestStepMovesSanity: a handoff step accepts exactly the rings one shard
// apart that the deployment can host, names the joining or leaving shard as
// the pivot, and every move it returns has the pivot at one end.
func TestStepMovesSanity(t *testing.T) {
	three := MustNewRing(3, 0)
	four := three.Grow()
	for _, tc := range []struct {
		name      string
		cur, next *Ring
		parts     int
		pivot     int // -1: rejected
	}{
		{"grow", three, four, 4, 3},
		{"shrink", four, three, 4, 3},
		{"grow without the partition", three, four, 3, -1},
		{"two shards at once", three, four.Grow(), 5, -1},
		{"no change", three, three, 3, -1},
	} {
		moves, pivot, err := stepMoves(tc.cur, tc.next, tc.parts)
		if tc.pivot < 0 {
			if err == nil {
				t.Errorf("%s: accepted, want an error", tc.name)
			}
			continue
		}
		if err != nil || pivot != tc.pivot || len(moves) == 0 {
			t.Errorf("%s: %d moves, pivot %d, err %v; want pivot %d", tc.name, len(moves), pivot, err, tc.pivot)
		}
		for _, m := range moves {
			if (m.From == pivot) == (m.To == pivot) {
				t.Errorf("%s: move %d→%d does not have pivot %d at exactly one end", tc.name, m.From, m.To, pivot)
			}
		}
	}
}
