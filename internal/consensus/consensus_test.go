package consensus

import (
	"context"
	"fmt"
	"testing"

	"curp/internal/commute"
	"curp/internal/core"
	"curp/internal/kv"
	"curp/internal/rifl"
	"curp/internal/witness"
)

var ctx = context.Background()

func newGroup(t testing.TB, f int) *Group {
	g := NewGroup(f)
	t.Cleanup(g.Close)
	return g
}

// impatient is a second client of g whose retry budget is three immediate
// attempts, for tests that expect an operation to fail.
func impatient(g *Group) *core.Client {
	return core.NewClient(rifl.NewSession(2), g, core.ClientConfig{MaxAttempts: 3, RetryBackoff: -1})
}

func put(key, val string) *kv.Command {
	return &kv.Command{Op: kv.OpPut, Key: []byte(key), Value: []byte(val)}
}

func incr(key string, delta int64) *kv.Command {
	return &kv.Command{Op: kv.OpIncrement, Key: []byte(key), Delta: delta}
}

func get(key string) *kv.Command { return &kv.Command{Op: kv.OpGet, Key: []byte(key)} }

func termOf(r *Replica) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.term
}

func mustUpdate(t *testing.T, g *Group, cmd *kv.Command) *kv.Result {
	t.Helper()
	res, err := g.Update(ctx, cmd)
	if err != nil {
		t.Fatalf("update %s: %v", cmd.Key, err)
	}
	return res
}

// wantValue reads key linearizably and requires it to hold want.
func wantValue(t *testing.T, g *Group, key, want string) {
	t.Helper()
	res, err := g.Read(ctx, get(key))
	if err != nil || !res.Found || string(res.Value) != want {
		t.Fatalf("read %s = %+v (err %v), want %q", key, res, err, want)
	}
}

func TestQuorumArithmetic(t *testing.T) {
	// §A.2: superquorum = f + ⌈f/2⌉ + 1 out of 2f+1.
	for _, tc := range []struct{ f, super, maj int }{
		{1, 3, 2}, // 3 replicas: all 3 witnesses for 1 RTT
		{2, 4, 3}, // 5 replicas: 4 witnesses
		{3, 6, 4}, // 7 replicas: 6 witnesses
	} {
		g := newGroup(t, tc.f)
		if g.Superquorum() != tc.super {
			t.Errorf("f=%d superquorum = %d, want %d", tc.f, g.Superquorum(), tc.super)
		}
		if g.Majority() != tc.maj {
			t.Errorf("f=%d majority = %d, want %d", tc.f, g.Majority(), tc.maj)
		}
		if len(g.replicas) != 2*tc.f+1 {
			t.Errorf("f=%d replicas = %d", tc.f, len(g.replicas))
		}
	}
}

func TestFastPathWithAllWitnesses(t *testing.T) {
	g := newGroup(t, 1)
	if res := mustUpdate(t, g, put("a", "1")); res.Version != 1 {
		t.Fatalf("update: %+v", res)
	}
	if st := g.Stats(); st.FastPath != 1 || st.CommitPath != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Speculative: the leader executed but nothing is committed yet.
	if g.Committed() != 0 {
		t.Fatal("fast path should not commit")
	}
}

func TestConflictCommitsBeforeReply(t *testing.T) {
	g := newGroup(t, 1)
	mustUpdate(t, g, put("k", "1"))
	// Same key again: non-commutative → commit path.
	mustUpdate(t, g, put("k", "2"))
	if st := g.Stats(); st.CommitPath != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if g.Committed() != 2 {
		t.Fatalf("commit = %d", g.Committed())
	}
	// The followers' state machines hold the committed entries.
	for i := 1; i < 3; i++ {
		v, _, ok := g.Replica(i).SM().Get([]byte("k"))
		if !ok || string(v) != "2" {
			t.Fatalf("replica %d sm: %q %v", i, v, ok)
		}
	}
}

func TestSubSuperquorumFallsBackToCommit(t *testing.T) {
	// With one witness down, only 2f of 2f+1 accept < superquorum (f=1 ⇒
	// need 3): the client must wait for commit.
	g := newGroup(t, 1)
	g.Replica(2).Down()
	mustUpdate(t, g, put("a", "1"))
	if st := g.Stats(); st.FastPath != 0 || st.CommitPath != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Majority (leader + 1 follower) suffices for commit.
	if g.Committed() != 1 {
		t.Fatalf("commit = %d", g.Committed())
	}
}

func TestCommitImpossibleWithoutMajority(t *testing.T) {
	g := newGroup(t, 1)
	g.Replica(1).Down()
	g.Replica(2).Down()
	// Witness superquorum is impossible AND commit quorum is impossible.
	if _, err := impatient(g).Update(ctx, put("a", "1").KeyHashes(), put("a", "1").Encode(), commute.ClassWrite); err == nil {
		t.Fatal("update should fail without majority")
	}
	if g.Committed() != 0 {
		t.Fatalf("commit = %d without a majority", g.Committed())
	}
}

func TestLeaderChangeRecoversFastPathWrites(t *testing.T) {
	// Writes completed via superquorum (never committed) must survive a
	// leadership change: the new leader replays them from witnesses.
	g := newGroup(t, 1)
	for i := 1; i <= 5; i++ {
		mustUpdate(t, g, put(fmt.Sprintf("key%d", i), fmt.Sprintf("v%d", i)))
	}
	if st := g.Stats(); st.FastPath != 5 || g.Committed() != 0 {
		t.Fatalf("stats = %+v, commit = %d", st, g.Committed())
	}
	// Old leader crashes before replicating anything.
	g.Replica(0).Down()
	if err := g.ChangeLeader(1); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		wantValue(t, g, fmt.Sprintf("key%d", i), fmt.Sprintf("v%d", i))
	}
	if g.Leader() != g.Replica(1) {
		t.Fatal("leadership did not move")
	}
}

func TestLeaderChangeExactlyOnce(t *testing.T) {
	// An increment that is BOTH in the committed log and still in witnesses
	// must not be applied twice by a leadership change.
	g := newGroup(t, 1)
	mustUpdate(t, g, incr("c", 5))
	late := g.Replica(0).Witness().SnapshotRecords()
	wantValue(t, g, "c", "5") // commits the increment and collects its records
	// ...which arrive only now, after the gc, as a slow client's might.
	for i := 0; i < 3; i++ {
		if res := g.Replica(i).Witness().RecordBatch(termOf(g.Leader()), late); len(late) != 1 || !res[0].Ok() {
			t.Fatalf("replica %d: late records %v = %v", i, late, res)
		}
	}
	// A second increment commutes with it; which path it takes is not the
	// point, the counter after the change is.
	mustUpdate(t, g, incr("c", 1))
	if err := g.ChangeLeader(1); err != nil {
		t.Fatal(err)
	}
	wantValue(t, g, "c", "6")
}

func TestStaleTermRecordRejected(t *testing.T) {
	// §A.2: records tagged with an old term are rejected, so clients of a
	// deposed leader cannot complete operations.
	g := newGroup(t, 1)
	oldTerm := termOf(g.Leader())
	oldView, _ := g.View(ctx, false)
	oldWitnesses := []*witness.Witness{g.Replica(0).Witness(), g.Replica(1).Witness(), g.Replica(2).Witness()}
	if err := g.ChangeLeader(1); err != nil {
		t.Fatal(err)
	}
	// Collecting froze the old term's witnesses for good, and the new term's
	// are other objects: a record that was on its way to an old one when the
	// change happened is not accepted, not even by an orphan.
	for i, w := range oldWitnesses {
		late := w.Record(oldTerm, []uint64{2}, rifl.RPCID{Client: 9, Seq: 9}, []byte("late"), commute.ClassWrite)
		if !w.InRecovery() || late.Ok() || w == g.Replica(i).Witness() {
			t.Fatalf("replica %d: old witness frozen=%v, late record %v, reused=%v", i, w.InRecovery(), late, w == g.Replica(i).Witness())
		}
	}
	rec := func(seq uint64) []witness.Record {
		return []witness.Record{{KeyHashes: []uint64{1}, ID: rifl.RPCID{Client: 9, Seq: rifl.Seq(seq)}, Request: []byte("x")}}
	}
	for i := 0; i < 3; i++ {
		if res := g.Replica(i).Witness().RecordBatch(oldTerm, rec(1)); res[0] != witness.RejectedWrongMaster {
			t.Fatalf("replica %d answered a stale-term record %v", i, res[0])
		}
	}
	// The rejection is the witness's own master check: its ID is the term.
	newTerm := termOf(g.Leader())
	if newTerm == oldTerm || g.Replica(1).Witness().MasterID() != newTerm {
		t.Fatalf("term %d -> %d, witness serves %d", oldTerm, newTerm, g.Replica(1).Witness().MasterID())
	}
	// Current-term records are accepted again.
	if res := g.Replica(1).Witness().RecordBatch(newTerm, rec(2)); res[0] != witness.Accepted {
		t.Fatalf("fresh record = %v", res[0])
	}
	// A client stuck on the deposed leader's view completes nothing: the
	// frozen engine bounces it. One that refetches the view goes on.
	stuck := core.NewClient(rifl.NewSession(3), core.StaticView{V: oldView}, core.ClientConfig{MaxAttempts: 3, RetryBackoff: -1})
	if _, err := stuck.Update(ctx, put("after", "lost").KeyHashes(), put("after", "lost").Encode(), commute.ClassWrite); err == nil {
		t.Fatal("update through the deposed leader completed")
	}
	mustUpdate(t, g, put("after", "v"))
	wantValue(t, g, "after", "v")
}

func TestReadBlocksOnUncommittedKey(t *testing.T) {
	g := newGroup(t, 1)
	mustUpdate(t, g, put("k", "v"))
	if g.Committed() != 0 {
		t.Fatal("setup: write should be uncommitted")
	}
	wantValue(t, g, "k", "v")
	// The read forced a commit.
	if g.Committed() != 1 {
		t.Fatalf("commit = %d after read", g.Committed())
	}
}

func TestDuplicateClientRetry(t *testing.T) {
	g := newGroup(t, 1)
	cmd := incr("c", 3)
	id := g.client.Session().NextID()
	for attempt := 0; attempt < 2; attempt++ {
		// The retry carries the same RIFL ID: saved result, no re-execution.
		out, err := g.client.UpdateWithIDAsync(ctx, id, cmd.KeyHashes(), cmd.Encode()).Wait(ctx)
		if err != nil {
			t.Fatalf("attempt %d: %v", attempt, err)
		}
		if res, err := kv.DecodeResult(out); err != nil || string(res.Value) != "3" {
			t.Fatalf("attempt %d: %v %+v", attempt, err, res)
		}
	}
	wantValue(t, g, "c", "3")
}

func TestElectionNeedsMajority(t *testing.T) {
	g := newGroup(t, 1)
	g.Replica(0).Down()
	g.Replica(2).Down()
	if err := g.ChangeLeader(1); err == nil {
		t.Fatal("election without majority should fail")
	}
	g.Replica(2).Up()
	if err := g.ChangeLeader(1); err != nil {
		t.Fatalf("election with majority: %v", err)
	}
}

func TestLeaderChangeWithLargerGroup(t *testing.T) {
	// f=2 (5 replicas, superquorum 4): down one replica → 4 acceptances
	// still make the fast path; then recover via leadership change with
	// two replicas down.
	g := newGroup(t, 2)
	g.Replica(4).Down()
	for i := 1; i <= 4; i++ {
		mustUpdate(t, g, put(fmt.Sprintf("k%d", i), "v"))
	}
	if st := g.Stats(); st.FastPath != 4 {
		t.Fatalf("stats = %+v", st)
	}
	g.Replica(0).Down() // leader crashes too: 3 of 5 alive = majority
	if err := g.ChangeLeader(2); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		wantValue(t, g, fmt.Sprintf("k%d", i), "v")
	}
}

func TestUpdateOnDownLeaderFails(t *testing.T) {
	g := newGroup(t, 1)
	g.Replica(0).Down()
	cl := impatient(g)
	if _, err := cl.Update(ctx, put("a", "1").KeyHashes(), put("a", "1").Encode(), commute.ClassWrite); err == nil {
		t.Fatal("update on downed leader should fail")
	}
	if _, err := cl.Read(ctx, get("a").KeyHashes(), get("a").Encode()); err == nil {
		t.Fatal("read on downed leader should fail")
	}
}

func TestExecutionErrorRollsBack(t *testing.T) {
	g := newGroup(t, 1)
	mustUpdate(t, g, put("s", "abc"))
	if _, err := g.Update(ctx, incr("s", 1)); err == nil {
		t.Fatal("increment of string should fail")
	}
	// The failed command must not linger in the log.
	if n := g.Leader().SM().Head(); n != 1 {
		t.Fatalf("log length = %d, want 1", n)
	}
}

func TestOperationContinuesAfterLeaderChange(t *testing.T) {
	// The group keeps serving 1-RTT updates under the new leader, and a
	// second leadership change still recovers everything.
	g := newGroup(t, 1)
	for i := 1; i <= 3; i++ {
		mustUpdate(t, g, put(fmt.Sprintf("a%d", i), "v"))
	}
	if err := g.ChangeLeader(1); err != nil {
		t.Fatal(err)
	}
	// New writes (new term) fast-path against the new witnesses.
	before := g.Stats().FastPath
	for i := 4; i <= 6; i++ {
		mustUpdate(t, g, put(fmt.Sprintf("a%d", i), "v"))
	}
	if g.Stats().FastPath != before+3 {
		t.Fatalf("stats = %+v", g.Stats())
	}
	if err := g.ChangeLeader(2); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 6; i++ {
		wantValue(t, g, fmt.Sprintf("a%d", i), "v")
	}
}

func TestDivergedLogIsReplaced(t *testing.T) {
	// More than f replicas down costs availability, never safety: a leader
	// cut off from its followers keeps uncommitted entries in its own log,
	// and when it returns as a follower that log — which diverges from the
	// new leader's at the same positions — is replaced, not extended.
	g := newGroup(t, 1)
	mustUpdate(t, g, put("a", "1")) // completes on the fast path, uncommitted
	g.Replica(1).Down()
	g.Replica(2).Down()
	// An update whose records reach no witness (sent to the leader alone, so
	// that no late record can revive it) and whose commit fails.
	old := g.leader.Load()
	b := put("b", "never-acknowledged")
	req := &core.Request{ID: rifl.RPCID{Client: 7, Seq: 1}, WitnessListVersion: old.term, KeyHashes: b.KeyHashes(), Payload: b.Encode()}
	if replies, _ := old.view.Master.UpdateBatch(ctx, []*core.Request{req}); replies[0].Status != core.StatusOK || replies[0].Synced {
		t.Fatalf("setup: speculative update = %+v", replies[0])
	}
	if err := old.view.Master.Sync(ctx); err == nil {
		t.Fatal("commit without a majority succeeded")
	}
	if head := g.Replica(0).SM().Head(); head != 2 {
		t.Fatalf("setup: the cut-off leader's own log holds %d entries, want a and b", head)
	}
	g.Replica(0).Down()
	g.Replica(1).Up()
	g.Replica(2).Up()
	if err := g.ChangeLeader(1); err != nil {
		t.Fatal(err)
	}
	wantValue(t, g, "a", "1") // recovered from the followers' witnesses
	mustUpdate(t, g, put("c", "3"))
	g.Replica(0).Up()
	// The term fence: the deposed leader's pending commit reaches nobody.
	if _, _, err := old.Flush(ctx, 0); err == nil {
		t.Fatal("deposed leader committed")
	}
	mustUpdate(t, g, put("c", "4")) // conflicts: commits, which reaches replica 0
	sm := g.Replica(0).SM()
	if v, _, ok := sm.Get([]byte("c")); !ok || string(v) != "4" {
		t.Fatalf("returned replica: c = %q, %v", v, ok)
	}
	if v, _, ok := sm.Get([]byte("b")); ok {
		t.Fatalf("returned replica kept its uncommitted, never-acknowledged b = %q", v)
	}
	// And it is electable: its log is the new leader's, not its old one.
	g.Replica(1).Down()
	if err := g.ChangeLeader(0); err != nil {
		t.Fatal(err)
	}
	wantValue(t, g, "a", "1")
	wantValue(t, g, "c", "4")
	if res, err := g.Read(ctx, get("b")); err != nil || res.Found {
		t.Fatalf("b = %+v (err %v) after the diverged replica took over", res, err)
	}
}

func TestSuperquorumArithmeticProperty(t *testing.T) {
	// §A.2's guarantee needs: any f+1 quorum of witnesses intersects a
	// superquorum in at least ⌈f/2⌉+1 witnesses, and two non-commutative
	// requests cannot both reach that threshold within one quorum.
	for f := 1; f <= 6; f++ {
		n := 2*f + 1
		super := SuperquorumSize(f)
		quorum := QuorumSize(n)
		threshold := (f+1)/2 + 1
		// Worst-case intersection of a superquorum with any quorum.
		worst := super + quorum - n
		if worst < threshold {
			t.Errorf("f=%d: superquorum %d ∩ quorum %d ≥ %d < threshold %d",
				f, super, quorum, worst, threshold)
		}
		// Two conflicting requests: each witness accepts at most one, so
		// within any f+1 witnesses the two acceptance counts sum to ≤ f+1;
		// both reaching the threshold would need 2·threshold ≤ f+1, which
		// must be impossible.
		if 2*threshold <= quorum {
			t.Errorf("f=%d: two conflicting requests could both meet the replay threshold", f)
		}
	}
}

// The three tests below pin what consensus mode gets from the shared engine
// and client, and lost when it carried its own copies of them.

func TestFastPathSurvivesRewrites(t *testing.T) {
	// The engine collects witness records after every commit, so a key is
	// 1-RTT again as soon as its last write is committed — not once per term.
	g := newGroup(t, 1)
	for pass := 1; pass <= 3; pass++ {
		for k := 0; k < 5; k++ {
			mustUpdate(t, g, put(fmt.Sprintf("key%d", k), fmt.Sprintf("v%d", pass)))
		}
		for k := 0; k < 5; k++ {
			// The first read commits the pass and collects its records.
			wantValue(t, g, fmt.Sprintf("key%d", k), fmt.Sprintf("v%d", pass))
		}
	}
	if st := g.Stats(); st.FastPath != 15 || st.CommitPath != 0 {
		t.Fatalf("stats = %+v, want all 15 writes on the fast path", st)
	}
	for i := 0; i < 3; i++ {
		if n := g.Replica(i).Witness().Len(); n != 0 {
			t.Fatalf("replica %d's witness still holds %d records", i, n)
		}
	}
}

func TestPipelinedCounterBatch(t *testing.T) {
	// One pipelined batch of 32 increments of one counter: they commute, so
	// the leader executes them all speculatively; the first Ways of them fit
	// the key's witness set and complete in 1 RTT, one sync covers the rest.
	g := newGroup(t, 1)
	ops := make([]core.BatchOp, 32)
	for i := range ops {
		cmd := incr("hot", 1)
		ops[i] = core.BatchOp{KeyHashes: cmd.KeyHashes(), Payload: cmd.Encode(), Class: cmd.Class()}
	}
	for i, fut := range g.client.UpdateBatchAsync(ctx, ops) {
		if _, err := fut.Wait(ctx); err != nil {
			t.Fatalf("increment %d: %v", i, err)
		}
	}
	if st := g.Stats(); st.FastPath < 1 || st.FastPath+st.CommitPath != 32 {
		t.Fatalf("stats = %+v", st)
	}
	g.Replica(0).Down()
	if err := g.ChangeLeader(2); err != nil {
		t.Fatal(err)
	}
	wantValue(t, g, "hot", "32")
}

func BenchmarkConsensusCURPFastPath(b *testing.B) {
	g := newGroup(b, 1)
	for i := 0; i < b.N; i++ {
		// No manual commits: the engine's batch syncer keeps the witnesses
		// and the uncommitted suffix bounded, as in primary-backup mode.
		if _, err := g.Update(ctx, put(fmt.Sprintf("key%d", i), "v")); err != nil {
			b.Fatal(err)
		}
	}
}
