package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"curp/internal/controlplane"
	"curp/internal/core"
	"curp/internal/kv"
	"curp/internal/transport"
	"curp/internal/witness"
)

// quorumHealOptions returns a self-healing partition whose control plane
// is a 3-replica coordinator quorum, with election timing tuned for test
// speed (fast enough to fail over within a heartbeat-scale test, slow
// enough that the race detector's scheduling jitter does not trigger
// spurious elections).
func quorumHealOptions(events *eventLog) Options {
	opts := healOptions(events)
	opts.ControlPlaneReplicas = 3
	opts.ControlPlaneElectionTimeout = 40 * time.Millisecond
	return opts
}

// coordLeaderIndex returns the index of the replica holding the leader
// lease, or -1 during an election.
func coordLeaderIndex(c *Cluster) int {
	for i, co := range c.CoordReplicas {
		if co.HoldingLease() {
			return i
		}
	}
	return -1
}

// TestControlPlaneLinearizable is the acceptance test for the replicated
// control plane: mixed sync/pipelined/atomic-multi load runs while the
// master crashes AND the coordinator leader is killed during the ensuing
// failover. The surviving replicas must elect a new leader that completes
// (or safely retries) the heal with no dual-depose, clients must keep
// committing, and every completed operation must linearize.
func TestControlPlaneLinearizable(t *testing.T) {
	nw := transport.NewMemNetwork(nil)
	var events eventLog
	c, err := Start(nw, quorumHealOptions(&events))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const keys = 3
	type event struct {
		key int
		op  core.HistOp
	}
	var mu sync.Mutex
	var hevents []event
	clock := func() int64 { return time.Now().UnixNano() }

	var wg sync.WaitGroup
	// Sync load: concurrent registers whose completed ops feed the
	// linearizability checker (the TestLinearizabilityUnderCrash shape).
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl, err := c.NewClient(fmt.Sprintf("cp-lin-%d", g))
			if err != nil {
				t.Errorf("client %d: %v", g, err)
				return
			}
			defer cl.Close()
			for i := 1; i <= 12; i++ {
				time.Sleep(5 * time.Millisecond)
				key := (g + i) % keys
				keyB := []byte(fmt.Sprintf("cpreg-%d", key))
				cctx, ccancel := context.WithTimeout(ctx, 5*time.Second)
				if i%3 == 0 {
					start := clock()
					v, ok, err := cl.Get(cctx, keyB)
					end := clock()
					ccancel()
					if err != nil {
						continue // failed ops don't enter the history
					}
					val := ""
					if ok {
						val = string(v)
					}
					mu.Lock()
					hevents = append(hevents, event{key, core.HistOp{Start: start, End: end, Value: val}})
					mu.Unlock()
				} else {
					val := fmt.Sprintf("c%d-%d", g, i)
					start := clock()
					_, err := cl.Put(cctx, keyB, []byte(val))
					end := clock()
					ccancel()
					if err != nil {
						continue
					}
					mu.Lock()
					hevents = append(hevents, event{key, core.HistOp{Start: start, End: end, IsWrite: true, Value: val}})
					mu.Unlock()
				}
			}
		}(g)
	}

	// Pipelined load: batched puts whose completed futures must be
	// readable after the double failure.
	pipeOK := make(map[string]string)
	wg.Add(1)
	go func() {
		defer wg.Done()
		cl, err := c.NewClient("cp-pipe")
		if err != nil {
			t.Errorf("pipe client: %v", err)
			return
		}
		defer cl.Close()
		for i := 0; i < 10; i++ {
			time.Sleep(6 * time.Millisecond)
			p := cl.NewPipeline()
			type pending struct {
				key, val string
				fut      *kv.Future
			}
			var batch []pending
			for j := 0; j < 4; j++ {
				key := fmt.Sprintf("cp-pl-%d-%d", i, j)
				val := fmt.Sprintf("pv-%d-%d", i, j)
				batch = append(batch, pending{key, val, p.Put([]byte(key), []byte(val))})
			}
			cctx, ccancel := context.WithTimeout(ctx, 5*time.Second)
			if err := p.Flush(cctx); err != nil {
				ccancel()
				continue
			}
			for _, b := range batch {
				if _, err := b.fut.Result(cctx); err == nil {
					mu.Lock()
					pipeOK[b.key] = b.val
					mu.Unlock()
				}
			}
			ccancel()
		}
	}()

	// Atomic multi-op load: each MultiIncrement bumps both counters in
	// one atomic, exactly-once sub-operation — the two totals must stay
	// equal, and completed calls must all be counted.
	var incrAttempts, incrOK int
	wg.Add(1)
	go func() {
		defer wg.Done()
		cl, err := c.NewClient("cp-txn")
		if err != nil {
			t.Errorf("txn client: %v", err)
			return
		}
		defer cl.Close()
		for i := 0; i < 15; i++ {
			time.Sleep(4 * time.Millisecond)
			cctx, ccancel := context.WithTimeout(ctx, 5*time.Second)
			_, err := cl.MultiIncrement(cctx, []kv.IncrPair{
				{Key: []byte("cp-ctr-a"), Delta: 1},
				{Key: []byte("cp-ctr-b"), Delta: 1},
			})
			ccancel()
			mu.Lock()
			incrAttempts++
			if err == nil {
				incrOK++
			}
			mu.Unlock()
		}
	}()

	// The double failure: crash the master, wait until the detector has
	// latched it and the heal is (likely) in flight, then kill the
	// coordinator leader. The survivors must elect a new leader whose
	// heal loop finishes the failover.
	time.Sleep(15 * time.Millisecond)
	c.CrashMaster()
	time.Sleep(28 * time.Millisecond)
	leadIdx := coordLeaderIndex(c)
	if leadIdx < 0 {
		leadIdx = 0 // rank 0 seeds term 1; no election has happened yet
	}
	c.CrashCoordinator(leadIdx)

	wg.Wait()
	if err := c.WaitHealthy(ctx); err != nil {
		t.Fatalf("cluster did not heal after leader kill: %v", err)
	}
	if n := events.count(EventMasterFailover); n < 1 {
		t.Fatalf("no master failover event recorded")
	}
	lead := c.CoordinatorLeader()
	if lead == nil {
		t.Fatal("no coordinator leader after heal")
	}
	if lead == c.CoordReplicas[leadIdx] {
		t.Fatalf("crashed replica %d still reports the lease", leadIdx)
	}
	// Exactly one survivor holds the lease: a dual-depose is impossible
	// only if leadership is exclusive.
	if n := 0; true {
		for _, co := range c.CoordReplicas {
			if co.HoldingLease() {
				n++
			}
		}
		if n != 1 {
			t.Fatalf("%d replicas hold the leader lease, want 1", n)
		}
	}

	// Every per-key history linearizes (completed ops only; values from
	// timed-out writes that landed via witness replay get a synthetic
	// open-ended write, as in TestLinearizabilityUnderCrash).
	for k := 0; k < keys; k++ {
		var hist []core.HistOp
		writes := map[string]bool{"": true}
		var minStart int64
		for _, e := range hevents {
			if e.key != k {
				continue
			}
			hist = append(hist, e.op)
			if e.op.IsWrite {
				writes[e.op.Value] = true
			}
			if minStart == 0 || e.op.Start < minStart {
				minStart = e.op.Start
			}
		}
		for _, e := range hevents {
			if e.key == k && !e.op.IsWrite && !writes[e.op.Value] {
				hist = append(hist, core.HistOp{Start: minStart, End: int64(1) << 62, IsWrite: true, Value: e.op.Value})
				writes[e.op.Value] = true
			}
		}
		if len(hist) > 63 {
			t.Fatalf("history too long for checker (%d ops)", len(hist))
		}
		if !core.CheckLinearizable("", hist) {
			t.Fatalf("key %d history not linearizable (%d ops): %v", k, len(hist), hist)
		}
	}

	// Post-heal reads go through a fresh client (registered at whichever
	// replica answers — exercising replicated client registration).
	cl, err := c.NewClient("cp-after")
	if err != nil {
		t.Fatalf("post-heal client: %v", err)
	}
	defer cl.Close()

	// Exactly-once counters: completed MultiIncrements all landed; calls
	// that errored mid-crash may or may not have (their retries stopped),
	// so the total is bracketed — and the two counters moved in lockstep.
	a, err := cl.Increment(ctx, []byte("cp-ctr-a"), 0)
	if err != nil {
		t.Fatalf("read counter a: %v", err)
	}
	b, err := cl.Increment(ctx, []byte("cp-ctr-b"), 0)
	if err != nil {
		t.Fatalf("read counter b: %v", err)
	}
	if a != b {
		t.Fatalf("atomic pair diverged: a=%d b=%d", a, b)
	}
	if a < int64(incrOK) || a > int64(incrAttempts) {
		t.Fatalf("counter = %d, want between %d completed and %d attempted", a, incrOK, incrAttempts)
	}

	// Completed pipelined puts survived the failover.
	for key, val := range pipeOK {
		v, ok, err := cl.Get(ctx, []byte(key))
		if err != nil || !ok || string(v) != val {
			t.Fatalf("pipelined key %q after heal: %v %v %q (want %q)", key, err, ok, v, val)
		}
	}

	// Both survivors serve the same post-heal view from their mirrors of
	// the committed log (the one that never led included) — the replica
	// state machine, not the leader's memory, is authoritative.
	deadline := time.Now().Add(5 * time.Second)
	for {
		views := make([]*ViewInfo, 0, 2)
		for i, co := range c.CoordReplicas {
			if i == leadIdx {
				continue
			}
			v, err := FetchView(ctx, nw, "cp-check", co.Addr(), 1)
			if err == nil {
				views = append(views, v)
			}
		}
		if len(views) == 2 &&
			views[0].MasterAddr == views[1].MasterAddr &&
			views[0].WitnessListVersion == views[1].WitnessListVersion {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("survivor views did not converge: %+v", views)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestControlPlaneLeaderKillMidMigration drives migration bookkeeping
// (freeze / moved-arc / unfreeze proposals) through a FOLLOWER replica
// while the leader is killed mid-sequence: the follower forwards each
// proposal to whichever replica leads, so the operator-facing endpoint
// stays available across the election, and afterwards every survivor's
// mirror reports identical arcs.
func TestControlPlaneLeaderKillMidMigration(t *testing.T) {
	opts := testOptions()
	opts.ControlPlaneReplicas = 3
	opts.ControlPlaneElectionTimeout = 40 * time.Millisecond
	c, nw := startTestCluster(t, opts)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	leadIdx := coordLeaderIndex(c)
	if leadIdx < 0 {
		leadIdx = 0
	}
	follower := (leadIdx + 1) % len(c.CoordReplicas)
	md := &MigrationDriver{NW: nw, Self: "cp-migrator"}
	target := c.CoordReplicas[follower].Addr()

	const arcs = 12
	rng := func(i int) []witness.HashRange {
		lo := uint64(i) * 1000
		return []witness.HashRange{{Lo: lo, Hi: lo + 500}}
	}
	for i := 0; i < arcs; i++ {
		if i == arcs/2 {
			// Mid-migration leader kill: the remaining proposals must
			// commit through the new leader with no endpoint change.
			c.CrashCoordinator(leadIdx)
		}
		cctx, ccancel := context.WithTimeout(ctx, 20*time.Second)
		if err := md.AddFrozen(cctx, target, 1, rng(i)); err != nil {
			ccancel()
			t.Fatalf("AddFrozen %d: %v", i, err)
		}
		if err := md.AddMoved(cctx, target, 1, rng(i), "dest-master"); err != nil {
			ccancel()
			t.Fatalf("AddMoved %d: %v", i, err)
		}
		if err := md.DelFrozen(cctx, target, 1, rng(i)); err != nil {
			ccancel()
			t.Fatalf("DelFrozen %d: %v", i, err)
		}
		ccancel()
	}

	// Every surviving replica's mirror converges on all 12 committed
	// arcs — including the replica that neither served the RPCs nor led.
	deadline := time.Now().Add(5 * time.Second)
	for {
		agree := true
		for i, co := range c.CoordReplicas {
			if i == leadIdx {
				continue
			}
			if len(co.MovedRanges(1)) != arcs {
				agree = false
			}
		}
		if agree {
			break
		}
		if time.Now().After(deadline) {
			for i, co := range c.CoordReplicas {
				if i != leadIdx {
					t.Logf("replica %d: %d moved arcs", i, len(co.MovedRanges(1)))
				}
			}
			t.Fatal("survivors did not converge on the committed arcs")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The new leader is a survivor, and leadership stays exclusive.
	if lead := c.CoordinatorLeader(); lead == nil || lead == c.CoordReplicas[leadIdx] {
		t.Fatalf("leader after kill = %v", lead)
	}
}

// TestStaleVerdictSurvivesForwardHop races two reservations of the same
// recovery epoch through a 3-replica quorum. The log serializes them: one
// commits, the other applies as controlplane.ErrStale — the dual-depose
// fence — and the loser must see that verdict as ErrStale whether it asked
// the leader directly or a follower that forwarded it over OpCtrlPropose
// (where it once crossed as an error string and was recovered by matching
// the message text).
func TestStaleVerdictSurvivesForwardHop(t *testing.T) {
	opts := testOptions()
	opts.ControlPlaneReplicas = 3
	c, _ := startTestCluster(t, opts)
	lead := coordLeaderIndex(c)
	if lead < 0 {
		t.Fatal("no coordinator holds the lease")
	}
	leader, follower := c.CoordReplicas[lead], c.CoordReplicas[(lead+1)%3]
	// The follower must know its leader before it can forward.
	waitFor(t, 5*time.Second, func() bool {
		return follower.ControlPlaneStatus().LeaderAddr == leader.Addr()
	}, "follower to learn the leader")

	epoch := uint64(0) // AddMaster registered the partition at epoch 0
	for _, tc := range []struct {
		name          string
		winner, loser *Coordinator
	}{
		{"loser asks the leader", follower, leader},
		{"loser asks a follower", leader, follower},
		{"both ask a follower", follower, c.CoordReplicas[(lead+2)%3]},
	} {
		epoch++
		reserve := &controlplane.Command{
			Kind: controlplane.CmdBeginRecovery, Partition: 1, Epoch: epoch, Addr: "rival",
		}
		if got, err := tc.winner.propose(reserve); err != nil || got != epoch {
			t.Fatalf("%s: first reservation of epoch %d = (%d, %v)", tc.name, epoch, got, err)
		}
		_, err := tc.loser.propose(reserve)
		if !errors.Is(err, controlplane.ErrStale) {
			t.Fatalf("%s: second reservation of epoch %d: err = %v, want ErrStale", tc.name, epoch, err)
		}
	}
}
