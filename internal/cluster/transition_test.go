package cluster

import (
	"context"
	"sort"
	"testing"
	"time"

	"curp/internal/events"
	"curp/internal/health"
	"curp/internal/transport"
)

// These tests pin what a committed partition transition does on a
// coordinator replica BESIDES changing the configuration: freeze a deposed
// in-process master, journal the flip, re-key the health table.

// journalKinds returns how often each event kind appears in a journal.
func journalKinds(j *events.Journal) map[string]int {
	kinds := make(map[string]int)
	for _, ev := range j.Dump().Events {
		kinds[ev.Kind]++
	}
	return kinds
}

// TestDepositionFreezesLiveMasterAndRekeysHealth recovers a partition whose
// old master is still alive (a false-positive failover): the deposed master
// must be frozen by the time Recover returns — not at its next sync — and
// the health table must hold exactly the new membership.
func TestDepositionFreezesLiveMasterAndRekeysHealth(t *testing.T) {
	c, _ := startTestCluster(t, testOptions())
	cl := testClient(t, c, "transition-client")
	if _, err := cl.Put(context.Background(), []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	old := c.CurrentMaster()
	if old.State().Frozen() {
		t.Fatal("master frozen before any reconfiguration")
	}

	nm, err := c.Recover("master2")
	if err != nil {
		t.Fatal(err)
	}
	if !old.State().Frozen() {
		t.Fatal("deposed in-process master still serving after Recover returned")
	}
	kinds := journalKinds(c.Coord.Events())
	if kinds[events.KindZombieFenced] != 1 || kinds[events.KindEpochFlip] != 1 {
		t.Fatalf("journal kinds = %v, want one zombie-fenced and one epoch-flip", kinds)
	}

	view, err := c.Coord.View(1)
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]string{nm.Addr()}, view.BackupAddrs...), view.WitnessAddrs...)
	sort.Strings(want)
	var got []string
	for _, n := range c.Coord.HealthStatus().Nodes {
		got = append(got, n.Addr)
	}
	sort.Strings(got)
	if len(want) != 1+2*c.Opts.F {
		t.Fatalf("view lists %d nodes, want master + %d backups + %d witnesses", len(want), c.Opts.F, c.Opts.F)
	}
	if len(got) != len(want) {
		t.Fatalf("health table = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("health table = %v, want %v", got, want)
		}
	}
}

// TestWitnessReplacementKeepsBeatHistory replaces one witness of a
// heartbeating partition: the replaced address leaves the health table, the
// replacement joins it, and a witness present in both lists keeps its beat
// history (re-registering would hand it a fresh grace period).
func TestWitnessReplacementKeepsBeatHistory(t *testing.T) {
	nw := transport.NewMemNetwork(nil)
	var evlog eventLog
	c, err := Start(nw, healOptions(&evlog))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	view, err := c.Coord.View(1)
	if err != nil {
		t.Fatal(err)
	}
	replaced, kept := view.WitnessAddrs[0], view.WitnessAddrs[1]
	const settled = 30
	beatsOf := func(addr string) (uint64, bool) {
		for _, n := range c.Coord.HealthStatus().Nodes {
			if n.Addr == addr {
				return n.Beats, true
			}
		}
		return 0, false
	}
	waitFor(t, 10*time.Second, func() bool {
		b, _ := beatsOf(kept)
		return b >= settled
	}, "untouched witness to accumulate beats")

	spare, err := c.SpareWitness(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Coord.ReplaceWitness(1, replaced, spare); err != nil {
		t.Fatal(err)
	}
	if b, ok := beatsOf(kept); !ok || b < settled {
		t.Fatalf("untouched witness beats = %d (registered %v), want >= %d: history reset", b, ok, settled)
	}
	if _, ok := beatsOf(replaced); ok {
		t.Fatalf("replaced witness %s still in the health table", replaced)
	}
	found := false
	for _, n := range c.Coord.HealthStatus().Nodes {
		if n.Addr == spare {
			found = n.Role == health.RoleWitness && n.MasterID == 1
		}
	}
	if !found {
		t.Fatalf("replacement witness %s not registered as a witness of master 1", spare)
	}
	if kinds := journalKinds(c.Coord.Events()); kinds[events.KindWitnessListChange] != 1 {
		t.Fatalf("journal kinds = %v, want one witness-list-change", kinds)
	}
}

// TestTransitionEventsOnEveryReplica checks which replicas of a coordinator
// quorum journal a transition: epoch-flip and witness-list-change are
// functions of the committed log and appear everywhere; zombie-fenced needs
// the deposed master's in-process handle, which only the replica that
// registered it (rank 0) holds.
func TestTransitionEventsOnEveryReplica(t *testing.T) {
	opts := testOptions()
	opts.ControlPlaneReplicas = 3
	c, _ := startTestCluster(t, opts)

	if _, err := c.Recover("master2"); err != nil {
		t.Fatal(err)
	}
	view, err := c.Coord.View(1)
	if err != nil {
		t.Fatal(err)
	}
	spare, err := NewWitnessServer(c.Net, "witness-spare", opts.Witness)
	if err != nil {
		t.Fatal(err)
	}
	defer spare.Close()
	if err := c.Coord.ReplaceWitness(1, view.WitnessAddrs[0], spare.Addr()); err != nil {
		t.Fatal(err)
	}

	for i, co := range c.CoordReplicas {
		// Recovery bumps the witness-list version once, the replacement again.
		waitFor(t, 5*time.Second, func() bool {
			k := journalKinds(co.Events())
			return k[events.KindEpochFlip] == 1 && k[events.KindWitnessListChange] == 2
		}, "replica to journal the committed transitions")
		wantFenced := 0
		if i == 0 {
			wantFenced = 1
		}
		if got := journalKinds(co.Events())[events.KindZombieFenced]; got != wantFenced {
			t.Errorf("replica %d journaled %d zombie-fenced events, want %d", i, got, wantFenced)
		}
	}
}
