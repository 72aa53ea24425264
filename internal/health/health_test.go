package health

import (
	"testing"
	"time"
)

// fakeClock is a manually advanced time source.
type fakeClock struct{ t time.Time }

func (f *fakeClock) now() time.Time          { return f.t }
func (f *fakeClock) advance(d time.Duration) { f.t = f.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1000, 0)} }
func beat(role Role, addr string, id uint64) *Beat {
	return &Beat{Role: role, Addr: addr, MasterID: id}
}

func TestBeatRoundTrip(t *testing.T) {
	in := &Beat{
		Role: RoleMaster, Addr: "m1", MasterID: 7, Epoch: 3,
		HeadLSN: 100, Unsynced: 12, WitnessListVersion: 4, FlushThreshold: 17,
	}
	out, err := DecodeBeat(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if *out != *in {
		t.Fatalf("round trip: %+v != %+v", out, in)
	}
	if _, err := DecodeBeat([]byte{1, 2}); err == nil {
		t.Fatal("truncated beat decoded")
	}
}

func TestDetectorDeadline(t *testing.T) {
	clk := newFakeClock()
	tb := NewTable()
	tb.SetClock(clk.now)
	cfg := Config{Interval: 10 * time.Millisecond}.WithDefaults()
	if cfg.FailAfter != 80*time.Millisecond {
		t.Fatalf("default FailAfter = %v", cfg.FailAfter)
	}

	tb.Register(RoleMaster, "m1", 1)
	tb.Register(RoleWitness, "w1", 1)

	// A freshly registered node gets a full deadline of grace.
	clk.advance(cfg.FailAfter - time.Millisecond)
	if dead := tb.Dead(cfg); len(dead) != 0 {
		t.Fatalf("dead before deadline: %v", dead)
	}

	// m1 beats, w1 stays silent past the deadline.
	tb.Observe(beat(RoleMaster, "m1", 1))
	clk.advance(2 * time.Millisecond)
	dead := tb.Dead(cfg)
	if len(dead) != 1 || dead[0].Addr != "w1" || dead[0].Role != RoleWitness {
		t.Fatalf("dead = %v, want w1", dead)
	}
	if tb.AllAlive(cfg) {
		t.Fatal("AllAlive with a dead witness")
	}
	if !tb.Alive("m1", cfg) || tb.Alive("w1", cfg) {
		t.Fatal("per-node liveness wrong")
	}

	// Deferral suppresses the report, then expires.
	tb.Defer("w1", clk.now().Add(50*time.Millisecond))
	if dead := tb.Dead(cfg); len(dead) != 0 {
		t.Fatalf("deferred node reported: %v", dead)
	}
	clk.advance(51 * time.Millisecond)
	if dead := tb.Dead(cfg); len(dead) != 1 {
		t.Fatalf("deferral did not expire: %v", dead)
	}

	// Replacement: forget + register restarts the clock.
	tb.Forget("w1")
	tb.Register(RoleWitness, "w2", 1)
	tb.Observe(beat(RoleMaster, "m1", 1))
	if dead := tb.Dead(cfg); len(dead) != 0 {
		t.Fatalf("dead after replacement: %v", dead)
	}

	// Beats from unregistered addresses are dropped.
	tb.Observe(beat(RoleWitness, "w1", 1))
	if tb.Alive("w1", cfg) {
		t.Fatal("unregistered straggler resurrected itself")
	}
}

// TestDetectorJitterTolerance: a node whose beats historically arrive
// slower than the configured cadence gets a stretched deadline instead of
// being declared dead on schedule.
func TestDetectorJitterTolerance(t *testing.T) {
	clk := newFakeClock()
	tb := NewTable()
	tb.SetClock(clk.now)
	cfg := Config{Interval: 10 * time.Millisecond, FailAfter: 40 * time.Millisecond}

	tb.Register(RoleBackup, "b1", 1)
	// Beats every 30ms: EWMA converges near 30ms, so the adaptive
	// deadline (4× gap ≈ 120ms) exceeds the configured 40ms.
	for i := 0; i < 20; i++ {
		tb.Observe(beat(RoleBackup, "b1", 1))
		clk.advance(30 * time.Millisecond)
	}
	// 100ms of silence: past FailAfter, inside the stretched deadline.
	clk.advance(70 * time.Millisecond)
	if dead := tb.Dead(cfg); len(dead) != 0 {
		t.Fatalf("jitter-tolerant node declared dead: %v", dead)
	}
	// 130ms total silence: past 4× the observed gap too.
	clk.advance(60 * time.Millisecond)
	if dead := tb.Dead(cfg); len(dead) != 1 {
		t.Fatal("node never declared dead")
	}
}

func TestDeadHealOrder(t *testing.T) {
	clk := newFakeClock()
	tb := NewTable()
	tb.SetClock(clk.now)
	cfg := Config{Interval: time.Millisecond, FailAfter: time.Millisecond}
	tb.Register(RoleBackup, "b", 1)
	tb.Register(RoleMaster, "m", 1)
	tb.Register(RoleWitness, "w", 1)
	clk.advance(time.Second)
	dead := tb.Dead(cfg)
	if len(dead) != 3 || dead[0].Role != RoleMaster || dead[1].Role != RoleWitness || dead[2].Role != RoleBackup {
		t.Fatalf("heal order = %v", dead)
	}
}

func TestBeaterStops(t *testing.T) {
	stop := make(chan struct{})
	got := make(chan struct{}, 64)
	done := make(chan struct{})
	go func() {
		Beater(stop, time.Millisecond, func() { got <- struct{}{} })
		close(done)
	}()
	<-got // at least one beat
	close(stop)
	<-done
}

func TestSnapshotSorted(t *testing.T) {
	tb := NewTable()
	tb.Register(RoleWitness, "w1", 1)
	tb.Register(RoleMaster, "m1", 1)
	tb.Register(RoleBackup, "b1", 1)
	snap := tb.Snapshot(Config{}.WithDefaults())
	if len(snap) != 3 || snap[0].Role != RoleMaster || snap[1].Role != RoleBackup || snap[2].Role != RoleWitness {
		t.Fatalf("snapshot order = %v", snap)
	}
	if !snap[0].Alive {
		t.Fatal("fresh node not alive")
	}
}

// TestDeferralClearedByBeat: a node that comes back (beats again) drops
// its report deferral, so a LATER death is a new incident — reported and
// healed again instead of swallowed by the old incident's latch.
func TestDeferralClearedByBeat(t *testing.T) {
	clk := newFakeClock()
	tb := NewTable()
	tb.SetClock(clk.now)
	cfg := Config{Interval: 10 * time.Millisecond}.WithDefaults()

	tb.Register(RoleBackup, "b1", 1)
	clk.advance(cfg.FailAfter + time.Millisecond)
	if len(tb.Dead(cfg)) != 1 {
		t.Fatal("backup not declared dead")
	}
	tb.Defer("b1", clk.now().Add(365*24*time.Hour)) // the backup-down latch

	// The backup restarts and heartbeats; later it dies for good.
	tb.Observe(beat(RoleBackup, "b1", 1))
	clk.advance(cfg.FailAfter + time.Millisecond)
	if dead := tb.Dead(cfg); len(dead) != 1 {
		t.Fatalf("second death swallowed by stale deferral: %v", dead)
	}
}

func TestSetMembers(t *testing.T) {
	clk := newFakeClock()
	tb := NewTable()
	tb.SetClock(clk.now)
	cfg := Config{Interval: 10 * time.Millisecond}.WithDefaults()
	status := func(addr string) (NodeStatus, bool) {
		for _, n := range tb.Snapshot(cfg) {
			if n.Addr == addr {
				return n, true
			}
		}
		return NodeStatus{}, false
	}

	tb.SetMembers(1, map[string]Role{"m1": RoleMaster, "b1": RoleBackup, "w1": RoleWitness, "w2": RoleWitness})
	tb.SetMembers(2, map[string]Role{"m2": RoleMaster, "w9": RoleWitness})
	if n := len(tb.Snapshot(cfg)); n != 6 {
		t.Fatalf("table holds %d nodes, want 6", n)
	}
	for i := 0; i < 3; i++ {
		clk.advance(10 * time.Millisecond)
		tb.Observe(beat(RoleWitness, "w2", 1))
		tb.Observe(beat(RoleWitness, "w9", 2))
	}
	clk.advance(cfg.FailAfter - 5*time.Millisecond)

	// Partition 1 swaps w1 for w3 and fails over m1 -> m1b.
	tb.SetMembers(1, map[string]Role{"m1b": RoleMaster, "b1": RoleBackup, "w3": RoleWitness, "w2": RoleWitness})

	for _, gone := range []string{"m1", "w1"} {
		if _, ok := status(gone); ok {
			t.Errorf("departed member %s still watched", gone)
		}
	}
	// Present before and after: history untouched (beats, gap, age).
	if n, ok := status("w2"); !ok || n.Beats != 3 || n.MeanGap != 10*time.Millisecond || n.Age != cfg.FailAfter-5*time.Millisecond {
		t.Errorf("kept member w2 = %+v (watched %v), want 3 beats, 10ms gap, age preserved", n, ok)
	}
	// New members start a fresh grace period under the right role.
	for addr, role := range map[string]Role{"m1b": RoleMaster, "w3": RoleWitness} {
		if n, ok := status(addr); !ok || n.Role != role || n.MasterID != 1 || n.Beats != 0 || n.Age != 0 {
			t.Errorf("new member %s = %+v (watched %v), want fresh %v of master 1", addr, n, ok, role)
		}
	}
	// The other partition's nodes are not this call's business.
	if n, ok := status("w9"); !ok || n.MasterID != 2 || n.Beats != 3 {
		t.Errorf("partition 2's witness = %+v (watched %v), want untouched", n, ok)
	}
	if _, ok := status("m2"); !ok {
		t.Error("partition 2's master forgotten by partition 1's membership change")
	}

	// b1 never beat: its clock still runs from its FIRST registration, so
	// it dies on schedule instead of being re-graced by every change.
	tb.Observe(beat(RoleWitness, "w2", 1))
	tb.Observe(beat(RoleWitness, "w9", 2))
	clk.advance(10 * time.Millisecond)
	dead := tb.Dead(cfg)
	if len(dead) != 2 || dead[0].Addr != "m2" || dead[1].Addr != "b1" {
		t.Fatalf("dead = %v, want m2 then b1 (silent since first registration)", dead)
	}

	// An address taken over by another partition is re-registered for it.
	tb.SetMembers(2, map[string]Role{"m2": RoleMaster, "w9": RoleWitness, "w2": RoleWitness})
	if n, _ := status("w2"); n.MasterID != 2 || n.Beats != 0 {
		t.Errorf("w2 after partition 2 claimed it = %+v, want fresh under master 2", n)
	}
}
