package cluster

import (
	"context"
	"testing"
	"time"

	"curp/internal/events"
	"curp/internal/transport"
)

// TestFailoverEventTimeline is the flight recorder's end-to-end check:
// killing the master under self-healing with a replicated coordinator
// quorum must leave a single causally-ordered event chain in the healing
// leader's journal — detect → epoch-reserve → fence → restore → promote →
// recovered — with every staged event cross-linked to one failover trace.
// This is exactly what `curpctl events` renders after a drill.
func TestFailoverEventTimeline(t *testing.T) {
	nw := transport.NewMemNetwork(nil)
	var evlog eventLog
	opts := healOptions(&evlog)
	opts.ControlPlaneReplicas = 3
	c, err := Start(nw, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl, err := c.NewClient("timeline-client")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	if _, err := cl.Put(ctx, []byte("k"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	oldAddr := c.CurrentMaster().Addr()

	c.CrashMaster()

	if _, err := cl.Put(ctx, []byte("k2"), []byte("v2")); err != nil {
		t.Fatalf("write across automatic failover: %v", err)
	}
	if err := c.WaitHealthy(ctx); err != nil {
		t.Fatalf("cluster never healed: %v", err)
	}

	// The healing leader's journal carries the whole chain in exact
	// sequence order; scan the quorum for the journal that finished it.
	chain := []string{
		events.KindFailoverDetect,
		events.KindFailoverEpoch,
		events.KindFailoverFence,
		events.KindFailoverRestore,
		events.KindFailoverPromote,
		events.KindFailoverDone,
	}
	var timeline []events.Event
	for _, co := range c.CoordReplicas {
		d := co.Events().Dump()
		for _, ev := range d.Events {
			if ev.Kind == events.KindFailoverDone {
				timeline = d.Events
			}
		}
	}
	if timeline == nil {
		t.Fatal("no coordinator journal recorded failover-recovered")
	}
	next := 0
	var traceID string
	for _, ev := range timeline {
		if next < len(chain) && ev.Kind == chain[next] {
			next++
			// Every staged event after detect carries the failover trace.
			if ev.Kind != events.KindFailoverDetect {
				if ev.TraceID == "" {
					t.Errorf("%s event carries no trace cross-link", ev.Kind)
				} else if traceID == "" {
					traceID = ev.TraceID
				} else if ev.TraceID != traceID {
					t.Errorf("%s trace id %s != chain trace %s", ev.Kind, ev.TraceID, traceID)
				}
			}
		}
	}
	if next != len(chain) {
		var kinds []string
		for _, ev := range timeline {
			kinds = append(kinds, ev.Kind)
		}
		t.Fatalf("causal chain incomplete: matched %d/%d of %v in journal %v",
			next, len(chain), chain, kinds)
	}
	if traceID == "" {
		t.Fatal("no event carried a trace id")
	}

	// The detect event names the dead master, the promote the replacement.
	for _, ev := range timeline {
		switch ev.Kind {
		case events.KindFailoverDetect:
			if ev.OldAddr != oldAddr {
				t.Errorf("detect names %q, want dead master %q", ev.OldAddr, oldAddr)
			}
		case events.KindFailoverPromote:
			if ev.NewAddr != c.CurrentMaster().Addr() {
				t.Errorf("promote names %q, want replacement %q", ev.NewAddr, c.CurrentMaster().Addr())
			}
		}
	}

	// The view flip is mirrored into every replica's journal (leader and
	// followers alike), so `curpctl events` shows the epoch bump no matter
	// which endpoints survive.
	for i, co := range c.CoordReplicas {
		flips := 0
		for _, ev := range co.Events().Dump().Events {
			if ev.Kind == events.KindEpochFlip {
				flips++
			}
		}
		if flips == 0 {
			t.Errorf("coordinator replica %d mirrored no epoch-flip event", i)
		}
	}
}

// TestHotKeySketchFeedsFromUpdates: the master's /hotkeys sketch observes
// executed updates, so a skewed workload surfaces its hot key.
func TestHotKeySketchFeedsFromUpdates(t *testing.T) {
	nw := transport.NewMemNetwork(nil)
	c, err := Start(nw, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl, err := c.NewClient("hotkey-client")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	for i := 0; i < 50; i++ {
		if _, err := cl.Put(ctx, []byte("hot"), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Put(ctx, []byte{byte(i)}, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	d := c.CurrentMaster().HotKeys().Dump()
	if d.Total == 0 {
		t.Fatal("sketch observed nothing")
	}
	if len(d.Keys) == 0 || d.Keys[0].Count < 50 {
		t.Fatalf("hottest key count = %+v, want the hammered key with >= 50", d.Keys)
	}
}
