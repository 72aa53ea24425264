package cluster

import (
	"context"
	"testing"
	"time"

	"curp/internal/transport"
)

// TestLateRecordAcrossRecoveryIsNotAccepted is the §3.2 durability rule
// ("a completed operation survives f failures") against a record RPC that
// outlives the master it was sent for. The client's record to witness1 is
// still in flight when the master — which already answered "ok, unsynced" —
// crashes and is recovered from witness1, which therefore never held the
// operation. The record then lands on the instance the coordinator started
// on the same server for the successor. Accepting it would give the client
// its f-th accept and complete, on the fast path, an operation recovery
// never replayed: acknowledged and gone. The instance is bound to the
// successor's witness-list version, so it turns the record away and the
// client retries against the new master.
func TestLateRecordAcrossRecoveryIsNotAccepted(t *testing.T) {
	nw := transport.NewMemNetwork(transport.LatencyFunc(func(from, to string, _ int) time.Duration {
		if from == "racer" && to == "witness1" {
			return 300 * time.Millisecond
		}
		return 0
	}))
	c, err := Start(nw, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	cl := testClient(t, c, "racer")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	done := make(chan error, 1)
	go func() {
		_, err := cl.Put(ctx, []byte("late"), []byte("v"))
		done <- err
	}()
	time.Sleep(80 * time.Millisecond) // master executed and replied; 2 of 3 records accepted
	c.CrashMaster()
	if _, err := c.Recover("master2"); err != nil {
		t.Fatal(err)
	}
	putErr := <-done

	v, ok, err := testClient(t, c, "reader").Get(ctx, []byte("late"))
	if err != nil {
		t.Fatal(err)
	}
	if putErr == nil && (!ok || string(v) != "v") {
		t.Fatalf("Put was acknowledged (stats %+v) but Get finds %q, %v: completed write lost", cl.Stats(), v, ok)
	}
	if n := c.WitnessServers()[0].misaddressed.Load(); n != 1 {
		t.Fatalf("witness1 turned away %d records, want the 1 late one", n)
	}
}
