package cluster

import (
	"context"
	"testing"
	"time"

	"curp/internal/commute"
	"curp/internal/rifl"
	"curp/internal/rpc"
	"curp/internal/transport"
	"curp/internal/witness"
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

// TestRecordOnEndedInstanceIsNotAccepted is the schedule that stalls a
// record handler exactly between its two steps: handleRecord and
// handleRecordBatch fetch the instance under the server's lock, release
// it, and only then record. The test holds the fetched pointer across the
// recovery's OpWitnessRecoveryData and the coordinator's OpWitnessEnd —
// where a descheduled handler would be — and then records on it. An accept
// there is the client's f-th accept for a write recovery never replayed,
// held by an object nothing will ever read.
func TestRecordOnEndedInstanceIsNotAccepted(t *testing.T) {
	nw := transport.NewMemNetwork(nil)
	ws, err := NewWitnessServer(nw, "w1", witness.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	peer := rpc.NewPeer(nw, "driver", "w1")
	defer peer.Close()
	ctx := context.Background()
	call := func(op uint16, words ...uint64) {
		t.Helper()
		e := rpc.NewEncoder(8 * len(words))
		for _, w := range words {
			e.U64(w)
		}
		if _, err := peer.Call(ctx, op, e.Bytes()); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
	}
	call(OpWitnessStart, 1, 1)
	stalled := ws.Instance(1) // the handler's lookup
	call(OpWitnessRecoveryData, 1)
	call(OpWitnessEnd, 1)

	id := rifl.RPCID{Client: 7, Seq: 1}
	if res := stalled.Record(1, []uint64{42}, id, []byte("put k v"), commute.ClassWrite); res.Ok() {
		t.Fatalf("record on an ended instance = %v: accepted by an object no recovery reads", res)
	}
	batch := []witness.Record{{KeyHashes: []uint64{43}, ID: rifl.RPCID{Client: 7, Seq: 2}, Request: []byte("put j v")}}
	if res := stalled.RecordBatch(1, batch); res[0].Ok() {
		t.Fatalf("record batch on an ended instance = %v", res)
	}
	// The successor's instance on the same server is a different object and
	// serves normally.
	call(OpWitnessStart, 1, 2)
	if res := ws.Instance(1).Record(1, []uint64{42}, id, []byte("put k v"), commute.ClassWrite); !res.Ok() {
		t.Fatalf("record on the successor's instance = %v", res)
	}
}
