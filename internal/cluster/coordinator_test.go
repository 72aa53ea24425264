package cluster

import (
	"context"
	"testing"
	"time"

	"curp/internal/controlplane"
	"curp/internal/rpc"
	"curp/internal/transport"
)

func TestCoordinatorViewAndErrors(t *testing.T) {
	c, _ := startTestCluster(t, testOptions())
	v, err := c.Coord.View(1)
	if err != nil {
		t.Fatal(err)
	}
	if v.MasterID != 1 || v.MasterAddr != "master1" || v.WitnessListVersion != 1 {
		t.Fatalf("view = %+v", v)
	}
	if len(v.WitnessAddrs) != 3 || len(v.BackupAddrs) != 3 {
		t.Fatalf("view lists = %d/%d", len(v.WitnessAddrs), len(v.BackupAddrs))
	}
	if _, err := c.Coord.View(99); err == nil {
		t.Fatal("unknown master accepted")
	}
	// RPC path for unknown master errors too.
	p := rpc.NewPeer(c.Net, "probe", c.Coord.Addr())
	defer p.Close()
	e := rpc.NewEncoder(8)
	e.U64(99)
	if _, err := p.Call(context.Background(), OpGetView, e.Bytes()); err == nil {
		t.Fatal("unknown master via RPC accepted")
	}
}

func TestReplaceWitnessErrors(t *testing.T) {
	c, _ := startTestCluster(t, testOptions())
	if err := c.Coord.ReplaceWitness(99, "a", "b"); err == nil {
		t.Fatal("unknown master accepted")
	}
	if err := c.Coord.ReplaceWitness(1, "not-a-witness", "b"); err == nil {
		t.Fatal("unknown witness accepted")
	}
	// Replacement with an unreachable new witness fails cleanly.
	if err := c.Coord.ReplaceWitness(1, c.Witnesses[0].Addr(), "ghost-witness"); err == nil {
		t.Fatal("unreachable replacement accepted")
	}
	// The original configuration still works.
	cl := testClient(t, c, "client1")
	if _, err := cl.Put(context.Background(), []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
}

func TestRenewLeaseRPC(t *testing.T) {
	c, _ := startTestCluster(t, testOptions())
	cl := testClient(t, c, "client1")
	p := rpc.NewPeer(c.Net, "client1", c.Coord.Addr())
	defer p.Close()
	e := rpc.NewEncoder(8)
	e.U64(uint64(cl.Session().ClientID()))
	if _, err := p.Call(context.Background(), OpRenewLease, e.Bytes()); err != nil {
		t.Fatalf("renew live lease: %v", err)
	}
	// Renewing a never-issued lease fails.
	e2 := rpc.NewEncoder(8)
	e2.U64(424242)
	if _, err := p.Call(context.Background(), OpRenewLease, e2.Bytes()); err == nil {
		t.Fatal("renewed unknown lease")
	}
}

func TestExpireStaleLeasesEndToEnd(t *testing.T) {
	// Short TTL: registered clients expire quickly; the coordinator sweep
	// must sync masters before dropping records (§4.8), and expired
	// clients are then ignored.
	nw := transport.NewMemNetwork(nil)
	opts := testOptions()
	opts.LeaseTTL = 30 * time.Millisecond
	opts.Master.Core.SyncBatchSize = 1000
	c, err := Start(nw, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl, err := c.NewClient("mortal")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	if _, err := cl.Put(ctx, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if c.Backups[0].SyncedLSN(1) != 0 {
		t.Fatal("write should be unsynced before expiry")
	}
	time.Sleep(40 * time.Millisecond)
	if err := c.Coord.ExpireStaleLeases(); err != nil {
		t.Fatal(err)
	}
	// The sweep synced the master first (§4.8 ordering), then the expiry's
	// own log marker.
	if got := c.Backups[0].SyncedLSN(1); got != 2 {
		t.Fatalf("backup synced to %d after the sweep, want the write and the expiry marker", got)
	}
	// The expired client's new updates are ignored by the master.
	if _, err := cl.Put(ctx, []byte("k2"), []byte("v2")); err == nil {
		t.Fatal("expired client's update accepted")
	}
	// A sweep with nothing to do is a no-op.
	if err := c.Coord.ExpireStaleLeases(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverMasterErrors(t *testing.T) {
	c, _ := startTestCluster(t, testOptions())
	if _, err := c.Coord.RecoverMaster(99, "x", nil, c.Opts.Master); err == nil {
		t.Fatal("unknown master accepted")
	}
	// Recovery onto an address that is already taken fails cleanly.
	if _, err := c.Coord.RecoverMaster(1, c.Master.Addr(), nil, c.Opts.Master); err == nil {
		t.Fatal("address collision accepted")
	}
}

func TestMigrateErrors(t *testing.T) {
	c, _ := startTestCluster(t, testOptions())
	if _, err := c.Coord.Migrate(99, "x", nil, c.Opts.Master); err == nil {
		t.Fatal("unknown master accepted")
	}
}

// TestOversizedCountDoesNotKillCoordinator sends control-plane payloads
// whose witness-count field claims 2^31-1 strings in a one-byte remainder.
// The count used to size an allocation straight off the wire, killing the
// process with an out-of-memory fault; it must be a decode error, and the
// coordinator must keep serving.
func TestOversizedCountDoesNotKillCoordinator(t *testing.T) {
	nw := transport.NewMemNetwork(nil)
	coord, err := NewCoordinator(nw, "coord", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// A 34-byte command: kind, partition, epoch, wlv, empty addr, then the
	// hostile witness count and one trailing byte.
	e := rpc.NewEncoder(34)
	e.U8(uint8(controlplane.CmdSetWitnessList))
	e.U64(1)
	e.U64(0)
	e.U64(2)
	e.String("")
	e.U32(0x7fffffff)
	e.U8(0)
	cmd := e.Bytes()
	// The same command as the single entry of a replication round.
	a := rpc.NewEncoder(80)
	a.U64(1)       // term
	a.U64(0)       // leader rank
	a.String("")   // leader addr
	a.U64(0)       // commit
	a.U32(1)       // entries
	a.U64(1)       // entry term
	a.Bytes32(cmd) // entry command
	p := rpc.NewPeer(nw, "attacker", coord.Addr())
	defer p.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for op, payload := range map[uint16][]byte{OpCtrlPropose: cmd, OpCtrlAppend: a.Bytes()} {
		if _, err := p.Call(ctx, op, payload); err == nil {
			t.Fatalf("op %d accepted a count of 2^31-1 in a %d-byte payload", op, len(payload))
		}
	}

	// Still alive: registers a partition and serves its view over the wire.
	b, err := NewBackupServer(nw, "b1")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	w, err := NewWitnessServer(nw, "w1", testOptions().Witness)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	m, err := NewMasterServer(nw, 1, "m1", 0, DefaultMasterOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := coord.AddMaster(m, []string{b.Addr()}, []string{w.Addr()}); err != nil {
		t.Fatal(err)
	}
	q := rpc.NewEncoder(8)
	q.U64(1)
	out, err := p.Call(ctx, OpGetView, q.Bytes())
	if err != nil {
		t.Fatalf("coordinator stopped answering OpGetView: %v", err)
	}
	if v, err := decodeViewInfo(out); err != nil || v.MasterAddr != "m1" {
		t.Fatalf("view after hostile payloads = %+v, %v", v, err)
	}
}
