package cluster

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"curp/internal/core"
	"curp/internal/events"
	"curp/internal/kv"
	"curp/internal/rifl"
	"curp/internal/rpc"
	"curp/internal/transport"
	"curp/internal/witness"
)

// TestLinearizabilityUnderCrash drives concurrent writers and readers on a
// small key space while the master crashes and recovers, then checks every
// per-key history against an atomic register model — the end-to-end form
// of the paper's §3.4 linearizability argument.
func TestLinearizabilityUnderCrash(t *testing.T) {
	opts := testOptions()
	opts.Master.Core.SyncBatchSize = 4
	c, _ := startTestCluster(t, opts)
	ctx := context.Background()

	const keys = 3
	const clients = 4
	type event struct {
		key int
		op  core.HistOp
	}
	var mu sync.Mutex
	var events []event
	clock := func() int64 { return time.Now().UnixNano() }

	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl := testClient(t, c, fmt.Sprintf("lin-%d", g))
			// Bounded op count keeps per-key histories within the
			// checker's reach; sleeps spread them across the crash.
			for i := 1; i <= 12; i++ {
				time.Sleep(4 * time.Millisecond)
				key := (g + i) % keys
				keyB := []byte(fmt.Sprintf("reg-%d", key))
				cctx, cancel := context.WithTimeout(ctx, 3*time.Second)
				if i%3 == 0 { // read
					start := clock()
					v, ok, err := cl.Get(cctx, keyB)
					end := clock()
					cancel()
					if err != nil {
						continue // failed ops don't enter the history
					}
					val := ""
					if ok {
						val = string(v)
					}
					mu.Lock()
					events = append(events, event{key, core.HistOp{Start: start, End: end, Value: val}})
					mu.Unlock()
				} else { // write a unique value
					val := fmt.Sprintf("c%d-%d", g, i)
					start := clock()
					_, err := cl.Put(cctx, keyB, []byte(val))
					end := clock()
					cancel()
					if err != nil {
						continue
					}
					mu.Lock()
					events = append(events, event{key, core.HistOp{Start: start, End: end, IsWrite: true, Value: val}})
					mu.Unlock()
				}
			}
		}(g)
	}
	time.Sleep(20 * time.Millisecond)
	c.CrashMaster()
	if _, err := c.Recover("master2"); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	// Check each key's history. Failed (uncompleted) ops were dropped,
	// which only weakens the check — completed ops carry the guarantee.
	// A crashed-but-recovered write could make a read see a value whose
	// write "failed"; such values are legal linearizations of the
	// *invocation*, so add a synthetic open-ended write for any read value
	// not in the completed-write set.
	for k := 0; k < keys; k++ {
		var hist []core.HistOp
		writes := map[string]bool{"": true}
		var minStart int64
		for _, e := range events {
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
		for _, e := range events {
			if e.key == k && !e.op.IsWrite && !writes[e.op.Value] {
				// Value from a timed-out write that landed via witness
				// replay: its invocation spans the whole run.
				hist = append(hist, core.HistOp{Start: minStart, End: int64(1) << 62, IsWrite: true, Value: e.op.Value})
				writes[e.op.Value] = true
			}
		}
		if len(hist) > 63 {
			t.Fatalf("history too long for checker (%d ops); reduce op count", len(hist))
		}
		if !core.CheckLinearizable("", hist) {
			t.Fatalf("key %d history not linearizable (%d ops): %v", k, len(hist), hist)
		}
	}
}

// TestOrphanedWitnessRecordGC exercises the §4.5 uncollected-garbage path
// end to end: a client records an update on the witnesses but crashes
// before the master executes it. After StaleGCThreshold gc passes the
// witness reports the orphan; the master re-executes it (making it
// durable) and collects it, so the key does not stay blocked forever.
func TestOrphanedWitnessRecordGC(t *testing.T) {
	opts := testOptions()
	opts.Master.Core.SyncBatchSize = 2 // frequent syncs → frequent gc passes
	c, _ := startTestCluster(t, opts)
	ctx := context.Background()

	// Simulate the crashed client: record directly on every witness
	// without ever contacting the master.
	orphan := &kv.Command{Op: kv.OpPut, Key: []byte("orphan-key"), Value: []byte("orphan-val")}
	orphanID := rifl.RPCID{Client: 999, Seq: 1}
	rec := recordRequest{
		MasterID:  1,
		Version:   1,
		KeyHashes: orphan.KeyHashes(),
		ID:        orphanID,
		Request:   orphan.Encode(),
	}
	for _, ws := range c.Witnesses {
		p := rpc.NewPeer(c.Net, "crashed-client", ws.Addr())
		out, err := p.Call(ctx, OpWitnessRecord, rec.encode())
		p.Close()
		if err != nil || witness.RecordResult(out[0]) != witness.Accepted {
			t.Fatalf("orphan record: %v %v", err, out)
		}
	}

	// Drive normal traffic so the master syncs (and gc's) repeatedly.
	cl := testClient(t, c, "client1")
	for i := 0; i < 30; i++ {
		if _, err := cl.Put(ctx, []byte(fmt.Sprintf("traffic-%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// Eventually the orphan is retried by the master and becomes visible
	// and durable, and the witness slot is freed. GC RPCs are best effort
	// and syncs stop once traffic does, so each probe nudges another
	// write through to keep gc passes coming (the flush a busy system
	// gets for free).
	waitFor(t, 10*time.Second, func() bool {
		_, _ = cl.Put(ctx, []byte("traffic-extra"), []byte("v"))
		v, ok, err := cl.Get(ctx, []byte("orphan-key"))
		return err == nil && ok && string(v) == "orphan-val"
	}, "orphan re-execution")
	waitFor(t, 10*time.Second, func() bool {
		_, _ = cl.Put(ctx, []byte("traffic-extra"), []byte("v"))
		st := c.Witnesses[0].Instance(1).Stats()
		return st.StaleSuspicions > 0 || c.Witnesses[0].Instance(1).Len() == 0
	}, "orphan collection")
}

// TestStaleReadsServeDurableValues exercises the §A.3 mitigation: GetStale
// returns the last durable value immediately — never blocking on a sync —
// while Get stays linearizable.
func TestStaleReadsServeDurableValues(t *testing.T) {
	opts := testOptions()
	opts.Master.Core.SyncBatchSize = 1000 // keep writes speculative
	opts.Master.Core.HotKeyWindow = 0     // no preemptive syncs
	c, _ := startTestCluster(t, opts)
	cl := testClient(t, c, "client1")
	ctx := context.Background()

	// v1 written and made durable via an explicit sync RPC path: a second
	// write conflicts and forces the sync.
	if _, err := cl.Put(ctx, []byte("k"), []byte("v0")); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Put(ctx, []byte("k"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	// v2 is speculative (unsynced) — once v1's sync has finished its gc
	// tail: until then the witnesses still hold v1's record, would reject
	// v2's, and the client's slow path would sync v2 as well.
	if err := c.Master.eng.HoldSync(func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Put(ctx, []byte("k"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if c.Backups[0].SyncedLSN(1) != 2 {
		t.Fatalf("setup: synced lsn = %d, want 2", c.Backups[0].SyncedLSN(1))
	}
	syncsBefore := c.Master.State().Stats().ReadBlocks

	// Stale read: the durable value v1, without forcing a sync.
	v, ok, err := cl.GetStale(ctx, []byte("k"))
	if err != nil || !ok || string(v) != "v1" {
		t.Fatalf("stale read: %v %v %q, want v1", err, ok, v)
	}
	if c.Backups[0].SyncedLSN(1) != 2 {
		t.Fatal("stale read must not force a sync")
	}
	if c.Master.State().Stats().ReadBlocks != syncsBefore {
		t.Fatal("stale read blocked")
	}
	// A key created speculatively has no durable value yet.
	if _, err := cl.Put(ctx, []byte("fresh"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	_, ok, err = cl.GetStale(ctx, []byte("fresh"))
	if err != nil || ok {
		t.Fatalf("fresh key durable view: %v %v, want not-found", err, ok)
	}
	// Linearizable Get still returns v2 (forcing the sync)...
	v, _, err = cl.Get(ctx, []byte("k"))
	if err != nil || string(v) != "v2" {
		t.Fatalf("linearizable read: %v %q", err, v)
	}
	// ...after which the stale view converges to v2.
	v, ok, err = cl.GetStale(ctx, []byte("k"))
	if err != nil || !ok || string(v) != "v2" {
		t.Fatalf("stale read after sync: %v %v %q", err, ok, v)
	}
	// And a missing key reads as missing.
	_, ok, err = cl.GetStale(ctx, []byte("never"))
	if err != nil || ok {
		t.Fatalf("missing key: %v %v", err, ok)
	}
}

// TestWitnessServerHostsMultipleMasters verifies a witness server can
// serve several masters at once (§4.1: after end, "the witness server can
// start another life for a different master" — and concurrently too).
func TestWitnessServerHostsMultipleMasters(t *testing.T) {
	nw := transport.NewMemNetwork(nil)
	ws, err := NewWitnessServer(nw, "w-shared", witness.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	coord, err := NewCoordinator(nw, "coord", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	var masters []*MasterServer
	for id := uint64(1); id <= 2; id++ {
		b, err := NewBackupServer(nw, fmt.Sprintf("b-%d", id))
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		m, err := NewMasterServer(nw, id, fmt.Sprintf("m-%d", id), 0, DefaultMasterOptions())
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		if err := coord.AddMaster(m, []string{b.Addr()}, []string{ws.Addr()}); err != nil {
			t.Fatal(err)
		}
		masters = append(masters, m)
	}
	// Both masters' clients record on the same witness server, isolated
	// by instance.
	for id := uint64(1); id <= 2; id++ {
		cl, err := NewClient(nw, fmt.Sprintf("cl-%d", id), "coord", id)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if _, err := cl.Put(context.Background(), []byte("same-key"), []byte(fmt.Sprintf("from-%d", id))); err != nil {
			t.Fatal(err)
		}
	}
	if ws.Instance(1).Len() != 1 || ws.Instance(2).Len() != 1 {
		t.Fatalf("instances hold %d/%d records, want 1/1",
			ws.Instance(1).Len(), ws.Instance(2).Len())
	}
	// Values are isolated per master.
	for id := uint64(1); id <= 2; id++ {
		v, _, _ := masters[id-1].Store().Get([]byte("same-key"))
		if string(v) != fmt.Sprintf("from-%d", id) {
			t.Fatalf("master %d value = %q", id, v)
		}
	}
}

// TestClusterOverTCP runs the full stack over real TCP sockets.
func TestClusterOverTCP(t *testing.T) {
	nw := transport.TCPNetwork{}
	opts := testOptions()
	opts.F = 2
	// Assemble the pieces manually on loopback with fixed high ports.
	base := 39200
	coord, err := NewCoordinator(nw, addrAt(base), time.Minute)
	if err != nil {
		t.Skipf("port %d unavailable: %v", base, err)
	}
	defer coord.Close()
	var backups, witnesses []string
	for i := 0; i < opts.F; i++ {
		b, err := NewBackupServer(nw, addrAt(base+10+i))
		if err != nil {
			t.Skipf("port unavailable: %v", err)
		}
		defer b.Close()
		backups = append(backups, b.Addr())
		w, err := NewWitnessServer(nw, addrAt(base+20+i), witness.DefaultConfig())
		if err != nil {
			t.Skipf("port unavailable: %v", err)
		}
		defer w.Close()
		witnesses = append(witnesses, w.Addr())
	}
	ms, err := NewMasterServer(nw, 1, addrAt(base+1), 0, opts.Master)
	if err != nil {
		t.Skipf("port unavailable: %v", err)
	}
	defer ms.Close()
	if err := coord.AddMaster(ms, backups, witnesses); err != nil {
		t.Fatal(err)
	}
	cl, err := NewClient(nw, "tcp-client", addrAt(base), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		if _, err := cl.Put(ctx, []byte(fmt.Sprintf("tcp-%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	v, ok, err := cl.Get(ctx, []byte("tcp-7"))
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("tcp get: %v %v %q", err, ok, v)
	}
	if st := cl.Stats(); st.FastPath != 20 {
		t.Fatalf("stats = %+v", st)
	}
}

func addrAt(port int) string { return fmt.Sprintf("127.0.0.1:%d", port) }

// TestLostGCReplyIsJournaledOncePerOutage: a gc leg that fails is no longer
// dropped on the floor — the master journals it, and once for the outage,
// not once per sync.
func TestLostGCReplyIsJournaledOncePerOutage(t *testing.T) {
	c, _ := startTestCluster(t, testOptions())
	cl := testClient(t, c, "client1")
	ctx := context.Background()
	lost := func() (n int) {
		// The gc is the sync's tail: wait it out before reading the journal.
		_ = c.Master.eng.HoldSync(func() error { return nil })
		for _, ev := range c.Master.Events().Dump().Events {
			if ev.Kind == events.KindWitnessGCLost {
				if n++; ev.Err == "" || ev.Detail != "1 of 3 gc replies lost" {
					t.Errorf("event = %+v", ev)
				}
			}
		}
		return n
	}
	if _, err := cl.Put(ctx, []byte("k"), []byte("v0")); err != nil {
		t.Fatal(err)
	}
	if err := c.Master.eng.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if n := lost(); n != 0 {
		t.Fatalf("%d gc replies journaled lost on a healthy partition", n)
	}
	c.CrashWitness(0)
	// Every put now takes the slow path: a sync, and a gc pass with a dead leg.
	for i := 0; i < 4; i++ {
		if _, err := cl.Put(ctx, []byte("k"), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if syncs := c.Master.mSyncLat.Snapshot().Count(); syncs < 4 {
		t.Fatalf("%d syncs: the puts did not each drive one", syncs)
	}
	if n := lost(); n != 1 {
		t.Fatalf("lost gc replies journaled %d times across one outage, want 1", n)
	}
}
