package dstore

import (
	"context"
	"curp/internal/commute"
	"fmt"
	"runtime"
	"testing"
	"time"

	"curp/internal/core"
	"curp/internal/rifl"
	"curp/internal/witness"
)

// rig wires a CURP client to an Engine with f in-process witnesses, the
// functional equivalent of the paper's Redis + witness-server deployment.
type rig struct {
	engine    *Engine
	dev       *MemDevice
	witnesses []*witness.Witness
	client    *core.Client
}

func newRig(t *testing.T, f int, cfg core.MasterConfig) *rig {
	t.Helper()
	dev := &MemDevice{}
	r := &rig{dev: dev, engine: NewEngine(1, NewAOF(dev, FsyncOnDemand), cfg)}
	view := &core.View{MasterID: 1, WitnessListVersion: 1, Master: r.engine}
	for i := 0; i < f; i++ {
		w := witness.MustNew(1, witness.DefaultConfig())
		r.witnesses = append(r.witnesses, w)
		view.Witnesses = append(view.Witnesses, core.WitnessAdapter{W: w})
	}
	r.engine.AttachWitnesses(r.witnesses)
	r.client = core.NewClient(rifl.NewSession(1), core.StaticView{V: view}, core.DefaultClientConfig())
	return r
}

// update sends one request as a batch of one.
func update(e *Engine, req *core.Request) (*core.Reply, error) {
	replies, err := e.UpdateBatch(context.Background(), []*core.Request{req})
	return replies[0], err
}

func (r *rig) do(t *testing.T, cmd *Command) *Result {
	t.Helper()
	var out []byte
	var err error
	if cmd.IsReadOnly() {
		out, err = r.client.Read(context.Background(), cmd.KeyHashes(), cmd.Encode())
	} else {
		out, err = r.client.Update(context.Background(), cmd.KeyHashes(), cmd.Encode(), commute.ClassWrite)
	}
	if err != nil {
		t.Fatalf("%v: %v", cmd.Op, err)
	}
	res, err := DecodeResult(out)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestEngineFastPathSkipsFsync(t *testing.T) {
	r := newRig(t, 1, core.MasterConfig{SyncBatchSize: 50})
	r.do(t, &Command{Op: OpSet, Key: []byte("k"), Value: []byte("v")})
	if st := r.client.Stats(); st.FastPath != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Durability came from the witness, not the disk.
	if r.dev.SyncCount != 0 {
		t.Fatal("fast path must not fsync")
	}
	if r.witnesses[0].Len() != 1 {
		t.Fatal("witness missing record")
	}
}

func TestEngineConflictFsyncsBeforeReply(t *testing.T) {
	r := newRig(t, 1, core.MasterConfig{SyncBatchSize: 50})
	r.do(t, &Command{Op: OpSet, Key: []byte("k"), Value: []byte("v1")})
	r.do(t, &Command{Op: OpSet, Key: []byte("k"), Value: []byte("v2")})
	st := r.client.Stats()
	if st.SyncedByMaster != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if r.dev.SyncCount == 0 {
		t.Fatal("conflict must fsync")
	}
	// Witness records are collected lazily and by exact ID: the
	// conflicting op's record may land while the fsync is in flight (the
	// async client records in parallel with the master RPC), in which case
	// a later pass picks it up. The engine is quiesced here — every op is
	// done and fsynced — so sweep whatever remains and require emptiness.
	for _, w := range r.witnesses {
		var keys []witness.GCKey
		for _, rec := range w.SnapshotRecords() {
			keys = append(keys, witness.GCKeys(rec.KeyHashes, rec.ID)...)
		}
		w.GC(keys)
	}
	if r.witnesses[0].Len() != 0 {
		t.Fatalf("witness len = %d after gc", r.witnesses[0].Len())
	}
}

func TestEngineReadBlocksUntilFsync(t *testing.T) {
	r := newRig(t, 1, core.MasterConfig{SyncBatchSize: 50})
	r.do(t, &Command{Op: OpIncr, Key: []byte("c"), Delta: 7})
	res := r.do(t, &Command{Op: OpGet, Key: []byte("c")})
	if string(res.Value) != "7" {
		t.Fatalf("read = %q", res.Value)
	}
	if r.engine.E.State().Stats().ReadBlocks != 1 {
		t.Fatal("read of un-fsynced key must block on sync")
	}
	if r.dev.SyncCount == 0 {
		t.Fatal("read did not force fsync")
	}
}

func TestEngineAllCommandsThroughCURP(t *testing.T) {
	r := newRig(t, 2, core.MasterConfig{SyncBatchSize: 50})
	r.do(t, &Command{Op: OpSet, Key: []byte("str"), Value: []byte("s")})
	r.do(t, &Command{Op: OpHMSet, Key: []byte("h"), Field: []byte("f"), Value: []byte("hv")})
	r.do(t, &Command{Op: OpIncr, Key: []byte("cnt"), Delta: 3})
	r.do(t, &Command{Op: OpRPush, Key: []byte("lst"), Value: []byte("x")})
	r.do(t, &Command{Op: OpSAdd, Key: []byte("set"), Value: []byte("m")})
	// Distinct keys: all five are 1-RTT.
	if st := r.client.Stats(); st.FastPath != 5 {
		t.Fatalf("stats = %+v", st)
	}
	if got := r.do(t, &Command{Op: OpHGet, Key: []byte("h"), Field: []byte("f")}); string(got.Value) != "hv" {
		t.Fatalf("hget = %q", got.Value)
	}
	if got := r.do(t, &Command{Op: OpSMembers, Key: []byte("set")}); len(got.Values) != 1 {
		t.Fatalf("smembers = %q", got.Values)
	}
}

func TestEngineCrashRecoveryFromWitness(t *testing.T) {
	// The §5.4 claim: with CURP, the "Redis" is durable — a crash that
	// loses the un-fsynced AOF tail recovers completed writes from the
	// witness.
	r := newRig(t, 1, core.MasterConfig{SyncBatchSize: 1000})
	for i := 0; i < 10; i++ {
		r.do(t, &Command{Op: OpSet, Key: []byte(fmt.Sprintf("k%d", i)), Value: []byte(fmt.Sprintf("v%d", i))})
	}
	if r.dev.SyncCount != 0 {
		t.Fatal("writes should be un-fsynced")
	}
	// Crash: only dev.DurableBytes() (empty) survives; recover with the
	// witness.
	newDev := &MemDevice{}
	recovered, err := Recover(1, r.dev.DurableBytes(), r.witnesses[0], NewAOF(newDev, FsyncOnDemand), core.MasterConfig{SyncBatchSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		res, err := recovered.Store().Apply(&Command{Op: OpGet, Key: []byte(fmt.Sprintf("k%d", i))})
		if err != nil || !res.Found || string(res.Value) != fmt.Sprintf("v%d", i) {
			t.Fatalf("k%d after recovery: %v %+v", i, err, res)
		}
	}
	// The recovered engine fsynced its rebuilt log.
	if newDev.SyncCount == 0 {
		t.Fatal("recovery must fsync the rebuilt log")
	}
	// The witness is frozen: stale clients cannot complete writes on it.
	if res := r.witnesses[0].Record(1, []uint64{1}, rifl.RPCID{Client: 9, Seq: 1}, []byte("late"), commute.ClassWrite); res != witness.RejectedRecovery {
		t.Fatalf("stale record = %v", res)
	}
}

func TestEngineRecoveryIsExactlyOnce(t *testing.T) {
	// Some commands fsynced, some only witnessed; recovery must apply each
	// exactly once. INCR catches both duplicates and losses.
	r := newRig(t, 1, core.MasterConfig{SyncBatchSize: 1000})
	r.do(t, &Command{Op: OpIncr, Key: []byte("c"), Delta: 1}) // → 1
	// Force an fsync via an explicit engine sync (covers the increment).
	if err := r.engine.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	r.do(t, &Command{Op: OpIncr, Key: []byte("c"), Delta: 10}) // → 11, un-fsynced
	// (the second increment conflicts? c was synced, so no conflict)
	recovered, err := Recover(1, r.dev.DurableBytes(), r.witnesses[0], NewAOF(&MemDevice{}, FsyncOnDemand), core.MasterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, _ := recovered.Store().Apply(&Command{Op: OpGet, Key: []byte("c")})
	if string(res.Value) != "11" {
		t.Fatalf("counter = %q, want 11 (exactly-once recovery)", res.Value)
	}
}

func TestEngineBatchSyncKeepsWitnessesBounded(t *testing.T) {
	r := newRig(t, 1, core.MasterConfig{SyncBatchSize: 5})
	for i := 0; i < 25; i++ {
		r.do(t, &Command{Op: OpSet, Key: []byte(fmt.Sprintf("k%d", i)), Value: []byte("v")})
	}
	deadline := time.Now().Add(time.Second)
	for r.witnesses[0].Len() > 5 {
		if time.Now().After(deadline) {
			t.Fatalf("witness len = %d; gc not keeping up", r.witnesses[0].Len())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestEngineDuplicateUpdateReturnsSavedResult(t *testing.T) {
	r := newRig(t, 1, core.MasterConfig{SyncBatchSize: 50})
	id := rifl.RPCID{Client: 7, Seq: 1}
	req := &core.Request{
		ID:                 id,
		WitnessListVersion: 1,
		KeyHashes:          (&Command{Op: OpIncr, Key: []byte("c"), Delta: 5}).KeyHashes(),
		Payload:            (&Command{Op: OpIncr, Key: []byte("c"), Delta: 5}).Encode(),
	}
	rep1, err := update(r.engine, req)
	if err != nil || rep1.Status != core.StatusOK {
		t.Fatalf("first: %v %+v", err, rep1)
	}
	rep2, err := update(r.engine, req)
	if err != nil || rep2.Status != core.StatusOK || !rep2.Synced {
		t.Fatalf("duplicate: %v %+v", err, rep2)
	}
	res, _ := DecodeResult(rep2.Payload)
	if string(res.Value) != "5" {
		t.Fatalf("duplicate result = %q (re-execution?)", res.Value)
	}
	// State: counter is 5, not 10.
	got, _ := r.engine.Store().Apply(&Command{Op: OpGet, Key: []byte("c")})
	if string(got.Value) != "5" {
		t.Fatalf("counter = %q", got.Value)
	}
}

func TestEngineStaleWitnessListRejected(t *testing.T) {
	r := newRig(t, 1, core.MasterConfig{SyncBatchSize: 50})
	req := &core.Request{
		ID:                 rifl.RPCID{Client: 1, Seq: 99},
		WitnessListVersion: 0, // engine is at version 1
		KeyHashes:          []uint64{1},
		Payload:            (&Command{Op: OpSet, Key: []byte("k")}).Encode(),
	}
	rep, err := update(r.engine, req)
	if err != nil || rep.Status != core.StatusStaleWitnessList {
		t.Fatalf("reply = %v %+v", err, rep)
	}
}

func TestEngineWrongTypeErrorPropagates(t *testing.T) {
	r := newRig(t, 1, core.MasterConfig{SyncBatchSize: 50})
	r.do(t, &Command{Op: OpSet, Key: []byte("k"), Value: []byte("v")})
	cmd := &Command{Op: OpLPush, Key: []byte("k"), Value: []byte("x")}
	_, err := r.client.Update(context.Background(), cmd.KeyHashes(), cmd.Encode(), commute.ClassWrite)
	if err == nil {
		t.Fatal("wrong-type error should propagate")
	}
}

func BenchmarkEngineSet(b *testing.B) {
	dev := &MemDevice{}
	e := NewEngine(1, NewAOF(dev, FsyncOnDemand), core.MasterConfig{SyncBatchSize: 50})
	w := witness.MustNew(1, witness.DefaultConfig())
	e.AttachWitnesses([]*witness.Witness{w})
	view := &core.View{MasterID: 1, WitnessListVersion: 1, Master: e, Witnesses: []core.WitnessAPI{core.WitnessAdapter{W: w}}}
	cl := core.NewClient(rifl.NewSession(1), core.StaticView{V: view}, core.DefaultClientConfig())
	val := make([]byte, 100)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cmd := &Command{Op: OpSet, Key: []byte(fmt.Sprintf("key%d", i%2048)), Value: val}
		if _, err := cl.Update(ctx, cmd.KeyHashes(), cmd.Encode(), commute.ClassWrite); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEngineBatchConflictsCostOneFsync: a pipelined batch of k commands on
// one key has k-1 conflicts; the engine gates them all behind ONE fsync
// instead of one each.
func TestEngineBatchConflictsCostOneFsync(t *testing.T) {
	r := newRig(t, 1, core.MasterConfig{SyncBatchSize: 1000})
	const k = 8
	reqs := make([]*core.Request, k)
	for i := range reqs {
		cmd := &Command{Op: OpIncr, Key: []byte("hot"), Delta: 1}
		reqs[i] = &core.Request{
			ID:                 rifl.RPCID{Client: 7, Seq: rifl.Seq(i + 1)},
			WitnessListVersion: 1,
			KeyHashes:          cmd.KeyHashes(),
			Payload:            cmd.Encode(),
		}
	}
	replies, err := r.engine.UpdateBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range replies {
		if rep.Status != core.StatusOK || rep.Synced != (i > 0) {
			t.Fatalf("reply %d = %+v (only the first commutes)", i, rep)
		}
	}
	if r.dev.SyncCount != 1 {
		t.Fatalf("fsyncs = %d for %d same-key commands, want 1", r.dev.SyncCount, k)
	}
	if cs := r.engine.E.State().Stats().ConflictSyncs; cs != k-1 {
		t.Fatalf("conflict syncs = %d, want %d", cs, k-1)
	}
}

// TestRecoverFailureStopsSyncer: a recovery that fails must not leave the
// engine's resident syncer goroutine behind.
func TestRecoverFailureStopsSyncer(t *testing.T) {
	// A durable log of two commands to restore.
	r := newRig(t, 1, core.MasterConfig{SyncBatchSize: 1000})
	defer r.engine.Close()
	r.do(t, &Command{Op: OpSet, Key: []byte("a"), Value: []byte("1")})
	r.do(t, &Command{Op: OpSet, Key: []byte("b"), Value: []byte("2")})
	if err := r.engine.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	good := r.dev.DurableBytes()
	corrupt := append([]byte(nil), good...)
	corrupt[20] = 0xff // first record's op code: not a command

	cases := []struct {
		name      string
		log       []byte
		failOps   int  // device operations that fail
		witnessed bool // nothing to restore, one witnessed command to replay
	}{
		{"corrupt log", corrupt, 0, false},
		{"re-append fails", good, 1, false},
		{"witness replay append fails", nil, 1, true},
	}
	before := runtime.NumGoroutine()
	for _, tc := range cases {
		for i := 0; i < 10; i++ {
			var w *witness.Witness
			if tc.witnessed {
				w = witness.MustNew(1, witness.DefaultConfig())
				cmd := &Command{Op: OpSet, Key: []byte("w"), Value: []byte("v")}
				w.Record(1, cmd.KeyHashes(), rifl.RPCID{Client: 3, Seq: 1}, cmd.Encode(), commute.ClassWrite)
			}
			dev := &MemDevice{FailNextOps: tc.failOps}
			if e, err := Recover(1, tc.log, w, NewAOF(dev, FsyncOnDemand), core.MasterConfig{}); err == nil {
				e.Close()
				t.Fatalf("%s: recovery succeeded", tc.name)
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after 30 failed recoveries", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}
