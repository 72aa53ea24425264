package cluster

import (
	"context"
	"testing"
	"time"

	"curp/internal/core"
	"curp/internal/kv"
	"curp/internal/rifl"
	"curp/internal/transport"
	"curp/internal/witness"
)

// twoPartitions boots two independent partitions (distinct name prefixes
// and RIFL namespaces, like a sharded deployment) on one network, with a
// short transaction lock timeout so orphan resolution fires quickly.
func twoPartitions(t *testing.T) (*Cluster, *Cluster) {
	t.Helper()
	nw := transport.NewMemNetwork(nil)
	mk := func(prefix string, ns uint64) *Cluster {
		opts := DefaultOptions()
		opts.F = 1
		opts.Addrs = HostNames(prefix)
		opts.ClientIDNamespace = ns
		opts.Master.TxnLockTimeout = 25 * time.Millisecond
		c, err := Start(nw, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		return c
	}
	return mk("a-", ClientIDNamespaceFor(0)), mk("b-", ClientIDNamespaceFor(1))
}

// prepareAt runs a vote-commit prepare for txnID on part, writing
// delta to key, homed at home's master.
func prepareAt(t *testing.T, ctx context.Context, cl *Client, txnID rifl.RPCID, home kv.TxnHome, key string, delta int64) {
	t.Helper()
	cmd := &kv.Command{Op: kv.OpTxnPrepare, Txn: &kv.TxnCommand{
		ID:     txnID,
		Home:   home,
		Writes: []kv.TxnWrite{{Op: kv.OpIncrement, Key: []byte(key), Delta: delta}},
	}}
	res, err := cl.TxnPrepare(ctx, cmd)
	if err != nil || !res.Found {
		t.Fatalf("prepare: res=%+v err=%v", res, err)
	}
}

// TestTxnOrphanedPrepareResolvesToAbort simulates coordinator death after
// phase one: a prepared transaction's locks block plain traffic, the
// participant's lock-timeout resolver asks the home shard, the home
// records abort-by-default under the transaction's RIFL ID, and the locks
// clear — all without any coordinator involvement. A coordinator decide
// that straggles in afterwards gets the abort back instead of committing.
func TestTxnOrphanedPrepareResolvesToAbort(t *testing.T) {
	home, part := twoPartitions(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	homeCl, err := home.NewClient("coord-home")
	if err != nil {
		t.Fatal(err)
	}
	defer homeCl.Close()
	partCl, err := part.NewClient("coord-part")
	if err != nil {
		t.Fatal(err)
	}
	defer partCl.Close()

	if _, err := partCl.Increment(ctx, []byte("bal"), 100); err != nil {
		t.Fatal(err)
	}

	// Phase one only: the "coordinator" prepares at the participant, homed
	// at the other partition, then dies (never decides).
	txnID := homeCl.MintTxnID()
	homeInfo, err := homeCl.TxnHomeInfo(ctx)
	if err != nil {
		t.Fatal(err)
	}
	homeInfo.KeyHash = witness.KeyHash([]byte("home-key"))
	prepareAt(t, ctx, partCl, txnID, homeInfo, "bal", -10)
	if part.Master.Store().LockCount() == 0 {
		t.Fatal("prepare took no locks")
	}

	// A second client's plain op on the locked key must eventually succeed:
	// retries bounce with StatusTxnLocked until the resolver aborts the
	// orphan through the home shard.
	other, err := part.NewClient("bystander")
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	n, err := other.Increment(ctx, []byte("bal"), 5)
	if err != nil {
		t.Fatalf("blocked increment never recovered: %v", err)
	}
	if n != 105 {
		t.Fatalf("bal = %d, want 105 (orphaned -10 must NOT apply)", n)
	}
	if got := part.Master.Store().LockCount(); got != 0 {
		t.Fatalf("%d keys still locked after resolution", got)
	}

	// The home shard holds a durable abort decision...
	if commit, known := home.Master.Store().TxnDecision(txnID); !known || commit {
		t.Fatalf("home decision known=%v commit=%v, want known abort", known, commit)
	}
	// ...anchored in RIFL: the coordinator waking up late and deciding
	// commit receives the recorded abort.
	committed, err := homeCl.TxnDecideHome(ctx, txnID, true, homeInfo.KeyHash)
	if err != nil {
		t.Fatal(err)
	}
	if committed {
		t.Fatal("late commit decide overrode the resolver's abort")
	}
}

// TestTxnResolutionAppliesCommit is the other half: if the decision was
// already durably COMMIT at the home shard, a participant whose decide
// never arrived (coordinator died mid-distribution) applies the commit at
// resolution time instead of aborting.
func TestTxnResolutionAppliesCommit(t *testing.T) {
	home, part := twoPartitions(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	homeCl, err := home.NewClient("coord-home")
	if err != nil {
		t.Fatal(err)
	}
	defer homeCl.Close()
	partCl, err := part.NewClient("coord-part")
	if err != nil {
		t.Fatal(err)
	}
	defer partCl.Close()

	if _, err := partCl.Increment(ctx, []byte("bal"), 100); err != nil {
		t.Fatal(err)
	}
	txnID := homeCl.MintTxnID()
	homeInfo, err := homeCl.TxnHomeInfo(ctx)
	if err != nil {
		t.Fatal(err)
	}
	homeInfo.KeyHash = witness.KeyHash([]byte("home-key"))
	prepareAt(t, ctx, partCl, txnID, homeInfo, "bal", 40)

	// The decision is made durable at the home — and then the coordinator
	// dies before telling the participant.
	committed, err := homeCl.TxnDecideHome(ctx, txnID, true, homeInfo.KeyHash)
	if err != nil || !committed {
		t.Fatalf("home decide: committed=%v err=%v", committed, err)
	}

	other, err := part.NewClient("bystander")
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	n, err := other.Increment(ctx, []byte("bal"), 0)
	if err != nil {
		t.Fatalf("blocked read-increment never recovered: %v", err)
	}
	if n != 140 {
		t.Fatalf("bal = %d, want 140 (committed +40 must apply at resolution)", n)
	}
	if got := part.Master.Store().LockCount(); got != 0 {
		t.Fatalf("%d keys still locked after resolution", got)
	}
}

// TestTxnLockedStatusIsRetryable pins the wire contract: an update
// touching a locked key answers StatusTxnLocked (not an execution error),
// so clients back off and retry rather than failing the operation.
func TestTxnLockedStatusIsRetryable(t *testing.T) {
	home, part := twoPartitions(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	homeCl, err := home.NewClient("coord-home")
	if err != nil {
		t.Fatal(err)
	}
	defer homeCl.Close()
	partCl, err := part.NewClient("coord-part")
	if err != nil {
		t.Fatal(err)
	}
	defer partCl.Close()

	txnID := homeCl.MintTxnID()
	homeInfo, err := homeCl.TxnHomeInfo(ctx)
	if err != nil {
		t.Fatal(err)
	}
	homeInfo.KeyHash = witness.KeyHash([]byte("hk"))
	prepareAt(t, ctx, partCl, txnID, homeInfo, "locked-key", 1)

	// A raw single-attempt update against the locked key must report the
	// typed bounce.
	cmd := &kv.Command{Op: kv.OpPut, Key: []byte("locked-key"), Value: []byte("v")}
	view, err := partCl.provider.View(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	req := &core.Request{
		ID:                 partCl.Session().NextID(),
		WitnessListVersion: view.WitnessListVersion,
		KeyHashes:          cmd.KeyHashes(),
		Payload:            cmd.Encode(),
	}
	replies, err := view.Master.UpdateBatch(ctx, []*core.Request{req})
	if err != nil || len(replies) != 1 {
		t.Fatalf("update batch: %v", err)
	}
	if replies[0].Status != core.StatusTxnLocked {
		t.Fatalf("status = %v, want %v", replies[0].Status, core.StatusTxnLocked)
	}
	// And the full client path converges (resolver aborts the orphan).
	if _, err := partCl.Put(ctx, []byte("locked-key"), []byte("v2")); err != nil {
		t.Fatalf("put after resolution: %v", err)
	}
	if _, known := part.Master.Store().TxnDecision(txnID); known {
		// Decisions live at the home, never the participant.
		t.Fatal("participant recorded a home decision")
	}
}
