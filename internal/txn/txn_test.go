package txn

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"curp/internal/core"
	"curp/internal/kv"
	"curp/internal/rifl"
)

// fakeBackend is a scripted deployment: keys route by their first byte
// ('0' → shard 0, ...) plus a per-key override a Refresh can install, and
// every partition logs the calls it receives.
type fakeBackend struct {
	mu        sync.Mutex
	parts     []*fakePart
	rerouted  map[string]int // applied by the next Refresh
	routes    map[string]int
	refreshes int
}

func newFake(shards int) *fakeBackend {
	b := &fakeBackend{routes: make(map[string]int)}
	for s := 0; s < shards; s++ {
		b.parts = append(b.parts, &fakePart{b: b})
	}
	return b
}

func (b *fakeBackend) ShardOf(key []byte) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if s, ok := b.routes[string(key)]; ok {
		return s
	}
	return int(key[0] - '0')
}

func (b *fakeBackend) Refresh() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refreshes++
	changed := len(b.rerouted) > 0
	for k, s := range b.rerouted {
		b.routes[k] = s
	}
	b.rerouted = nil
	return changed
}

func (b *fakeBackend) GetVersioned(context.Context, []byte) (*kv.Result, error) {
	return &kv.Result{}, nil
}

func (b *fakeBackend) Partition(shard int) (Partition, error) {
	if shard < 0 || shard >= len(b.parts) {
		return nil, fmt.Errorf("fake: no shard %d", shard)
	}
	return b.parts[shard], nil
}

// fakePart is one scripted partition. prepare and decideHome default to
// "vote commit" and "the commit stuck"; calls records every request in
// arrival order.
type fakePart struct {
	b          *fakeBackend
	prepare    func() (*kv.Result, error)
	decideHome func() (bool, error)

	calls []string
}

func (p *fakePart) log(call string) {
	p.b.mu.Lock()
	defer p.b.mu.Unlock()
	p.calls = append(p.calls, call)
}

func (p *fakePart) SubmitTxnApply(_ context.Context, t *kv.TxnCommand) (*kv.Result, error) {
	p.log(fmt.Sprintf("apply/%d", len(t.Writes)))
	return &kv.Result{Found: true}, nil
}

func (p *fakePart) TxnHomeInfo(context.Context) (kv.TxnHome, error) {
	return kv.TxnHome{MasterID: 1, Addr: "fake"}, nil
}

func (p *fakePart) MintTxnID() rifl.RPCID     { p.log("mint"); return rifl.RPCID{Client: 7, Seq: 1} }
func (p *fakePart) FinishTxnID(rifl.RPCID)    { p.log("finish") }
func (p *fakePart) CountTxnCommit()           { p.log("count-commit") }
func (p *fakePart) CountTxnAbort(orphan bool) { p.log(fmt.Sprintf("count-abort/orphan=%v", orphan)) }

func (p *fakePart) TxnPrepare(_ context.Context, cmd *kv.Command) (*kv.Result, error) {
	p.log("prepare/" + keysOf(cmd.Txn.Writes))
	if p.prepare != nil {
		return p.prepare()
	}
	return &kv.Result{Found: true}, nil
}

func (p *fakePart) TxnDecide(_ context.Context, cmd *kv.Command) (*kv.Result, error) {
	p.log(fmt.Sprintf("decide/commit=%v", cmd.Txn.Commit))
	return &kv.Result{}, nil
}

func (p *fakePart) TxnDecideHome(_ context.Context, _ rifl.RPCID, commit bool, _ uint64) (bool, error) {
	p.log(fmt.Sprintf("decide-home/commit=%v", commit))
	if p.decideHome != nil {
		return p.decideHome()
	}
	return commit, nil
}

func (p *fakePart) ForgetTxnDecision(context.Context, rifl.RPCID, uint64) { p.log("forget") }

func keysOf(ws []kv.TxnWrite) string {
	var ks []string
	for _, w := range ws {
		ks = append(ks, string(w.Key))
	}
	sort.Strings(ks)
	return fmt.Sprint(ks)
}

// commit3 commits a transaction writing one key on each of shards 0, 1, 2
// (home = shard 0, the first key touched).
func commit3(b *fakeBackend) error {
	t := New(b)
	t.Put([]byte("0a"), []byte("v"))
	t.Put([]byte("1b"), []byte("v"))
	t.Put([]byte("2c"), []byte("v"))
	return t.Commit(context.Background())
}

func (b *fakeBackend) assertCalls(t *testing.T, want ...[]string) {
	t.Helper()
	for s, w := range want {
		if got := b.parts[s].calls; !reflect.DeepEqual(got, w) {
			t.Errorf("shard %d calls = %q, want %q", s, got, w)
		}
	}
}

// TestCommitDecisionTable drives the coordinator's decision table on a
// fake Backend: for each way phase one or the home decision can turn out,
// which participants hear which decision, whether the transaction ID is
// released, and which outcome is counted.
func TestCommitDecisionTable(t *testing.T) {
	voteNo := func() (*kv.Result, error) { return &kv.Result{Found: false}, nil }

	t.Run("one-no-vote-aborts-the-prepared", func(t *testing.T) {
		b := newFake(3)
		b.parts[1].prepare = voteNo
		if err := commit3(b); !errors.Is(err, ErrTxnAborted) {
			t.Fatalf("commit = %v, want ErrTxnAborted", err)
		}
		// Only participants that hold locks (voted commit) are released; no
		// decision is ever recorded at the home.
		b.assertCalls(t,
			[]string{"mint", "prepare/[0a]", "decide/commit=false", "finish", "count-abort/orphan=false"},
			[]string{"prepare/[1b]"},
			[]string{"prepare/[2c]", "decide/commit=false"})
	})

	t.Run("busy-prepare-is-a-clean-abort", func(t *testing.T) {
		b := newFake(3)
		b.parts[1].prepare = func() (*kv.Result, error) {
			return nil, fmt.Errorf("%w: lock wait ran out", ErrTxnBusy)
		}
		// Not in doubt: the blocked prepare never executed, so the outcome
		// is a plain abort and the busy shard needs no decide.
		if err := commit3(b); !errors.Is(err, ErrTxnAborted) {
			t.Fatalf("commit = %v, want ErrTxnAborted", err)
		}
		b.assertCalls(t,
			[]string{"mint", "prepare/[0a]", "decide/commit=false", "finish", "count-abort/orphan=false"},
			[]string{"prepare/[1b]"},
			[]string{"prepare/[2c]", "decide/commit=false"})
	})

	t.Run("moved-prepare-regroups-under-fresh-routing", func(t *testing.T) {
		b := newFake(3)
		b.rerouted = map[string]int{"1b": 2} // the ring flip the redirect announces
		b.parts[1].prepare = func() (*kv.Result, error) { return nil, core.ErrKeyMoved }
		if err := commit3(b); err != nil {
			t.Fatalf("commit = %v, want nil", err)
		}
		if b.refreshes != 1 {
			t.Fatalf("Refresh consulted %d times, want 1", b.refreshes)
		}
		// Round one: the prepared participants are released and the ID
		// retired. Round two runs the whole protocol again with 1b grouped
		// under shard 2.
		b.assertCalls(t,
			[]string{"mint", "prepare/[0a]", "decide/commit=false", "finish",
				"mint", "prepare/[0a]", "decide-home/commit=true", "decide/commit=true", "finish", "forget", "count-commit"},
			[]string{"prepare/[1b]"},
			[]string{"prepare/[2c]", "decide/commit=false", "prepare/[1b 2c]", "decide/commit=true"})
	})

	t.Run("hard-prepare-error-aborts-the-unknown-too", func(t *testing.T) {
		b := newFake(3)
		boom := errors.New("connection reset")
		b.parts[1].prepare = func() (*kv.Result, error) { return nil, boom }
		err := commit3(b)
		if !errors.Is(err, boom) || errors.Is(err, ErrTxnAborted) {
			t.Fatalf("commit = %v, want the prepare error", err)
		}
		// The errored prepare may have landed without its reply, so that
		// shard gets a best-effort abort as well; no outcome is counted.
		b.assertCalls(t,
			[]string{"mint", "prepare/[0a]", "decide/commit=false", "finish"},
			[]string{"prepare/[1b]", "decide/commit=false"},
			[]string{"prepare/[2c]", "decide/commit=false"})
	})

	t.Run("orphan-resolver-wins-the-home-decision", func(t *testing.T) {
		b := newFake(3)
		b.parts[0].decideHome = func() (bool, error) { return false, nil }
		if err := commit3(b); !errors.Is(err, ErrTxnAborted) {
			t.Fatalf("commit = %v, want ErrTxnAborted", err)
		}
		b.assertCalls(t,
			[]string{"mint", "prepare/[0a]", "decide-home/commit=true", "decide/commit=false", "forget", "finish", "count-abort/orphan=true"},
			[]string{"prepare/[1b]", "decide/commit=false"},
			[]string{"prepare/[2c]", "decide/commit=false"})
	})

	t.Run("one-shard-is-one-apply", func(t *testing.T) {
		b := newFake(3)
		tx := New(b)
		tx.Put([]byte("1a"), []byte("v"))
		tx.Put([]byte("1b"), []byte("v"))
		if err := tx.Commit(context.Background()); err != nil {
			t.Fatal(err)
		}
		b.assertCalls(t, []string{"count-commit"}, []string{"apply/2"}, nil)
	})
}
