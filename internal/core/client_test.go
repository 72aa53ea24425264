package core

import (
	"context"
	"curp/internal/commute"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"curp/internal/rifl"
	"curp/internal/witness"
)

func ridc(c, s uint64) rifl.RPCID {
	return rifl.RPCID{Client: rifl.ClientID(c), Seq: rifl.Seq(s)}
}

// fakeMaster implements MasterAPI with the real master decision procedure
// (RIFL begin → commutativity check → execute → reply), plus failure
// injection knobs. It executes "commands" by appending payloads to a log.
type fakeMaster struct {
	mu      sync.Mutex
	state   *MasterState
	tracker *rifl.Tracker
	lsn     uint64
	applied map[string]int // payload → times executed

	// failure injection
	dropUpdates  int  // fail next N Update RPCs after executing (lost reply)
	refuseSyncs  int  // fail next N Sync RPCs
	wrongMaster  bool // answer WrongMaster
	execError    bool // answer StatusError
	ignoreAll    bool // answer StatusIgnored
	updateCalls  int
	syncCalls    int
	syncedOnPath bool // true → conflict path: sync before replying
}

func newFakeMaster() *fakeMaster {
	return &fakeMaster{
		state:   NewMasterState(MasterConfig{SyncBatchSize: 50}),
		tracker: rifl.NewTracker(),
		applied: make(map[string]int),
	}
}

func (m *fakeMaster) UpdateBatch(ctx context.Context, reqs []*Request) ([]*Reply, error) {
	replies := make([]*Reply, len(reqs))
	for i, req := range reqs {
		reply, err := m.update(ctx, req)
		if err != nil {
			return nil, err
		}
		replies[i] = reply
	}
	return replies, nil
}

func (m *fakeMaster) update(ctx context.Context, req *Request) (*Reply, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.updateCalls++
	if m.wrongMaster {
		return &Reply{Status: StatusWrongMaster}, nil
	}
	if m.ignoreAll {
		return &Reply{Status: StatusIgnored}, nil
	}
	if !m.state.CheckWitnessList(req.WitnessListVersion) {
		return &Reply{Status: StatusStaleWitnessList}, nil
	}
	if m.execError {
		return &Reply{Status: StatusError, Err: "exec boom"}, nil
	}
	outcome, saved := m.tracker.Begin(req.ID, req.Ack)
	switch outcome {
	case rifl.Completed:
		return &Reply{Status: StatusOK, Synced: m.state.SyncedLSN() >= m.state.Head(), Payload: saved}, nil
	case rifl.Stale, rifl.Expired:
		return &Reply{Status: StatusIgnored}, nil
	}
	synced := false
	if m.state.Conflicts(req.KeyHashes, commute.ClassWrite) || m.syncedOnPath {
		m.state.NoteSync(m.lsn) // model a blocking backup sync
		synced = true
	}
	m.lsn++
	m.applied[string(req.Payload)]++
	m.state.NoteMutation(req.KeyHashes, m.lsn, commute.ClassWrite)
	result := []byte("res:" + string(req.Payload))
	m.tracker.Record(req.ID, result)
	if synced {
		m.state.NoteSync(m.lsn)
	}
	if m.dropUpdates > 0 {
		m.dropUpdates--
		return nil, errors.New("fake: lost reply")
	}
	return &Reply{Status: StatusOK, Synced: synced, Payload: result}, nil
}

func (m *fakeMaster) Read(ctx context.Context, req *Request) (*Reply, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.wrongMaster {
		return &Reply{Status: StatusWrongMaster}, nil
	}
	if m.state.Conflicts(req.KeyHashes, commute.ClassWrite) {
		m.state.CountReadBlock()
		m.state.NoteSync(m.lsn) // sync before exposing unsynced data
	}
	return &Reply{Status: StatusOK, Payload: []byte("read-ok")}, nil
}

func (m *fakeMaster) Sync(ctx context.Context) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.syncCalls++
	if m.refuseSyncs > 0 {
		m.refuseSyncs--
		return errors.New("fake: sync failed")
	}
	m.state.NoteSync(m.lsn)
	return nil
}

// fakeWitness adapts witness.Witness to WitnessAPI with failure injection.
type fakeWitness struct {
	w          *witness.Witness
	mu         sync.Mutex
	rejectNext int
	errNext    int
}

func newFakeWitness(masterID uint64) *fakeWitness {
	return &fakeWitness{w: witness.MustNew(masterID, witness.DefaultConfig())}
}

func (f *fakeWitness) RecordBatch(ctx context.Context, masterID uint64, recs []witness.Record) ([]witness.RecordResult, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.errNext > 0 {
		f.errNext--
		return nil, errors.New("fake: witness unreachable")
	}
	out := make([]witness.RecordResult, len(recs))
	for i, r := range recs {
		if f.rejectNext > 0 {
			f.rejectNext--
			out[i] = witness.RejectedConflict
			continue
		}
		out[i] = f.w.Record(masterID, r.KeyHashes, r.ID, r.Request, commute.ClassWrite)
	}
	return out, nil
}

func (f *fakeWitness) Commutes(ctx context.Context, keyHashes []uint64) (bool, error) {
	return f.w.Commutes(keyHashes), nil
}

func (f *fakeWitness) Drop(ctx context.Context, masterID uint64, keys []witness.GCKey) error {
	return f.w.DropRecords(keys)
}

// fakeBackup serves reads with a fixed payload.
type fakeBackup struct{ payload []byte }

func (b *fakeBackup) Read(ctx context.Context, req *Request) (*Reply, error) {
	return &Reply{Status: StatusOK, Payload: b.payload}, nil
}

// testRig wires a client to one fake master and f fake witnesses.
type testRig struct {
	master    *fakeMaster
	witnesses []*fakeWitness
	view      *View
	client    *Client
}

func newRig(f int) *testRig {
	r := &testRig{master: newFakeMaster()}
	view := &View{MasterID: 1, Master: r.master}
	for i := 0; i < f; i++ {
		fw := newFakeWitness(1)
		r.witnesses = append(r.witnesses, fw)
		view.Witnesses = append(view.Witnesses, fw)
	}
	r.view = view
	r.client = NewClient(rifl.NewSession(1), StaticView{view}, DefaultClientConfig())
	return r
}

func TestClientFastPath(t *testing.T) {
	r := newRig(3)
	out, err := r.client.Update(context.Background(), []uint64{100}, []byte("put-a"), commute.ClassWrite)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "res:put-a" {
		t.Fatalf("result = %q", out)
	}
	st := r.client.Stats()
	if st.FastPath != 1 || st.SlowPath != 0 || st.SyncedByMaster != 0 || st.Retries != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// The request is durably recorded on all 3 witnesses.
	for i, fw := range r.witnesses {
		if fw.w.Len() != 1 {
			t.Fatalf("witness %d len = %d", i, fw.w.Len())
		}
	}
	if r.master.syncCalls != 0 {
		t.Fatal("fast path must not sync")
	}
}

func TestClientSlowPathOnWitnessReject(t *testing.T) {
	r := newRig(3)
	r.witnesses[1].rejectNext = 1
	out, err := r.client.Update(context.Background(), []uint64{100}, []byte("w"), commute.ClassWrite)
	if err != nil || string(out) != "res:w" {
		t.Fatalf("update: %v %q", err, out)
	}
	st := r.client.Stats()
	if st.SlowPath != 1 || st.FastPath != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if r.master.syncCalls != 1 {
		t.Fatalf("sync calls = %d", r.master.syncCalls)
	}
}

func TestClientSlowPathOnWitnessError(t *testing.T) {
	r := newRig(2)
	r.witnesses[0].errNext = 1
	if _, err := r.client.Update(context.Background(), []uint64{5}, []byte("x"), commute.ClassWrite); err != nil {
		t.Fatal(err)
	}
	if st := r.client.Stats(); st.SlowPath != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestClientMasterSyncedReply(t *testing.T) {
	// When the master synced before replying (conflict path), the client
	// completes in 2 RTTs without a sync RPC, even if witnesses rejected.
	r := newRig(3)
	r.master.syncedOnPath = true
	for _, w := range r.witnesses {
		w.rejectNext = 1
	}
	if _, err := r.client.Update(context.Background(), []uint64{1}, []byte("c"), commute.ClassWrite); err != nil {
		t.Fatal(err)
	}
	st := r.client.Stats()
	if st.SyncedByMaster != 1 || st.SlowPath != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if r.master.syncCalls != 0 {
		t.Fatal("client must not send sync RPC when master synced")
	}
}

func TestClientRetriesLostReplyExactlyOnce(t *testing.T) {
	// The master executes but the reply is lost; the retry carries the
	// same RIFL ID, so it returns the saved result without re-executing.
	r := newRig(3)
	r.master.dropUpdates = 1
	out, err := r.client.Update(context.Background(), []uint64{9}, []byte("once"), commute.ClassWrite)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "res:once" {
		t.Fatalf("result = %q", out)
	}
	if n := r.master.applied["once"]; n != 1 {
		t.Fatalf("applied %d times, want exactly 1", n)
	}
	if st := r.client.Stats(); st.Retries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestClientStaleWitnessListRefetch(t *testing.T) {
	// Master is at witness-list version 1; the first view is stale. The
	// provider hands out the current view on refresh.
	master := newFakeMaster()
	master.state.SetWitnessListVersion(1)
	w := newFakeWitness(1)
	stale := &View{MasterID: 1, WitnessListVersion: 0, Master: master, Witnesses: []WitnessAPI{w}}
	fresh := &View{MasterID: 1, WitnessListVersion: 1, Master: master, Witnesses: []WitnessAPI{w}}
	vp := &switchingView{views: []*View{stale, fresh}}
	cl := NewClient(rifl.NewSession(1), vp, DefaultClientConfig())
	if _, err := cl.Update(context.Background(), []uint64{1}, []byte("v"), commute.ClassWrite); err != nil {
		t.Fatal(err)
	}
	if st := cl.Stats(); st.Retries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if master.applied["v"] != 1 {
		t.Fatalf("applied = %d", master.applied["v"])
	}
}

// switchingView returns views in order, advancing on refresh.
type switchingView struct {
	mu    sync.Mutex
	views []*View
	idx   int
}

func (s *switchingView) View(_ context.Context, refresh bool) (*View, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if refresh && s.idx < len(s.views)-1 {
		s.idx++
	}
	return s.views[s.idx], nil
}

func TestClientIgnored(t *testing.T) {
	r := newRig(1)
	r.master.ignoreAll = true
	if _, err := r.client.Update(context.Background(), []uint64{1}, []byte("x"), commute.ClassWrite); !errors.Is(err, ErrIgnored) {
		t.Fatalf("err = %v", err)
	}
}

func TestClientExecError(t *testing.T) {
	r := newRig(1)
	r.master.execError = true
	_, err := r.client.Update(context.Background(), []uint64{1}, []byte("x"), commute.ClassWrite)
	if err == nil || !contains(err.Error(), "exec boom") {
		t.Fatalf("err = %v", err)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || fmt.Sprintf("%s", s) != "" && indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestClientExhaustsAttempts(t *testing.T) {
	r := newRig(1)
	r.master.wrongMaster = true
	cl := NewClient(rifl.NewSession(2), StaticView{r.view}, ClientConfig{MaxAttempts: 3})
	_, err := cl.Update(context.Background(), []uint64{1}, []byte("x"), commute.ClassWrite)
	if !errors.Is(err, ErrUpdateFailed) {
		t.Fatalf("err = %v", err)
	}
	if st := cl.Stats(); st.Retries != 2 {
		t.Fatalf("retries = %d", st.Retries)
	}
	// Reads too.
	if _, err := cl.Read(context.Background(), []uint64{1}, []byte("r")); !errors.Is(err, ErrUpdateFailed) {
		t.Fatalf("read err = %v", err)
	}
}

func TestClientSyncFailureRestartsOperation(t *testing.T) {
	// Witness rejects → client syncs → sync fails (master "crashed") →
	// client restarts; second attempt fast-paths. RIFL dedupes.
	r := newRig(2)
	r.witnesses[0].rejectNext = 1
	r.master.refuseSyncs = 1
	out, err := r.client.Update(context.Background(), []uint64{4}, []byte("z"), commute.ClassWrite)
	if err != nil || string(out) != "res:z" {
		t.Fatalf("update: %v %q", err, out)
	}
	if r.master.applied["z"] != 1 {
		t.Fatalf("applied = %d", r.master.applied["z"])
	}
	st := r.client.Stats()
	if st.Retries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestClientRead(t *testing.T) {
	r := newRig(1)
	out, err := r.client.Read(context.Background(), []uint64{8}, []byte("get"))
	if err != nil || string(out) != "read-ok" {
		t.Fatalf("read: %v %q", err, out)
	}
	if st := r.client.Stats(); st.MasterReads != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestClientReadNearby(t *testing.T) {
	r := newRig(1)
	r.view.Backups = []BackupAPI{&fakeBackup{payload: []byte("backup-val")}}
	// No outstanding updates: witness commutes → backup read.
	out, err := r.client.ReadNearby(context.Background(), []uint64{50}, []byte("get"))
	if err != nil || string(out) != "backup-val" {
		t.Fatalf("nearby read: %v %q", err, out)
	}
	if st := r.client.Stats(); st.BackupReads != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Record an update on the same key: witness no longer commutes →
	// falls back to the master.
	if _, err := r.client.Update(context.Background(), []uint64{50}, []byte("w"), commute.ClassWrite); err != nil {
		t.Fatal(err)
	}
	out, err = r.client.ReadNearby(context.Background(), []uint64{50}, []byte("get"))
	if err != nil || string(out) != "read-ok" {
		t.Fatalf("fallback read: %v %q", err, out)
	}
	st := r.client.Stats()
	if st.BackupReads != 1 || st.MasterReads != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// A different key still commutes → backup again.
	out, _ = r.client.ReadNearby(context.Background(), []uint64{51}, []byte("get"))
	if string(out) != "backup-val" {
		t.Fatalf("other key = %q", out)
	}
}

func TestClientReadNearbyWithoutBackups(t *testing.T) {
	r := newRig(1)
	out, err := r.client.ReadNearby(context.Background(), []uint64{1}, []byte("get"))
	if err != nil || string(out) != "read-ok" {
		t.Fatalf("fallback: %v %q", err, out)
	}
}

func TestClientContextCancel(t *testing.T) {
	r := newRig(1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// A canceled context aborts promptly (the fake master ignores ctx, so
	// exercise the view-provider error path instead).
	vp := &errorView{err: ctx.Err()}
	cl := NewClient(rifl.NewSession(3), vp, ClientConfig{MaxAttempts: 2})
	if _, err := cl.Update(ctx, []uint64{1}, []byte("x"), commute.ClassWrite); err == nil {
		t.Fatal("expected error")
	}
	_ = r
}

type errorView struct{ err error }

func (e *errorView) View(context.Context, bool) (*View, error) { return nil, e.err }

func TestClientConcurrentUpdatesDisjointKeys(t *testing.T) {
	r := newRig(3)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				key := uint64(g*1000 + i)
				if _, err := r.client.Update(context.Background(), []uint64{key}, []byte(fmt.Sprintf("k%d", key)), commute.ClassWrite); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := r.client.Stats()
	// Disjoint keys: most complete on the fast path. Witness capacity (4096
	// slots) is plenty for 320 outstanding records.
	if st.FastPath != 320 {
		t.Fatalf("fast paths = %d / 320 (stats %+v)", st.FastPath, st)
	}
}

func TestClientSessionAckAdvances(t *testing.T) {
	r := newRig(1)
	for i := 0; i < 5; i++ {
		if _, err := r.client.Update(context.Background(), []uint64{uint64(i)}, []byte{byte(i)}, commute.ClassWrite); err != nil {
			t.Fatal(err)
		}
	}
	if ack := r.client.Session().Ack(); ack != 6 {
		t.Fatalf("ack = %d, want 6 (all five finished)", ack)
	}
}

func TestClientUpdateTimeBound(t *testing.T) {
	// Ensure parallel witness recording actually overlaps the master RPC:
	// with 3 witnesses each taking ~20ms and a 20ms master, an update
	// should take ≈20ms, not 80ms.
	master := newFakeMaster()
	slowM := &slowMaster{inner: master, delay: 20 * time.Millisecond}
	view := &View{MasterID: 1, Master: slowM}
	for i := 0; i < 3; i++ {
		view.Witnesses = append(view.Witnesses, &slowWitness{inner: newFakeWitness(1), delay: 20 * time.Millisecond})
	}
	cl := NewClient(rifl.NewSession(1), StaticView{view}, DefaultClientConfig())
	start := time.Now()
	if _, err := cl.Update(context.Background(), []uint64{1}, []byte("p"), commute.ClassWrite); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 60*time.Millisecond {
		t.Fatalf("update took %v; witness recording is not parallel", el)
	}
}

type slowMaster struct {
	inner MasterAPI
	delay time.Duration
}

func (s *slowMaster) UpdateBatch(ctx context.Context, reqs []*Request) ([]*Reply, error) {
	time.Sleep(s.delay)
	return s.inner.UpdateBatch(ctx, reqs)
}
func (s *slowMaster) Read(ctx context.Context, r *Request) (*Reply, error) {
	return s.inner.Read(ctx, r)
}
func (s *slowMaster) Sync(ctx context.Context) error { return s.inner.Sync(ctx) }

type slowWitness struct {
	inner WitnessAPI
	delay time.Duration
}

func (s *slowWitness) RecordBatch(ctx context.Context, m uint64, recs []witness.Record) ([]witness.RecordResult, error) {
	time.Sleep(s.delay)
	return s.inner.RecordBatch(ctx, m, recs)
}
func (s *slowWitness) Commutes(ctx context.Context, khs []uint64) (bool, error) {
	return s.inner.Commutes(ctx, khs)
}
func (s *slowWitness) Drop(ctx context.Context, m uint64, keys []witness.GCKey) error {
	return s.inner.Drop(ctx, m, keys)
}

// refreshCounter is a ViewProvider that counts forced refetches and bumps
// the view's version on each, as a coordinator publishing a new view would.
type refreshCounter struct{ refreshes int }

func (p *refreshCounter) View(_ context.Context, refresh bool) (*View, error) {
	if refresh {
		p.refreshes++
	}
	return &View{MasterID: 1, WitnessListVersion: uint64(1 + p.refreshes)}, nil
}

// TestClientCallStatusTable drives the single-request loop under Read and
// the transaction RPCs through every reply status and pins what each maps to — including
// what an exhausted budget reports about its last attempt: a clean bounce
// (the request never executed) or no verdict at all (in doubt).
func TestClientCallStatusTable(t *testing.T) {
	transport := errors.New("fake: connection reset")
	reply := func(s Status) func(*Request) (*Reply, error) {
		return func(*Request) (*Reply, error) { return &Reply{Status: s, Payload: []byte("out"), Err: "boom"}, nil }
	}
	lost := func(*Request) (*Reply, error) { return nil, transport }
	for _, tc := range []struct {
		name    string
		script  []func(*Request) (*Reply, error) // one per attempt; the last repeats
		wantErr error                            // matched with errors.Is; nil = success
		wantMsg string                           // for errors that are not sentinels
		bounce  Status
		sends   int
		finish  bool // the RIFL ID is released
	}{
		{name: "ok", script: []func(*Request) (*Reply, error){reply(StatusOK)}, sends: 1, finish: true},
		{name: "key moved", script: []func(*Request) (*Reply, error){reply(StatusKeyMoved)}, wantErr: ErrKeyMoved, sends: 1, finish: true},
		{name: "ignored", script: []func(*Request) (*Reply, error){reply(StatusIgnored)}, wantErr: ErrIgnored, sends: 1},
		{name: "error", script: []func(*Request) (*Reply, error){reply(StatusError)}, wantMsg: "curp: execution error: boom", sends: 1},
		{name: "unknown status", script: []func(*Request) (*Reply, error){reply(Status(99))}, wantMsg: "curp: unexpected status unknown", sends: 1},
		{name: "locked until exhausted", script: []func(*Request) (*Reply, error){reply(StatusTxnLocked)},
			wantErr: ErrUpdateFailed, bounce: StatusTxnLocked, sends: 3},
		{name: "transport error until exhausted", script: []func(*Request) (*Reply, error){lost},
			wantErr: ErrUpdateFailed, bounce: StatusOK, sends: 3},
		{name: "locked, then the last reply is lost", script: []func(*Request) (*Reply, error){reply(StatusTxnLocked), reply(StatusTxnLocked), lost},
			wantErr: ErrUpdateFailed, bounce: StatusOK, sends: 3},
		{name: "lost, then locked to the end", script: []func(*Request) (*Reply, error){lost, reply(StatusTxnLocked)},
			wantErr: ErrUpdateFailed, bounce: StatusTxnLocked, sends: 3},
		{name: "wrong master until exhausted", script: []func(*Request) (*Reply, error){reply(StatusWrongMaster)},
			wantErr: ErrUpdateFailed, bounce: StatusWrongMaster, sends: 3},
		{name: "stale, refresh, ok", script: []func(*Request) (*Reply, error){reply(StatusStaleWitnessList), reply(StatusOK)}, sends: 2, finish: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			views := &refreshCounter{}
			session := rifl.NewSession(7)
			cl := NewClient(session, views, ClientConfig{MaxAttempts: 3, RetryBackoff: -1})
			var sent []*Request
			out, bounce, err := cl.Call(context.Background(), session.NextID(), []uint64{5}, []byte("cmd"),
				func(_ context.Context, view *View, req *Request) (*Reply, error) {
					if req.WitnessListVersion != view.WitnessListVersion {
						t.Errorf("attempt %d: request stamped with version %d under view %d", len(sent), req.WitnessListVersion, view.WitnessListVersion)
					}
					sent = append(sent, req)
					return tc.script[min(len(sent), len(tc.script))-1](req)
				})
			switch {
			case tc.wantErr != nil && !errors.Is(err, tc.wantErr):
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			case tc.wantMsg != "" && (err == nil || err.Error() != tc.wantMsg):
				t.Fatalf("err = %v, want %q", err, tc.wantMsg)
			case tc.wantErr == nil && tc.wantMsg == "" && (err != nil || string(out) != "out"):
				t.Fatalf("out = %q, err = %v", out, err)
			}
			if bounce != tc.bounce {
				t.Errorf("bounce = %v, want %v", bounce, tc.bounce)
			}
			if len(sent) != tc.sends || views.refreshes != tc.sends-1 {
				t.Errorf("%d sends and %d view refreshes, want %d and %d", len(sent), views.refreshes, tc.sends, tc.sends-1)
			}
			// One RIFL ID across all attempts, acknowledged frontier stamped,
			// tracked and therefore not read-only.
			for i, req := range sent {
				if req.ID != sent[0].ID || req.ID.IsZero() || req.ReadOnly || req.Ack != 1 {
					t.Errorf("attempt %d: id %v (first %v), readOnly %v, ack %d", i, req.ID, sent[0].ID, req.ReadOnly, req.Ack)
				}
			}
			if finished := session.Ack() == 2; finished != tc.finish {
				t.Errorf("RIFL ID finished = %v, want %v", finished, tc.finish)
			}
		})
	}
	// Read runs on the same loop, untracked: zero ID, read-only, no ack, and
	// its own counters.
	cl := NewClient(rifl.NewSession(7), &refreshCounter{}, ClientConfig{MaxAttempts: 3, RetryBackoff: -1})
	var got *Request
	out, _, err := cl.Call(context.Background(), rifl.RPCID{}, []uint64{5}, []byte("get"),
		func(_ context.Context, _ *View, req *Request) (*Reply, error) {
			got = req
			return &Reply{Status: StatusOK, Payload: []byte("v")}, nil
		})
	if err != nil || string(out) != "v" || !got.ID.IsZero() || !got.ReadOnly || got.Ack != 0 {
		t.Fatalf("untracked call: %q, %v, request %+v", out, err, got)
	}
}

// TestClientStatsAddSumsEveryField: Add is the only code that names the
// fields when statistics are summed across clients, so a field it forgets
// reads 0 forever through a routing client. Every field must be a uint64
// and come back summed — a field added without extending Add fails here.
func TestClientStatsAddSumsEveryField(t *testing.T) {
	var a, b ClientStats
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < av.NumField(); i++ {
		if av.Field(i).Kind() != reflect.Uint64 {
			t.Fatalf("ClientStats.%s is %s; teach Add and this test how to sum it", av.Type().Field(i).Name, av.Field(i).Kind())
		}
		av.Field(i).SetUint(uint64(i + 1))
		bv.Field(i).SetUint(uint64(100 * (i + 1)))
	}
	a.Add(b)
	for i := 0; i < av.NumField(); i++ {
		if got, want := av.Field(i).Uint(), uint64(101*(i+1)); got != want {
			t.Errorf("after Add, %s = %d, want %d", av.Type().Field(i).Name, got, want)
		}
	}
}
