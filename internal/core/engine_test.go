package core

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"curp/internal/commute"
	"curp/internal/metrics"
	"curp/internal/rifl"
	"curp/internal/witness"
)

// fakeSub is an in-memory Substrate: its log is a slice of requests, a
// flush counts itself, can be made to fail or to block on a gate, and the
// witnesses' gc replies are scripted and can be held back by a gate too.
type fakeSub struct {
	mu       sync.Mutex
	log      []*Request
	runs     map[rifl.RPCID]int
	flushes  int
	flushErr error         // returned by the next Flush (cleared unless sticky)
	sticky   bool          // flushErr persists
	gate     chan struct{} // when set, Flush announces itself on entered and blocks here
	entered  chan struct{} // buffered; one token per gated Flush
	gcCalls  [][]witness.GCKey
	gcDone   chan struct{}      // buffered; one token per StartGarbage
	gcGate   chan struct{}      // when set, a GarbageCall's Wait announces itself on gcParked and blocks here
	gcParked chan struct{}      // buffered; one token per gated Wait
	staleOut [][]witness.Record // scripted replies, consumed one per Wait
}

func newFakeSub() *fakeSub {
	return &fakeSub{runs: map[rifl.RPCID]int{}, entered: make(chan struct{}, 16), gcDone: make(chan struct{}, 16), gcParked: make(chan struct{}, 16)}
}

func (s *fakeSub) Execute(_ context.Context, req *Request, mode Mode) Executed {
	s.mu.Lock()
	defer s.mu.Unlock()
	if mode == ReadOnly {
		return Executed{Result: []byte("read")}
	}
	if string(req.Payload) == "bounce" {
		return Executed{Status: StatusTxnLocked}
	}
	s.log = append(s.log, req)
	s.runs[req.ID]++
	return Executed{Result: append([]byte("ok:"), req.Payload...), LSN: uint64(len(s.log)), Class: req.Class}
}

func (s *fakeSub) Head() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return uint64(len(s.log))
}

func (s *fakeSub) Flush(_ context.Context, synced uint64) (uint64, []witness.GCKey, error) {
	s.mu.Lock()
	s.flushes++
	head, gate, err := uint64(len(s.log)), s.gate, s.flushErr
	if !s.sticky {
		s.flushErr = nil
	}
	var keys []witness.GCKey
	for _, req := range s.log[synced:head] {
		keys = append(keys, witness.GCKeys(req.KeyHashes, req.ID)...)
	}
	s.mu.Unlock()
	if gate != nil {
		s.entered <- struct{}{}
		<-gate
	}
	if err != nil {
		return 0, nil, err
	}
	return head, keys, nil
}

func (s *fakeSub) StartGarbage(keys []witness.GCKey) GarbageCall {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gcCalls = append(s.gcCalls, keys)
	s.gcDone <- struct{}{}
	return fakeGC{s, s.gcGate}
}

// fakeGC is a started gc whose replies arrive when its gate opens.
type fakeGC struct {
	s    *fakeSub
	gate chan struct{}
}

func (g fakeGC) Wait() []witness.Record {
	if g.gate != nil {
		g.s.gcParked <- struct{}{}
		<-g.gate
	}
	g.s.mu.Lock()
	defer g.s.mu.Unlock()
	if len(g.s.staleOut) == 0 {
		return nil
	}
	out := g.s.staleOut[0]
	g.s.staleOut = g.s.staleOut[1:]
	return out
}

func (s *fakeSub) counts() (flushes, gcCalls int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushes, len(s.gcCalls)
}

func (s *fakeSub) setGate() chan struct{} {
	g := make(chan struct{})
	s.mu.Lock()
	s.gate = g
	s.mu.Unlock()
	return g
}

// setGCGate holds back the gc replies of every sync started from now on.
func (s *fakeSub) setGCGate() chan struct{} {
	g := make(chan struct{})
	s.mu.Lock()
	s.gcGate = g
	s.mu.Unlock()
	return g
}

// settle returns once no sync, gc tail included, holds the slot.
func settle(e *Engine) { _ = e.HoldSync(func() error { return nil }) }

// upd builds an update request on one key.
func upd(client, seq uint64, key uint64, payload string) *Request {
	return &Request{
		ID:                 rifl.RPCID{Client: rifl.ClientID(client), Seq: rifl.Seq(seq)},
		WitnessListVersion: 1,
		KeyHashes:          []uint64{key},
		Payload:            []byte(payload),
		Class:              commute.ClassWrite,
	}
}

// awaitParked waits until n goroutines are parked inside SyncTo's
// coalescing wait — the event the waiter tests hinge on.
func awaitParked(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(10 * time.Second)
	for {
		parked := 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "sync.(*Cond).Wait") && strings.Contains(g, "(*Engine).SyncTo") {
				parked++
			}
		}
		if parked >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d waiters parked", parked, n)
		}
		runtime.Gosched()
	}
}

func await(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// TestEngineConformance pins each rule of the master engine once, against
// the fake substrate.
func TestEngineConformance(t *testing.T) {
	ctx := context.Background()
	const noBatch = 1 << 20 // a threshold no case reaches: the background syncer stays idle
	cases := []struct {
		name  string
		batch int // SyncBatchSize
		run   func(t *testing.T, e *Engine, s *fakeSub)
	}{
		{"fast path issues no flush", noBatch, func(t *testing.T, e *Engine, s *fakeSub) {
			outs := []Outcome{e.Execute(ctx, upd(1, 1, 10, "a"), Speculative), e.Execute(ctx, upd(1, 2, 11, "b"), Speculative)}
			if v := e.Reveal(ctx, outs); v != "fast" {
				t.Fatalf("verdict = %q", v)
			}
			for _, o := range outs {
				if o.Reply.Status != StatusOK || o.Reply.Synced || o.SyncTo != 0 || o.Path != PathSpeculative {
					t.Fatalf("outcome = %+v", o)
				}
			}
			if f, _ := s.counts(); f != 0 {
				t.Fatalf("fast path flushed %d times", f)
			}
			if st := e.State().Stats(); st.SpeculativeOps != 2 || st.ConflictSyncs != 0 {
				t.Fatalf("stats = %+v", st)
			}
		}},
		{"conflict flushes before the reply is revealed", noBatch, func(t *testing.T, e *Engine, s *fakeSub) {
			e.Execute(ctx, upd(1, 1, 10, "a"), Speculative)
			outs := []Outcome{e.Execute(ctx, upd(1, 2, 10, "b"), Speculative)}
			if outs[0].SyncTo != 2 || outs[0].Path != PathConflict || outs[0].Reply.Synced {
				t.Fatalf("conflict outcome = %+v", outs[0])
			}
			if f, _ := s.counts(); f != 0 {
				t.Fatal("flushed before Reveal")
			}
			if v := e.Reveal(ctx, outs); v != "conflict-sync" {
				t.Fatalf("verdict = %q", v)
			}
			if f, _ := s.counts(); f != 1 || !outs[0].Reply.Synced || e.State().SyncedLSN() != 2 {
				t.Fatalf("flushes = %d, reply = %+v, synced = %d", f, outs[0].Reply, e.State().SyncedLSN())
			}
			if st := e.State().Stats(); st.ConflictSyncs != 1 || st.SpeculativeOps != 1 {
				t.Fatalf("stats = %+v", st)
			}
		}},
		{"a demoted execution is gated like a conflict", noBatch, func(t *testing.T, e *Engine, s *fakeSub) {
			// Demote is the substrate's call; model it with a wrapper.
			d := e.sub
			e.sub = demoting{d}
			out := e.Execute(ctx, upd(1, 1, 10, "a"), Speculative)
			if out.Path != PathConflict || out.SyncTo != 1 {
				t.Fatalf("outcome = %+v", out)
			}
		}},
		{"duplicate returns the saved result and waits out unsynced effects", noBatch, func(t *testing.T, e *Engine, s *fakeSub) {
			first := e.Execute(ctx, upd(1, 1, 10, "a"), Speculative)
			e.Execute(ctx, upd(1, 2, 11, "b"), Speculative)
			dup := []Outcome{e.Execute(ctx, upd(1, 1, 10, "a"), Speculative)}
			if !bytes.Equal(dup[0].Reply.Payload, first.Reply.Payload) || dup[0].SyncTo != 2 || dup[0].Path != PathNone {
				t.Fatalf("duplicate outcome = %+v", dup[0])
			}
			if v := e.Reveal(ctx, dup); v != "sync" || !dup[0].Reply.Synced {
				t.Fatalf("verdict = %q reply = %+v", v, dup[0].Reply)
			}
			if s.runs[rifl.RPCID{Client: 1, Seq: 1}] != 1 {
				t.Fatal("duplicate re-executed")
			}
			// Now durable: a further duplicate has nothing to wait for.
			if again := e.Execute(ctx, upd(1, 1, 10, "a"), Speculative); again.SyncTo != 0 || !again.Reply.Synced {
				t.Fatalf("synced duplicate = %+v", again)
			}
		}},
		{"stale and expired IDs are ignored", noBatch, func(t *testing.T, e *Engine, s *fakeSub) {
			e.Execute(ctx, upd(1, 1, 10, "a"), Speculative)
			acked := upd(1, 2, 11, "b")
			acked.Ack = 2 // "everything below seq 2 is done"
			e.Execute(ctx, acked, Speculative)
			if out := e.Execute(ctx, upd(1, 1, 10, "a"), Speculative); out.Reply.Status != StatusIgnored {
				t.Fatalf("stale = %+v", out.Reply)
			}
			e.Tracker().ExpireLease(1)
			if out := e.Execute(ctx, upd(1, 3, 12, "c"), Speculative); out.Reply.Status != StatusIgnored {
				t.Fatalf("expired = %+v", out.Reply)
			}
			if len(s.log) != 2 {
				t.Fatalf("ignored requests executed: log = %d", len(s.log))
			}
		}},
		{"a stale witness-list version is rejected", noBatch, func(t *testing.T, e *Engine, s *fakeSub) {
			req := upd(1, 1, 10, "a")
			req.WitnessListVersion = 0
			if out := e.Execute(ctx, req, Speculative); out.Reply.Status != StatusStaleWitnessList || len(s.log) != 0 {
				t.Fatalf("reply = %+v, log = %d", out.Reply, len(s.log))
			}
		}},
		{"a frozen master answers WrongMaster", noBatch, func(t *testing.T, e *Engine, s *fakeSub) {
			e.State().Freeze()
			if out := e.Execute(ctx, upd(1, 1, 10, "a"), Durable); out.Reply.Status != StatusWrongMaster {
				t.Fatalf("update = %+v", out.Reply)
			}
			if reply, _ := e.Read(ctx, upd(0, 0, 10, "r")); reply.Status != StatusWrongMaster {
				t.Fatalf("read = %+v", reply)
			}
		}},
		{"a batch with k conflicts flushes once", noBatch, func(t *testing.T, e *Engine, s *fakeSub) {
			var outs []Outcome
			for seq := uint64(1); seq <= 5; seq++ {
				outs = append(outs, e.Execute(ctx, upd(1, seq, 10, "x"), Speculative))
			}
			e.Reveal(ctx, outs)
			if f, _ := s.counts(); f != 1 {
				t.Fatalf("flushes = %d, want 1", f)
			}
			if outs[0].Reply.Synced {
				t.Fatal("the first op commuted; it is not gated")
			}
			for _, o := range outs[1:] {
				if !o.Reply.Synced {
					t.Fatalf("gated reply not tagged Synced: %+v", o)
				}
			}
			if st := e.State().Stats(); st.ConflictSyncs != 4 {
				t.Fatalf("conflict syncs = %d, want 4", st.ConflictSyncs)
			}
		}},
		{"durable mode always syncs before revealing", noBatch, func(t *testing.T, e *Engine, s *fakeSub) {
			outs := []Outcome{e.Execute(ctx, upd(1, 1, 10, "prepare"), Durable)}
			if outs[0].SyncTo != 1 || outs[0].Path != PathNone {
				t.Fatalf("outcome = %+v", outs[0])
			}
			e.Reveal(ctx, outs)
			dup := e.Execute(ctx, upd(1, 1, 10, "prepare"), Durable)
			if dup.SyncTo != 1 || !dup.Reply.Synced {
				t.Fatalf("durable duplicate must re-sync: %+v", dup)
			}
			if st := e.State().Stats(); st.SpeculativeOps != 0 || st.ConflictSyncs != 0 {
				t.Fatalf("durable mode touched the speculation counters: %+v", st)
			}
		}},
		{"a read of an unsynced key blocks until the flush", noBatch, func(t *testing.T, e *Engine, s *fakeSub) {
			e.Execute(ctx, upd(1, 1, 10, "a"), Speculative)
			gate := s.setGate()
			done := make(chan Reply, 1)
			go func() {
				reply, _ := e.Read(ctx, upd(0, 0, 10, "r"))
				done <- reply
			}()
			await(t, s.entered, "the read's flush")
			select {
			case reply := <-done:
				t.Fatalf("read returned %+v before the flush finished", reply)
			default:
			}
			close(gate)
			reply := <-done
			if reply.Status != StatusOK || !reply.Synced || string(reply.Payload) != "read" {
				t.Fatalf("reply = %+v", reply)
			}
			if rb := e.State().Stats().ReadBlocks; rb != 1 {
				t.Fatalf("read blocks = %d", rb)
			}
			// An unrelated key never blocks.
			if _, v := e.Read(ctx, upd(0, 0, 99, "r")); v != "fast" {
				t.Fatalf("verdict = %q", v)
			}
		}},
		{"GC collects exactly the flushed IDs", noBatch, func(t *testing.T, e *Engine, s *fakeSub) {
			e.Execute(ctx, upd(1, 1, 10, "a"), Speculative)
			gate := s.setGate()
			flushed := make(chan error, 1)
			go func() { flushed <- e.Sync(ctx) }()
			await(t, s.entered, "flush")
			// Executed while the flush is in flight: not durable with it, so
			// its witness record must survive this sync's gc.
			e.Execute(ctx, upd(1, 2, 11, "b"), Speculative)
			s.mu.Lock()
			s.gate = nil
			s.mu.Unlock()
			close(gate)
			if err := <-flushed; err != nil {
				t.Fatal(err)
			}
			want := witness.GCKeys([]uint64{10}, rifl.RPCID{Client: 1, Seq: 1})
			if len(s.gcCalls) != 1 || len(s.gcCalls[0]) != 1 || s.gcCalls[0][0] != want[0] {
				t.Fatalf("gc calls = %+v, want exactly %+v", s.gcCalls, want)
			}
			if err := e.Sync(ctx); err != nil {
				t.Fatal(err)
			}
			if len(s.gcCalls) != 2 || s.gcCalls[1][0].ID.Seq != 2 {
				t.Fatalf("second gc = %+v", s.gcCalls)
			}
		}},
		{"a stale witness record is retried exactly once", noBatch, func(t *testing.T, e *Engine, s *fakeSub) {
			orphan := witness.Record{KeyHashes: []uint64{77}, ID: rifl.RPCID{Client: 9, Seq: 1}, Request: []byte("orphan"), Class: commute.ClassWrite}
			// Reported by two witnesses in the first pass, and once more in
			// the second (its gc pair had not been delivered yet).
			s.staleOut = [][]witness.Record{{orphan, orphan}, {orphan}}
			e.Execute(ctx, upd(1, 1, 10, "a"), Speculative)
			if err := e.Sync(ctx); err != nil {
				t.Fatal(err)
			}
			await(t, s.gcDone, "first gc")
			// The retry kicked a follow-up sync that makes the orphan durable
			// and delivers its requeued gc pair.
			await(t, s.gcDone, "follow-up gc")
			settle(e) // the follow-up's own retry
			s.mu.Lock()
			defer s.mu.Unlock()
			if s.runs[orphan.ID] != 1 {
				t.Fatalf("orphan executed %d times", s.runs[orphan.ID])
			}
			requeued := false
			for _, k := range s.gcCalls[1] {
				requeued = requeued || k == witness.GCKey{KeyHash: 77, ID: orphan.ID}
			}
			if !requeued {
				t.Fatalf("orphan's gc pair not re-sent: %+v", s.gcCalls[1])
			}
			if e.State().SyncedLSN() != 2 {
				t.Fatalf("orphan not durable: synced = %d", e.State().SyncedLSN())
			}
		}},
		{"a lock-bounced stale record keeps its witness slot", noBatch, func(t *testing.T, e *Engine, s *fakeSub) {
			s.staleOut = [][]witness.Record{{{KeyHashes: []uint64{5}, ID: rifl.RPCID{Client: 9, Seq: 1}, Request: []byte("bounce")}}}
			e.Execute(ctx, upd(1, 1, 10, "a"), Speculative)
			if err := e.Sync(ctx); err != nil {
				t.Fatal(err)
			}
			settle(e)
			if len(e.gcRetry) != 0 {
				t.Fatalf("bounced record queued for gc: %+v", e.gcRetry)
			}
		}},
		{"a gated reply leaves at the durable point, before the gc replies", noBatch, func(t *testing.T, e *Engine, s *fakeSub) {
			gcGate := s.setGCGate()
			e.Execute(ctx, upd(1, 1, 10, "a"), Speculative)
			outs := []Outcome{e.Execute(ctx, upd(1, 2, 10, "b"), Speculative)}
			if v := e.Reveal(ctx, outs); v != "conflict-sync" || !outs[0].Reply.Synced {
				t.Fatalf("verdict = %q, reply = %+v", v, outs[0].Reply)
			}
			await(t, s.gcParked, "the tail's wait for the gc replies")
			if _, gc := s.counts(); gc != 1 || e.State().SyncedLSN() != 2 {
				t.Fatalf("gc started %d times, synced = %d", gc, e.State().SyncedLSN())
			}
			// The slot is still taken: a second sync queues behind the tail, and
			// HoldSync's exclusion covers the tail too.
			e.Execute(ctx, upd(1, 3, 11, "c"), Speculative)
			second := make(chan error, 1)
			go func() { second <- e.SyncTo(ctx, 3) }()
			held := make(chan struct{})
			go func() { _ = e.HoldSync(func() error { close(held); return nil }) }()
			awaitParked(t, 1)
			select {
			case <-held:
				t.Fatal("HoldSync ran inside a gc tail")
			case err := <-second:
				t.Fatalf("a second sync got the slot inside a gc tail (err = %v)", err)
			default:
			}
			if f, _ := s.counts(); f != 1 {
				t.Fatalf("flushes = %d inside the tail", f)
			}
			close(gcGate)
			if err := <-second; err != nil {
				t.Fatal(err)
			}
			await(t, held, "HoldSync after the tail")
			if f, gc := s.counts(); f != 2 || gc != 2 {
				t.Fatalf("flushes = %d, gc calls = %d after the gate opened", f, gc)
			}
			if n := e.slotWait.Snapshot().Count(); n != 2 {
				t.Fatalf("slot waits observed = %d, want the second sync's and HoldSync's", n)
			}
		}},
		{"a waiter leaves at the durable point only if it covers its LSN", noBatch, func(t *testing.T, e *Engine, s *fakeSub) {
			gcGate := s.setGCGate()
			e.Execute(ctx, upd(1, 1, 10, "a"), Speculative)
			gate := s.setGate()
			errs := make(chan error, 1)
			go func() { errs <- e.SyncTo(ctx, 1) }() // the driver
			await(t, s.entered, "driver's flush")
			// Executed while the flush is in flight: the next sync's.
			e.Execute(ctx, upd(1, 2, 11, "b"), Speculative)
			covered, later := make(chan error, 1), make(chan error, 1)
			go func() { covered <- e.SyncTo(ctx, 1) }()
			go func() { later <- e.SyncTo(ctx, 2) }()
			awaitParked(t, 2)
			s.mu.Lock()
			s.gate = nil
			s.mu.Unlock()
			close(gate)
			for _, ch := range []chan error{errs, covered} {
				if err := <-ch; err != nil {
					t.Fatal(err)
				}
			}
			await(t, s.gcParked, "the tail's wait for the gc replies")
			awaitParked(t, 1)
			select {
			case err := <-later:
				t.Fatalf("a waiter whose LSN the flush did not cover returned inside the tail (err = %v)", err)
			default:
			}
			close(gcGate)
			if err := <-later; err != nil {
				t.Fatal(err)
			}
			if f, _ := s.counts(); f != 2 || e.State().SyncedLSN() != 2 {
				t.Fatalf("flushes = %d, synced = %d", f, e.State().SyncedLSN())
			}
			if n := e.slotWait.Snapshot().Count(); n != 1 {
				t.Fatalf("slot waits observed = %d: riding the sync in flight is not queueing for the slot", n)
			}
		}},
		{"stale reports from a tail are retried and their pairs ride the next flush", noBatch, func(t *testing.T, e *Engine, s *fakeSub) {
			orphan := witness.Record{KeyHashes: []uint64{77}, ID: rifl.RPCID{Client: 9, Seq: 1}, Request: []byte("orphan"), Class: commute.ClassWrite}
			s.staleOut = [][]witness.Record{{orphan}}
			gcGate := s.setGCGate()
			e.Execute(ctx, upd(1, 1, 10, "a"), Speculative)
			if err := e.Sync(ctx); err != nil {
				t.Fatal(err)
			}
			await(t, s.gcDone, "first gc")
			await(t, s.gcParked, "the tail's wait for the gc replies")
			s.mu.Lock()
			ran := s.runs[orphan.ID]
			s.gcGate = nil
			s.mu.Unlock()
			if ran != 0 {
				t.Fatal("orphan executed before its stale report arrived")
			}
			close(gcGate)
			await(t, s.gcDone, "follow-up gc") // kicked by the retry
			settle(e)
			s.mu.Lock()
			defer s.mu.Unlock()
			if s.runs[orphan.ID] != 1 || e.State().SyncedLSN() != 2 {
				t.Fatalf("orphan executed %d times, synced = %d", s.runs[orphan.ID], e.State().SyncedLSN())
			}
			if len(s.gcCalls) != 2 || len(s.gcCalls[1]) != 2 || s.gcCalls[1][0] != (witness.GCKey{KeyHash: 77, ID: orphan.ID}) {
				t.Fatalf("second gc = %+v, want the requeued pair and the orphan's own entry", s.gcCalls)
			}
		}},
		{"a failed flush advances nothing and collects nothing", noBatch, func(t *testing.T, e *Engine, s *fakeSub) {
			e.Execute(ctx, upd(1, 1, 10, "a"), Speculative)
			outs := []Outcome{e.Execute(ctx, upd(1, 2, 10, "b"), Speculative)}
			s.flushErr, s.sticky = errors.New("disk on fire"), true
			if v := e.Reveal(ctx, outs); v != "error" {
				t.Fatalf("verdict = %q", v)
			}
			if r := outs[0].Reply; r.Status != StatusError || r.Synced || !strings.Contains(r.Err, "disk on fire") {
				t.Fatalf("reply = %+v", r)
			}
			if _, gc := s.counts(); gc != 0 || e.State().SyncedLSN() != 0 {
				t.Fatalf("gc calls = %d, synced = %d", gc, e.State().SyncedLSN())
			}
			// The next sync retries the same suffix and collects it whole.
			s.flushErr = nil
			if err := e.Sync(ctx); err != nil {
				t.Fatal(err)
			}
			if len(s.gcCalls) != 1 || len(s.gcCalls[0]) != 2 {
				t.Fatalf("gc after recovery = %+v", s.gcCalls)
			}
		}},
		{"a failed flush wakes every waiter with the error", noBatch, func(t *testing.T, e *Engine, s *fakeSub) {
			e.Execute(ctx, upd(1, 1, 10, "a"), Speculative)
			s.flushErr = errors.New("one-shot failure") // a re-driven flush would succeed
			gate := s.setGate()
			const waiters = 4
			errs := make(chan error, waiters+1)
			go func() { errs <- e.SyncTo(ctx, 1) }()
			await(t, s.entered, "driver's flush")
			for i := 0; i < waiters; i++ {
				go func() { errs <- e.SyncTo(ctx, 1) }()
			}
			awaitParked(t, waiters)
			close(gate)
			for i := 0; i < waiters+1; i++ {
				if err := <-errs; err == nil || !strings.Contains(err.Error(), "one-shot") {
					t.Fatalf("waiter %d: err = %v", i, err)
				}
			}
			if f, gc := s.counts(); f != 1 || gc != 0 {
				t.Fatalf("flushes = %d, gc calls = %d: a woken waiter re-drove the sync, or a failed flush collected", f, gc)
			}
		}},
		{"concurrent waiters coalesce onto one flush", noBatch, func(t *testing.T, e *Engine, s *fakeSub) {
			for seq := uint64(1); seq <= 8; seq++ {
				e.Execute(ctx, upd(1, seq, 100+seq, "x"), Speculative)
			}
			gate := s.setGate()
			const waiters = 8
			errs := make(chan error, waiters+1)
			go func() { errs <- e.SyncTo(ctx, 1) }()
			await(t, s.entered, "driver's flush")
			for i := 1; i <= waiters; i++ {
				lsn := uint64(i)
				go func() { errs <- e.SyncTo(ctx, lsn) }()
			}
			awaitParked(t, waiters)
			close(gate)
			for i := 0; i < waiters+1; i++ {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}
			if f, _ := s.counts(); f != 1 {
				t.Fatalf("flushes = %d, want 1", f)
			}
		}},
		{"the batch threshold kicks the background syncer", 4, func(t *testing.T, e *Engine, s *fakeSub) {
			for seq := uint64(1); seq <= 4; seq++ {
				if f, _ := s.counts(); f != 0 {
					t.Fatalf("flushed after %d ops, below the threshold", seq-1)
				}
				e.Execute(ctx, upd(1, seq, 100+seq, "x"), Speculative)
			}
			await(t, s.gcDone, "background sync")
			if st := e.State().Stats(); st.BatchSyncs != 1 || st.SpeculativeOps != 4 {
				t.Fatalf("stats = %+v", st)
			}
		}},
		{"replay ignores acks and reveals nothing", noBatch, func(t *testing.T, e *Engine, s *fakeSub) {
			// Restored from the log: seq 2 only. The witness also holds seq 1
			// and 3; an ack of "below 3" must not suppress seq 1's replay.
			e.Tracker().Record(rifl.RPCID{Client: 1, Seq: 2}, []byte("restored"))
			recs := []witness.Record{
				{KeyHashes: []uint64{12}, ID: rifl.RPCID{Client: 1, Seq: 3}, Request: []byte("c")},
				{KeyHashes: []uint64{11}, ID: rifl.RPCID{Client: 1, Seq: 2}, Request: []byte("b")},
				{KeyHashes: []uint64{10}, ID: rifl.RPCID{Client: 1, Seq: 1}, Request: []byte("a")},
			}
			e.Recover(ctx, recs)
			if len(s.log) != 2 || s.runs[recs[1].ID] != 0 {
				t.Fatalf("replayed %d records (restored one ran %d times)", len(s.log), s.runs[recs[1].ID])
			}
			late := upd(2, 5, 20, "late")
			late.Ack = 5
			early := upd(2, 4, 21, "early")
			if out := e.Execute(ctx, late, Replay); out.SyncTo != 0 || out.Reply.Status != StatusOK {
				t.Fatalf("replay outcome = %+v", out)
			}
			if out := e.Execute(ctx, early, Replay); out.Reply.Status != StatusOK || s.runs[early.ID] != 1 {
				t.Fatalf("an ack carried by a later replay suppressed an earlier one: %+v", out.Reply)
			}
			if f, _ := s.counts(); f != 0 || e.State().Stats().SpeculativeOps != 0 {
				t.Fatal("replay must not sync or count speculation")
			}
			if e.Tracker().RecoveryMode() {
				t.Fatal("recovery mode left on")
			}
		}},
		{"HoldSync excludes flushes", noBatch, func(t *testing.T, e *Engine, s *fakeSub) {
			e.Execute(ctx, upd(1, 1, 10, "a"), Speculative)
			errs := make(chan error, 1)
			herr := e.HoldSync(func() error {
				go func() { errs <- e.SyncTo(ctx, 1) }()
				awaitParked(t, 1)
				if f, _ := s.counts(); f != 0 {
					t.Errorf("flush ran inside HoldSync")
				}
				return errors.New("seed failed")
			})
			if herr == nil || herr.Error() != "seed failed" {
				t.Fatalf("HoldSync err = %v", herr)
			}
			if err := <-errs; err != nil {
				t.Fatalf("the holder's failure leaked to a waiter: %v", err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newFakeSub()
			e := NewEngine(s, MasterConfig{SyncBatchSize: tc.batch}, nil, metrics.NewHistogram())
			defer e.Close()
			e.State().SetWitnessListVersion(1)
			tc.run(t, e, s)
		})
	}
}

// demoting marks every execution Demote.
type demoting struct{ Substrate }

func (d demoting) Execute(ctx context.Context, req *Request, mode Mode) Executed {
	ex := d.Substrate.Execute(ctx, req, mode)
	ex.Demote = true
	return ex
}

// TestEngineCloseEndsCollector: Close with a gc tail in flight leaves no
// goroutine behind once the substrate's wait returns, and releases the slot.
func TestEngineCloseEndsCollector(t *testing.T) {
	ctx := context.Background()
	before := runtime.NumGoroutine()
	s := newFakeSub()
	e := NewEngine(s, MasterConfig{SyncBatchSize: 1 << 20}, nil, nil)
	e.State().SetWitnessListVersion(1)
	gcGate := s.setGCGate()
	e.Execute(ctx, upd(1, 1, 10, "a"), Speculative)
	if err := e.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	await(t, s.gcParked, "the tail's wait for the gc replies")
	e.Close()
	close(gcGate)
	settle(e)
	// A sync driven after Close runs its tail itself.
	e.Execute(ctx, upd(1, 2, 11, "b"), Speculative)
	if err := e.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	settle(e)
	if _, gc := s.counts(); gc != 2 {
		t.Fatalf("gc calls = %d, want 2", gc)
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before, %d after Close:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		runtime.Gosched()
	}
}
