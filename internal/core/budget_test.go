package core

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"curp/internal/commute"
	"curp/internal/metrics"
	"curp/internal/race"
	"curp/internal/rifl"
	"curp/internal/witness"
)

// tracedRig is newRig with a span collector attached, as every cluster
// client has one.
func tracedRig(f int) (*testRig, *metrics.Collector) {
	r := newRig(f)
	cfg := DefaultClientConfig()
	cfg.Trace = metrics.NewCollector("test-client", "client", 0)
	r.client = NewClient(rifl.NewSession(1), StaticView{r.view}, cfg)
	return r, cfg.Trace
}

// TestUpdateAllocBudget pins what one blocking Update costs the client
// engine against the fake master and three fake witnesses, traced. The
// fakes account for about half of it (the master's replies, RIFL records
// and result strings; the witnesses' result slices; and, since they cannot
// start a record themselves, the leg goroutine each is run on), which is
// why the pin is relative: the same test read 49 before Update ran the
// engine on the caller's goroutine with the request and the accept count
// inside the operation and one-object spans, and reads 26 now.
func TestUpdateAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const budget = 30
	r, _ := tracedRig(3)
	ctx := context.Background()
	payload := []byte("put")
	hash := uint64(0)
	update := func() {
		hash++ // distinct keys commute: every update takes the fast path
		if _, err := r.client.Update(ctx, []uint64{hash}, payload, commute.ClassWrite); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		update()
	}
	got := testing.AllocsPerRun(1000, update)
	t.Logf("%.1f allocs per Update (budget %d)", got, budget)
	if got > budget {
		t.Fatalf("a blocking Update allocates %.1f objects, budget is %d", got, budget)
	}
	if st := r.client.Stats(); st.FastPath != st.FastPath+st.SlowPath+st.SyncedByMaster {
		t.Fatalf("the measured updates left the fast path: %+v", st)
	}
}

// hungWitness starts record calls that never complete: a partitioned
// witness, as a flush sees it.
type hungWitness struct {
	*fakeWitness
	started, waited, cancelled atomic.Int32
}

func (h *hungWitness) StartRecordBatch(context.Context, uint64, []witness.Record) RecordCall {
	h.started.Add(1)
	return hungCall{h}
}

type hungCall struct{ h *hungWitness }

func (c hungCall) Wait(ctx context.Context, _ []witness.RecordResult) error {
	c.h.waited.Add(1)
	<-ctx.Done()
	return ctx.Err()
}

func (c hungCall) Cancel() { c.h.cancelled.Add(1) }

// TestSyncedReplyDoesNotWaitForWitnesses: §3.2.3 — once the master reports
// an operation synced, witness outcomes are irrelevant and must not be
// waited for. The flush completes with a witness that never answers, its
// started record is cancelled rather than left pending, and every span it
// opened is closed.
func TestSyncedReplyDoesNotWaitForWitnesses(t *testing.T) {
	r, coll := tracedRig(2)
	hung := &hungWitness{fakeWitness: newFakeWitness(1)}
	r.view.Witnesses = append(r.view.Witnesses, hung)
	r.master.syncedOnPath = true
	r.client.SetTraceFlags(metrics.TraceFlagForce) // keep the trace whatever its verdicts

	done := make(chan error, 1)
	go func() {
		_, err := r.client.Update(context.Background(), []uint64{7}, []byte("w"), commute.ClassWrite)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a synced update waited for a witness that never answers")
	}
	if st := r.client.Stats(); st.SyncedByMaster != 1 || st.SlowPath != 0 || st.Retries != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if s, w, c := hung.started.Load(), hung.waited.Load(), hung.cancelled.Load(); s != 1 || w != 0 || c != 1 {
		t.Fatalf("hung witness: %d started, %d waited, %d cancelled; want the one call cancelled, unwaited", s, w, c)
	}
	dump := coll.Dump()
	if len(dump.Traces) != 1 {
		t.Fatalf("traces = %+v", dump.Traces)
	}
	stages := map[string]int{}
	abandoned := 0
	for _, s := range dump.Traces[0].Spans {
		stages[s.Stage]++
		if s.Stage == "witness-record" && s.Verdict == "abandoned" {
			abandoned++
		}
	}
	// All three legs were left uncollected, so all three spans end abandoned.
	if stages["client-flush"] != 1 || stages["master-update"] != 1 || stages["witness-record"] != 3 || abandoned != 3 {
		t.Fatalf("recorded spans %v (%d abandoned): a span the flush opened was never ended", stages, abandoned)
	}
}
