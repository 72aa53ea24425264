package curp

import (
	"context"
	"testing"

	"curp/internal/metrics"
)

// TestConflictSyncTraceSpansThreeRoles is the end-to-end check on the
// distributed tracer: one contended op must come back as a single causal
// span tree stitched across at least three node roles. Hammering one key
// forces conflict-syncs (the witness still holds the previous write's key
// until the master syncs, so back-to-back writes are rejected and evicted
// to the slow path), conflict-sync promotes the trace under default
// tail-based sampling — no threshold, no forced flags — and the spans
// must then be recoverable from the per-node collectors and reassemble
// into a tree whose parent links resolve.
func TestConflictSyncTraceSpansThreeRoles(t *testing.T) {
	// A large fixed sync batch keeps witness records alive between
	// sequential puts, so same-key writes reliably conflict.
	c, err := Start(Options{F: 2, SyncBatchSize: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl, err := c.NewClient("trace-client")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ctx := context.Background()
	for i := 0; i < 50; i++ {
		if _, err := cl.Put(ctx, []byte("contended"), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if st := cl.Stats(); st.SyncedByMaster == 0 && st.SlowPath == 0 {
		t.Fatalf("workload produced no conflict-forced syncs (stats %+v); test premise broken", st)
	}

	// The master detects the same-key conflict and syncs before replying,
	// so its apply span carries verdict=conflict-sync and promotes the
	// trace on the master's collector. The client's root spans were
	// boring and stayed in its ring — Lookup must still recover them.
	colls := []*metrics.Collector{cl.inner.Trace()}
	for _, b := range c.inner.Nodes() {
		colls = append(colls, b.Trace)
	}
	var traceID uint64
	for _, coll := range colls {
		for _, tr := range coll.Dump().Traces {
			for _, s := range tr.Spans {
				if s.Verdict == "conflict-sync" {
					traceID = tr.TraceID
					break
				}
			}
			if traceID != 0 {
				break
			}
		}
		if traceID != 0 {
			break
		}
	}
	if traceID == 0 {
		t.Fatal("no conflict-sync trace promoted on any collector")
	}

	// Stitch: gather the trace's spans from every collector in the
	// deployment, exactly as curpctl trace does over HTTP.
	seen := make(map[uint64]metrics.WireSpan)
	for _, coll := range colls {
		for _, s := range coll.Lookup(traceID) {
			seen[s.SpanID] = s
		}
	}

	roles := make(map[string]bool)
	stages := make(map[string]bool)
	orphans := 0
	for _, s := range seen {
		roles[s.Role] = true
		stages[s.Stage] = true
		if s.Parent != 0 {
			if _, ok := seen[s.Parent]; !ok {
				orphans++
			}
		}
	}
	if len(roles) < 3 {
		t.Errorf("trace %s spans roles %v, want at least 3 (client, master, witness)",
			metrics.FormatTraceID(traceID), roles)
	}
	for _, want := range []string{"client", "master", "witness"} {
		if !roles[want] {
			t.Errorf("trace %s has no %s span", metrics.FormatTraceID(traceID), want)
		}
	}
	for _, want := range []string{"client-flush", "witness-record", "apply"} {
		if !stages[want] {
			t.Errorf("trace %s has no %s stage; stages: %v", metrics.FormatTraceID(traceID), want, stages)
		}
	}
	if orphans > 0 {
		t.Errorf("%d of %d spans have a parent missing from the stitched tree", orphans, len(seen))
	}
}
