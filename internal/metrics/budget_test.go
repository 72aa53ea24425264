package metrics

import (
	"context"
	"testing"

	"curp/internal/race"
)

// TestSpanAllocBudget: opening a span allocates ONE object — the handle is
// also the context that carries the span downstream — and ending it, or
// reading the trace context back out, allocates nothing.
func TestSpanAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	c := NewCollector("n", "client", 0)
	bg := context.Background()
	root, rootSpan := c.StartTrace(bg, "client-flush", 0)
	defer rootSpan.End()
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"StartTrace+End", func() {
			ctx, sp := c.StartTrace(bg, "client-flush", 0)
			if _, ok := TraceFromContext(ctx); !ok {
				t.Fatal("the returned ctx carries no trace")
			}
			sp.End()
		}},
		{"StartSpan+End", func() {
			ctx, sp := c.StartSpan(root, "witness-record")
			if _, ok := TraceFromContext(ctx); !ok {
				t.Fatal("the returned ctx carries no trace")
			}
			sp.SetVerdict("accept")
			sp.End()
		}},
		{"ContextWithTrace", func() {
			ctx := ContextWithTrace(bg, TraceContext{TraceID: 1, SpanID: 2})
			if _, ok := TraceFromContext(ctx); !ok {
				t.Fatal("the returned ctx carries no trace")
			}
		}},
	} {
		if got := testing.AllocsPerRun(1000, tc.fn); got > 1 {
			t.Errorf("%s allocates %.0f objects, budget is 1", tc.name, got)
		}
	}
}

// TestSpanHandleIsItsContext: the ctx a span start returns parents
// children to that span, passes the outer context's values and
// cancellation through, and survives being wrapped.
func TestSpanHandleIsItsContext(t *testing.T) {
	type key struct{}
	c := NewCollector("n", "client", 0)
	outer, cancel := context.WithCancel(context.WithValue(context.Background(), key{}, "v"))
	ctx, root := c.StartTrace(outer, "client-flush", TraceFlagForce)
	tc, ok := TraceFromContext(ctx)
	if !ok || tc.TraceID == 0 || tc.SpanID == 0 || !tc.Forced() {
		t.Fatalf("root trace context = %+v, %v", tc, ok)
	}
	if ctx.Value(key{}) != "v" {
		t.Fatal("the span's ctx hides its parent's values")
	}
	wrapped, cancelWrapped := context.WithCancel(ctx)
	defer cancelWrapped()
	child, sp := c.StartSpan(wrapped, "master-update")
	ctc, _ := TraceFromContext(child)
	if ctc.TraceID != tc.TraceID || ctc.SpanID == tc.SpanID || ctc.Flags != tc.Flags {
		t.Fatalf("child trace context = %+v under %+v", ctc, tc)
	}
	sp.End()
	root.End()
	spans := c.Lookup(tc.TraceID)
	if len(spans) != 2 {
		t.Fatalf("spans = %+v", spans)
	}
	for _, s := range spans {
		if s.Stage == "master-update" && s.Parent != tc.SpanID {
			t.Fatalf("child span's parent = %x, want the root span %x", s.Parent, tc.SpanID)
		}
		if s.Stage == "client-flush" && (s.Parent != 0 || s.SpanID != tc.SpanID) {
			t.Fatalf("root span = %+v", s)
		}
	}
	cancel()
	select {
	case <-child.Done():
	default:
		t.Fatal("cancelling the outer ctx did not reach the span's ctx")
	}
	if _, ok := TraceFromContext(context.Background()); ok {
		t.Fatal("a bare context carries a trace")
	}
}
