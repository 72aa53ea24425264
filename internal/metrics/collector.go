package metrics

import (
	"context"
	"encoding/json"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Collector is one node's end of the distributed tracer: every span is
// recorded into the bounded ring, but a trace is only *promoted* (retained
// for /trace and curpctl) when one of its spans is interesting — slow,
// errored, or carrying a verdict that evicted the op from the 1-RTT path.
// That tail-based rule keeps the default overhead near zero: the common
// fast-path trace costs a few ring writes and one map probe, then vanishes
// as the ring wraps.
//
// A nil *Collector is fully disabled; every method is a no-op.
type Collector struct {
	node      string
	role      string
	shard     atomic.Int64
	threshold atomic.Int64 // ns; spans at/above promote their trace. <=0: only errors/verdicts promote.
	ring      *spanRing

	mu       sync.Mutex
	promoted map[uint64]*promotedTrace
	order    []uint64 // promotion order, oldest first (eviction queue)
	maxKeep  int
}

type promotedTrace struct {
	spans []WireSpan
}

const (
	defaultRingSpans  = 4096
	defaultKeepTraces = 128
	maxSpansPerTrace  = 256
)

// NewCollector creates a collector for one node role. threshold is the
// trace-promotion latency bound (0 keeps only errored/evicted traces).
func NewCollector(node, role string, threshold time.Duration) *Collector {
	c := &Collector{
		node:     node,
		role:     role,
		ring:     newSpanRing(defaultRingSpans),
		promoted: make(map[uint64]*promotedTrace),
		maxKeep:  defaultKeepTraces,
	}
	c.shard.Store(-1)
	c.threshold.Store(int64(threshold))
	return c
}

// SetShard records the shard index stamped on spans (-1 = unknown).
func (c *Collector) SetShard(i int) {
	if c != nil {
		c.shard.Store(int64(i))
	}
}

// SetThreshold changes the promotion threshold at runtime.
func (c *Collector) SetThreshold(d time.Duration) {
	if c != nil {
		c.threshold.Store(int64(d))
	}
}

// Threshold returns the promotion threshold.
func (c *Collector) Threshold() time.Duration { return time.Duration(c.threshold.Load()) }

// InterestingVerdict reports whether verdict v promotes a trace on its own
// — exported for curpctl's waterfall, which highlights the evicting span.
func InterestingVerdict(v string) bool { return interestingVerdict(v) }

// interestingVerdict lists the verdicts that promote a trace on their own:
// every way an op leaves the 1-RTT path, plus outright failures.
func interestingVerdict(v string) bool {
	switch v {
	case "conflict-sync", "locked", "blocked", "moved", "redirect",
		"error", "stale-epoch", "wrong-master", "reject-conflict",
		"reject-full", "reject-wrong-master", "reject-recovery":
		return true
	}
	return false
}

// StartTrace mints a fresh trace with a root span at stage and returns a
// ctx carrying it — downstream RPCs made with that ctx join the trace.
// flags selects sampling (TraceFlagForce for 100%).
func (c *Collector) StartTrace(ctx context.Context, stage string, flags uint8) (context.Context, *SpanHandle) {
	if c == nil {
		return ctx, nil
	}
	h := c.open(ctx, TraceContext{TraceID: NewTraceID(), Flags: flags}, stage)
	return h, h
}

// StartSpan opens a child span under ctx's trace and returns a ctx
// re-parented to it. Without a live trace in ctx it returns ctx unchanged
// and a nil handle (all methods no-ops) — the fast-path cost of an
// untraced request is one context probe.
func (c *Collector) StartSpan(ctx context.Context, stage string) (context.Context, *SpanHandle) {
	if c == nil {
		return ctx, nil
	}
	tc, ok := TraceFromContext(ctx)
	if !ok {
		return ctx, nil
	}
	h := c.open(ctx, tc, stage)
	return h, h
}

// open starts a span under parent (whose SpanID is zero for a root). The
// handle is also the context that carries the new span downstream: one
// object, one allocation.
func (c *Collector) open(ctx context.Context, parent TraceContext, stage string) *SpanHandle {
	id := NewTraceID()
	return &SpanHandle{
		tracedCtx: tracedCtx{Context: ctx, tc: TraceContext{TraceID: parent.TraceID, SpanID: id, Flags: parent.Flags}},
		c:         c,
		start:     time.Now(),
		s: WireSpan{
			TraceID: parent.TraceID,
			SpanID:  id,
			Parent:  parent.SpanID,
			Node:    c.node,
			Role:    c.role,
			Shard:   int(c.shard.Load()),
			Stage:   stage,
		},
	}
}

// RecordSpan records an already-measured span as a child of ctx's current
// span — for stages timed inline that never re-parent downstream calls
// (apply, sync-wait, lock-wait attribution on servers).
func (c *Collector) RecordSpan(ctx context.Context, stage, op, verdict string, start time.Time, dur time.Duration, errText string) {
	if c == nil {
		return
	}
	tc, ok := TraceFromContext(ctx)
	if !ok {
		return
	}
	c.record(WireSpan{
		TraceID: tc.TraceID,
		SpanID:  NewTraceID(),
		Parent:  tc.SpanID,
		Node:    c.node,
		Role:    c.role,
		Shard:   int(c.shard.Load()),
		Stage:   stage,
		Op:      op,
		Verdict: verdict,
		Start:   start.UnixNano(),
		Dur:     int64(dur),
		Err:     errText,
	}, tc.Flags)
}

func (c *Collector) record(s WireSpan, flags uint8) {
	c.ring.add(s)
	th := c.threshold.Load()
	interesting := flags&TraceFlagForce != 0 ||
		(th > 0 && s.Dur >= th) ||
		s.Err != "" ||
		interestingVerdict(s.Verdict)
	c.mu.Lock()
	defer c.mu.Unlock()
	pt := c.promoted[s.TraceID]
	if pt == nil {
		if !interesting {
			return
		}
		// Pull the trace's earlier spans out of the ring: tail-based
		// promotion retroactively keeps the boring prefix.
		pt = &promotedTrace{spans: c.ring.collect(s.TraceID, nil)}
		c.promoted[s.TraceID] = pt
		c.order = append(c.order, s.TraceID)
		for len(c.order) > c.maxKeep {
			delete(c.promoted, c.order[0])
			c.order = c.order[1:]
		}
		return
	}
	if len(pt.spans) < maxSpansPerTrace {
		pt.spans = append(pt.spans, s)
	}
}

// SpanHandle is an open span; End measures and records it. A nil handle is
// inert, so call sites never branch on sampling state. A live handle is
// also the context StartTrace/StartSpan return — the ctx that parents
// downstream spans and RPCs to this span — which stays valid after End.
type SpanHandle struct {
	tracedCtx
	c     *Collector
	start time.Time
	s     WireSpan
}

// SetOp annotates the span with the operation name.
func (h *SpanHandle) SetOp(op string) {
	if h != nil {
		h.s.Op = op
	}
}

// SetVerdict annotates the span with the path verdict ("fast",
// "conflict-sync", "locked", ...). Interesting verdicts promote the trace.
func (h *SpanHandle) SetVerdict(v string) {
	if h != nil {
		h.s.Verdict = v
	}
}

// SetErr annotates the span with a failure; errors always promote.
func (h *SpanHandle) SetErr(err error) {
	if h != nil && err != nil {
		h.s.Err = err.Error()
	}
}

// End closes the span and records it.
func (h *SpanHandle) End() {
	if h == nil {
		return
	}
	h.s.Start = h.start.UnixNano()
	h.s.Dur = int64(time.Since(h.start))
	h.c.record(h.s, h.tc.Flags)
}

// TraceDump is the /trace JSON document: one node's promoted traces.
type TraceDump struct {
	Node   string      `json:"node"`
	Role   string      `json:"role"`
	Shard  int         `json:"shard"`
	Traces []TraceJSON `json:"traces"`
}

// TraceJSON is one trace's spans, sorted by start time.
type TraceJSON struct {
	TraceID uint64     `json:"trace_id"`
	Spans   []WireSpan `json:"spans"`
}

// Dump snapshots the promoted traces, newest promotion first.
func (c *Collector) Dump() TraceDump {
	d := TraceDump{Node: c.node, Role: c.role, Shard: int(c.shard.Load()), Traces: []TraceJSON{}}
	c.mu.Lock()
	for i := len(c.order) - 1; i >= 0; i-- {
		id := c.order[i]
		pt := c.promoted[id]
		if pt == nil {
			continue
		}
		spans := append([]WireSpan(nil), pt.spans...)
		d.Traces = append(d.Traces, TraceJSON{TraceID: id, Spans: spans})
	}
	c.mu.Unlock()
	for i := range d.Traces {
		sortSpans(d.Traces[i].Spans)
	}
	return d
}

// Lookup returns every span of traceID this node still holds: the promoted
// record plus anything surviving in the ring (a node whose spans were all
// boring can still answer for a trace a peer promoted).
func (c *Collector) Lookup(traceID uint64) []WireSpan {
	if c == nil {
		return nil
	}
	var spans []WireSpan
	c.mu.Lock()
	if pt := c.promoted[traceID]; pt != nil {
		spans = append(spans, pt.spans...)
	}
	c.mu.Unlock()
	spans = c.ring.collect(traceID, spans)
	seen := make(map[uint64]bool, len(spans))
	out := spans[:0]
	for _, s := range spans {
		if !seen[s.SpanID] {
			seen[s.SpanID] = true
			out = append(out, s)
		}
	}
	sortSpans(out)
	return out
}

func sortSpans(spans []WireSpan) {
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].SpanID < spans[j].SpanID
	})
}

// TraceHandler serves GET /trace (all promoted traces) and
// GET /trace?id=<hex trace id> (one trace, promoted ∪ ring).
func (c *Collector) TraceHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if c == nil {
			http.Error(w, "tracing disabled", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if idStr := req.URL.Query().Get("id"); idStr != "" {
			id, err := ParseTraceID(idStr)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			spans := c.Lookup(id)
			if spans == nil {
				spans = []WireSpan{}
			}
			writeJSON(w, TraceDump{Node: c.node, Role: c.role, Shard: int(c.shard.Load()),
				Traces: []TraceJSON{{TraceID: id, Spans: spans}}})
			return
		}
		writeJSON(w, c.Dump())
	})
}

// MultiTraceHandler serves /trace over several collectors — an embedded
// process co-hosting many node roles. The list form answers with a JSON
// array of per-node TraceDump documents; the ?id= form answers with every
// node's spans for that trace (same array shape, one entry per node that
// holds spans). fetch runs per request so failovers swap collectors
// transparently.
func MultiTraceHandler(fetch func() []*Collector) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		colls := fetch()
		w.Header().Set("Content-Type", "application/json")
		if idStr := req.URL.Query().Get("id"); idStr != "" {
			id, err := ParseTraceID(idStr)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			dumps := []TraceDump{}
			for _, c := range colls {
				if c == nil {
					continue
				}
				spans := c.Lookup(id)
				if len(spans) == 0 {
					continue
				}
				dumps = append(dumps, TraceDump{Node: c.node, Role: c.role, Shard: int(c.shard.Load()),
					Traces: []TraceJSON{{TraceID: id, Spans: spans}}})
			}
			writeJSON(w, dumps)
			return
		}
		dumps := []TraceDump{}
		for _, c := range colls {
			if c == nil {
				continue
			}
			dumps = append(dumps, c.Dump())
		}
		writeJSON(w, dumps)
	})
}

func writeJSON(w http.ResponseWriter, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	b = append(b, '\n')
	w.Write(b)
}

// ParseTraceID parses the canonical %016x form (plain decimal also
// accepted for convenience).
func ParseTraceID(s string) (uint64, error) {
	if id, err := strconv.ParseUint(s, 16, 64); err == nil {
		return id, nil
	}
	return strconv.ParseUint(s, 10, 64)
}

// FormatTraceID renders a trace ID in the canonical form used by curpctl
// and accepted by /trace?id=.
func FormatTraceID(id uint64) string {
	return strconv.FormatUint(id, 16)
}
