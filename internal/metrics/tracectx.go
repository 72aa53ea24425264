package metrics

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
)

// TraceContext is the compact per-request tracing state that rides RPC
// frames: which trace the request belongs to, which span caused it, and how
// it is sampled. The zero value means "not traced" and encodes to nothing
// at all — untraced frames stay byte-identical to the pre-tracing wire
// format, so mixed-version clusters interoperate.
type TraceContext struct {
	TraceID uint64 // non-zero for a live trace
	SpanID  uint64 // the caller's span: parent of any span the callee records
	Flags   uint8  // sampling bits, see TraceFlag*
}

// TraceFlagForce marks a trace as always promoted (100% sampling) — used by
// benchmarks and debugging sessions that want every trace retained, not
// just the interesting tail.
const TraceFlagForce = 1 << 0

// TraceContextWireSize is the encoded size of a TraceContext on an RPC
// frame: u64 trace ID, u64 parent span ID, u8 flags, little endian.
const TraceContextWireSize = 17

// Valid reports whether tc carries a live trace.
func (tc TraceContext) Valid() bool { return tc.TraceID != 0 }

// Forced reports whether the force-sample bit is set.
func (tc TraceContext) Forced() bool { return tc.Flags&TraceFlagForce != 0 }

// EncodeTo writes the 17-byte wire form into dst[:TraceContextWireSize].
func (tc TraceContext) EncodeTo(dst []byte) {
	binary.LittleEndian.PutUint64(dst[0:], tc.TraceID)
	binary.LittleEndian.PutUint64(dst[8:], tc.SpanID)
	dst[16] = tc.Flags
}

// DecodeTraceContext parses the 17-byte wire form.
func DecodeTraceContext(b []byte) (TraceContext, error) {
	if len(b) < TraceContextWireSize {
		return TraceContext{}, fmt.Errorf("metrics: short trace context (%d bytes)", len(b))
	}
	return TraceContext{
		TraceID: binary.LittleEndian.Uint64(b[0:]),
		SpanID:  binary.LittleEndian.Uint64(b[8:]),
		Flags:   b[16],
	}, nil
}

// NewTraceID mints a random non-zero 64-bit ID. Span IDs come from the
// same generator; zero is reserved to mean "absent".
func NewTraceID() uint64 {
	for {
		if id := rand.Uint64(); id != 0 {
			return id
		}
	}
}

type traceCtxKey struct{}

// tracedCtx is a context that carries a TraceContext in a field rather
// than behind context.WithValue: installing a trace is one allocation (the
// value is not boxed), and Value answers the trace key with the tracedCtx
// itself, so reading it back allocates nothing.
type tracedCtx struct {
	context.Context
	tc TraceContext
}

// Value implements context.Context.
func (c *tracedCtx) Value(key any) any {
	if _, ok := key.(traceCtxKey); ok {
		return c
	}
	return c.Context.Value(key)
}

// ContextWithTrace returns ctx carrying tc. The RPC client reads it back
// out to pick the traced frame encoding; servers install the decoded
// context before invoking handlers, so propagation is automatic wherever a
// ctx is threaded.
func ContextWithTrace(ctx context.Context, tc TraceContext) context.Context {
	return &tracedCtx{Context: ctx, tc: tc}
}

// TraceFromContext extracts a live trace context from ctx.
func TraceFromContext(ctx context.Context) (TraceContext, bool) {
	c, ok := ctx.Value(traceCtxKey{}).(*tracedCtx)
	if !ok {
		return TraceContext{}, false
	}
	return c.tc, c.tc.Valid()
}
