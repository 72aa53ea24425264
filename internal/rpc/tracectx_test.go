package rpc

import (
	"bytes"
	"testing"
	"testing/quick"

	"curp/internal/metrics"
)

// Trace-context codec robustness: the 17-byte trace block rides every
// traced request frame, so it gets the same treatment as the frame codec —
// random round-trips must be lossless, garbage must error
// (FuzzDecodeTraceContext), and the untraced encoding must stay
// byte-identical to the pre-tracing format.

func TestTraceContextRoundTripQuick(t *testing.T) {
	f := func(traceID, spanID uint64, flags uint8) bool {
		in := metrics.TraceContext{TraceID: traceID, SpanID: spanID, Flags: flags}
		var buf [metrics.TraceContextWireSize]byte
		in.EncodeTo(buf[:])
		out, err := metrics.DecodeTraceContext(buf[:])
		return err == nil && out == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestTracedFrameRoundTripQuick(t *testing.T) {
	f := func(reqID, traceID, spanID uint64, flags uint8, code uint16, payload []byte) bool {
		if traceID == 0 {
			traceID = 1 // zero means "untraced"; the client never sends it traced
		}
		if len(payload) > 1<<16 {
			payload = payload[:1<<16]
		}
		var buf bytes.Buffer
		in := frame{
			requestID: reqID,
			kind:      kindRequestTraced,
			code:      code,
			tc:        metrics.TraceContext{TraceID: traceID, SpanID: spanID, Flags: flags},
			payload:   payload,
		}
		if err := writeFrame(&buf, in); err != nil {
			return false
		}
		var lenBuf [4]byte
		out, err := readFrame(&buf, &lenBuf)
		if err != nil {
			return false
		}
		return out.requestID == reqID && out.code == code &&
			out.kind == kindRequestTraced && out.tc == in.tc &&
			bytes.Equal(out.payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestUntracedFrameFormatUnchanged pins the mixed-version guarantee: a
// request without a trace context encodes exactly as before tracing
// existed, and a traced frame is exactly TraceContextWireSize longer.
func TestUntracedFrameFormatUnchanged(t *testing.T) {
	payload := []byte("payload-bytes")
	var plain, traced bytes.Buffer
	if err := writeFrame(&plain, frame{requestID: 7, kind: kindRequest, code: 3, payload: payload}); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(&traced, frame{
		requestID: 7, kind: kindRequestTraced, code: 3,
		tc:      metrics.TraceContext{TraceID: 9, SpanID: 11, Flags: metrics.TraceFlagForce},
		payload: payload,
	}); err != nil {
		t.Fatal(err)
	}
	if got, want := traced.Len(), plain.Len()+metrics.TraceContextWireSize; got != want {
		t.Fatalf("traced frame is %d bytes, want %d (plain %d + %d trace block)",
			got, want, plain.Len(), metrics.TraceContextWireSize)
	}
	if got, want := plain.Len(), 4+frameHeaderSize+len(payload); got != want {
		t.Fatalf("plain frame is %d bytes, want pre-tracing size %d", got, want)
	}
	// Truncating the trace block must error, never mis-parse as payload.
	raw := traced.Bytes()
	cut := append([]byte(nil), raw[:4+frameHeaderSize+metrics.TraceContextWireSize-1]...)
	// Patch the length prefix to match the truncated body.
	cut[0] = byte(frameHeaderSize + metrics.TraceContextWireSize - 1)
	cut[1], cut[2], cut[3] = 0, 0, 0
	var lenBuf [4]byte
	if _, err := readFrame(bytes.NewReader(cut), &lenBuf); err == nil {
		t.Fatal("frame with truncated trace context accepted")
	}
}
