package rpc

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"testing"
	"testing/quick"

	"curp/internal/metrics"
)

// Robustness tests: no input — however malformed — may panic a decoder or
// the frame reader. Servers face untrusted bytes; the worst allowed
// outcome is an error.

// encodeFrame is writeFrameBuf's output for f.
func encodeFrame(t testing.TB, f frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeFrame(&buf, f); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadFrame feeds the frame reader a byte stream. Whatever the bytes,
// it must not panic, must not allocate more than the length a frame
// declares (a hostile prefix cannot size a buffer past the limit checks),
// and every frame it accepts must re-encode to exactly the bytes it was
// read from — so read(write(f)) == f for plain and traced frames alike.
func FuzzReadFrame(f *testing.F) {
	plain := encodeFrame(f, frame{requestID: 42, kind: kindRequest, code: 7, payload: []byte("hello")})
	traced := encodeFrame(f, frame{
		requestID: 7, kind: kindRequestTraced, code: 3,
		tc:      metrics.TraceContext{TraceID: 9, SpanID: 11, Flags: metrics.TraceFlagForce},
		payload: []byte("payload-bytes"),
	})
	f.Add(plain)
	f.Add(traced)
	f.Add(encodeFrame(f, frame{requestID: 1, kind: kindResponse, code: StatusError, payload: []byte("boom")}))
	f.Add(append(append([]byte(nil), plain...), traced...)) // two frames back to back
	f.Add(traced[:len(traced)-3])                           // truncated body
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})                   // length past MaxFrameSize
	f.Add([]byte{2, 0, 0, 0, 0, 0})                         // length below the header size
	// A traced frame whose body ends inside the trace context.
	short := append([]byte(nil), traced[:4+frameHeaderSize+metrics.TraceContextWireSize-1]...)
	binary.LittleEndian.PutUint32(short, uint32(frameHeaderSize+metrics.TraceContextWireSize-1))
	f.Add(short)

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var lenBuf [4]byte
		var m0, m1 runtime.MemStats
		for r.Len() > 0 {
			rest := data[len(data)-r.Len():]
			declared := uint64(0)
			if len(rest) >= 4 {
				if n := binary.LittleEndian.Uint32(rest); n <= MaxFrameSize {
					declared = uint64(n)
				}
			}
			runtime.ReadMemStats(&m0)
			fr, err := readFrame(r, &lenBuf)
			runtime.ReadMemStats(&m1)
			// TotalAlloc is process-wide, and the fuzzing engine allocates
			// beside the target: the slack absorbs that and still catches
			// a buffer sized by a prefix the limit checks should have
			// refused (up to 4 GB).
			if got := m1.TotalAlloc - m0.TotalAlloc; got > declared+declared/4+1<<20 {
				t.Fatalf("reading a frame declaring %d bytes allocated %d", declared, got)
			}
			if err != nil {
				return // any error (EOF, too-large, short) is fine
			}
			consumed := rest[:len(rest)-r.Len()]
			if extra := cap(fr.payload) - len(fr.payload); extra != 0 {
				t.Fatalf("the body of a frame declaring %d bytes was read into a buffer %d bytes larger", declared, extra)
			}
			if again := encodeFrame(t, fr); !bytes.Equal(again, consumed) {
				t.Fatalf("frame %+v re-encodes to %x, was read from %x", fr, again, consumed)
			}
		}
	})
}

// FuzzDecodeTraceContext: the 17-byte trace block rides every traced
// request frame. Short input must error with a zero context; anything else
// decodes, and re-encodes to the bytes it came from.
func FuzzDecodeTraceContext(f *testing.F) {
	var seed [metrics.TraceContextWireSize]byte
	metrics.TraceContext{TraceID: 9, SpanID: 11, Flags: metrics.TraceFlagForce}.EncodeTo(seed[:])
	f.Add(seed[:])
	f.Add(seed[:metrics.TraceContextWireSize-1])
	f.Add(make([]byte, metrics.TraceContextWireSize+5)) // the zero (untraced) context, with trailing payload
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tc, err := metrics.DecodeTraceContext(data)
		if len(data) < metrics.TraceContextWireSize {
			if err == nil || tc != (metrics.TraceContext{}) {
				t.Fatalf("short input (%d bytes) decoded to %+v, err %v", len(data), tc, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("full-size input rejected: %v", err)
		}
		var again [metrics.TraceContextWireSize]byte
		tc.EncodeTo(again[:])
		if !bytes.Equal(again[:], data[:metrics.TraceContextWireSize]) {
			t.Fatalf("%+v re-encodes to %x, was decoded from %x", tc, again, data[:metrics.TraceContextWireSize])
		}
		if tc.Valid() != (tc.TraceID != 0) || tc.Forced() != (data[16]&metrics.TraceFlagForce != 0) {
			t.Fatalf("%+v: Valid %v Forced %v", tc, tc.Valid(), tc.Forced())
		}
	})
}

func TestDecoderNeverPanicsOnGarbage(t *testing.T) {
	f := func(data []byte) bool {
		d := NewDecoder(data)
		// Drain with a representative mix of reads.
		d.U8()
		d.U16()
		d.U32()
		d.Bytes32()
		_ = d.String()
		d.U64Slice()
		d.BytesCopy32()
		d.I64()
		_ = d.Err()
		_ = d.Remaining()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestReadFrameTruncatedBody(t *testing.T) {
	full := encodeFrame(t, frame{requestID: 1, kind: kindRequest, code: 2, payload: []byte("hello")})
	var lenBuf [4]byte
	for cut := 1; cut < len(full); cut++ {
		_, err := readFrame(bytes.NewReader(full[:cut]), &lenBuf)
		if err == nil {
			t.Fatalf("truncated frame at %d accepted", cut)
		}
		if err != io.EOF && err != io.ErrUnexpectedEOF && err != ErrFrameTooLarge {
			// Any error type is acceptable; just ensure no panic and no nil.
			_ = err
		}
	}
}
