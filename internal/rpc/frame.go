package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"curp/internal/metrics"
)

// Frame kinds.
const (
	kindRequest  = 0
	kindResponse = 1
	// kindRequestTraced is a request carrying a metrics.TraceContext: the
	// body is the 11-byte request header, then the 17-byte trace context,
	// then the payload. Requests without a trace context keep kindRequest
	// and are byte-identical to the pre-tracing format — the zero-context
	// encoding costs nothing and old peers interoperate while tracing is
	// off.
	kindRequestTraced = 2
)

// Response status codes.
const (
	// StatusOK: payload is the handler's reply.
	StatusOK uint16 = 0
	// StatusError: payload is a UTF-8 error message.
	StatusError uint16 = 1
)

// MaxFrameSize bounds a single frame, protecting servers from corrupt or
// hostile length prefixes.
const MaxFrameSize = 16 << 20

// ErrFrameTooLarge reports a frame exceeding MaxFrameSize.
var ErrFrameTooLarge = errors.New("rpc: frame exceeds size limit")

// frame is one wire message.
type frame struct {
	requestID uint64
	kind      uint8
	code      uint16 // opcode for requests, status for responses
	tc        metrics.TraceContext
	payload   []byte
}

const frameHeaderSize = 8 + 1 + 2

// writeFrame serializes f to w in a single Write call, so message-level
// latency models in the in-memory transport see one message per frame.
func writeFrame(w io.Writer, f frame) error {
	var scratch []byte
	return writeFrameBuf(w, f, &scratch)
}

// writeFrameBuf is writeFrame with a caller-owned scratch buffer, reused
// across frames on the same connection (writes are serialized per
// connection, so one buffer per conn suffices). The frame copy was one of
// the largest allocation sources on the hot path.
func writeFrameBuf(w io.Writer, f frame, scratch *[]byte) error {
	extra := 0
	if f.kind == kindRequestTraced {
		extra = metrics.TraceContextWireSize
	}
	total := frameHeaderSize + extra + len(f.payload)
	if total > MaxFrameSize {
		return ErrFrameTooLarge
	}
	need := 4 + total
	buf := *scratch
	if cap(buf) < need {
		buf = make([]byte, need, need+need/2)
		*scratch = buf
	} else {
		buf = buf[:need]
	}
	binary.LittleEndian.PutUint32(buf[0:], uint32(total))
	binary.LittleEndian.PutUint64(buf[4:], f.requestID)
	buf[12] = f.kind
	binary.LittleEndian.PutUint16(buf[13:], f.code)
	if extra != 0 {
		f.tc.EncodeTo(buf[15:])
	}
	copy(buf[15+extra:], f.payload)
	_, err := w.Write(buf)
	return err
}

// readFrame reads one frame from r. The frame comes back by value and the
// 4-byte length prefix lands in lenBuf, the reading connection's scratch
// (a local would escape through the io.Reader), so the body is the only
// allocation — sized by the declared length, after the limit checks.
func readFrame(r io.Reader, lenBuf *[4]byte) (frame, error) {
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return frame{}, err
	}
	n := binary.LittleEndian.Uint32(lenBuf[:])
	if n < frameHeaderSize {
		return frame{}, fmt.Errorf("rpc: short frame (%d bytes)", n)
	}
	if n > MaxFrameSize {
		return frame{}, ErrFrameTooLarge
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return frame{}, err
	}
	f := frame{
		requestID: binary.LittleEndian.Uint64(body[0:]),
		kind:      body[8],
		code:      binary.LittleEndian.Uint16(body[9:]),
		payload:   body[11:],
	}
	if f.kind == kindRequestTraced {
		tc, err := metrics.DecodeTraceContext(f.payload)
		if err != nil {
			return frame{}, err
		}
		f.tc = tc
		f.payload = f.payload[metrics.TraceContextWireSize:]
	}
	return f, nil
}
