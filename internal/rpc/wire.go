// Package rpc is a compact binary RPC framework over stream transports.
// It provides length-prefixed framing with request/response matching,
// concurrent calls over a single connection, per-call contexts, and a
// hand-rolled binary codec (Encoder/Decoder) used by all CURP message
// types. Only the standard library is used.
//
// Frame layout (all integers little-endian):
//
//	uint32  frame length (bytes after this field)
//	uint64  request ID (matches responses to calls)
//	uint8   kind (request | response | traced request)
//	uint16  opcode (requests) or status (responses)
//	[17]    trace context, traced requests only:
//	        uint64 trace ID, uint64 parent span ID, uint8 flags
//	...     payload
//
// A request whose context carries no trace uses the plain request kind and
// is byte-identical to the pre-tracing format.
package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Encoder builds binary message payloads. The zero value is ready to use.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder with a pre-sized buffer.
func NewEncoder(sizeHint int) *Encoder {
	return &Encoder{buf: make([]byte, 0, sizeHint)}
}

// Bytes returns the encoded payload.
func (e *Encoder) Bytes() []byte { return e.buf }

// Reset clears the encoder for reuse.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// U8 appends a byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// Bool appends a boolean as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U16 appends a little-endian uint16.
func (e *Encoder) U16(v uint16) { e.buf = binary.LittleEndian.AppendUint16(e.buf, v) }

// U32 appends a little-endian uint32.
func (e *Encoder) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// U64 appends a little-endian uint64.
func (e *Encoder) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// I64 appends a little-endian int64.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// Bytes32 appends a uint32 length prefix followed by b.
func (e *Encoder) Bytes32(b []byte) {
	if len(b) > math.MaxUint32 {
		panic("rpc: byte slice too large")
	}
	e.U32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	if len(s) > math.MaxUint32 {
		panic("rpc: string too large")
	}
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// U64Slice appends a length-prefixed slice of uint64s.
func (e *Encoder) U64Slice(vs []uint64) {
	e.U32(uint32(len(vs)))
	for _, v := range vs {
		e.U64(v)
	}
}

// Strings appends a length-prefixed list of length-prefixed strings.
func (e *Encoder) Strings(ss []string) {
	e.U32(uint32(len(ss)))
	for _, s := range ss {
		e.String(s)
	}
}

// ErrTruncated reports a payload shorter than its declared contents.
var ErrTruncated = errors.New("rpc: truncated message")

// Decoder reads binary message payloads. Errors are sticky: after the first
// failure all reads return zero values and Err reports the failure, so call
// sites can decode whole structs and check once.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps a payload for decoding.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Err returns the first decoding error, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("%w at offset %d", ErrTruncated, d.off)
	}
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.buf) {
		d.fail()
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads a byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a boolean.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// U16 reads a little-endian uint16.
func (d *Decoder) U16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a little-endian int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Bytes32 reads a uint32-length-prefixed byte slice. The returned slice
// aliases the underlying payload; copy it if it must outlive the payload.
func (d *Decoder) Bytes32() []byte {
	n := d.U32()
	if d.err != nil {
		return nil
	}
	if int(n) > d.Remaining() {
		d.fail()
		return nil
	}
	return d.take(int(n))
}

// BytesCopy32 reads a length-prefixed byte slice and copies it.
func (d *Decoder) BytesCopy32() []byte {
	b := d.Bytes32()
	if b == nil {
		return nil
	}
	cp := make([]byte, len(b))
	copy(cp, b)
	return cp
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	b := d.Bytes32()
	return string(b)
}

// Count reads the uint32 element count that prefixes a repeated field and
// checks it against the bytes left: count elements of at least
// minElemBytes each cannot fit in less. A count that fails the check fails
// the decoder and reads as 0, so a corrupt or hostile count can neither
// size an allocation nor bound a loop.
func (d *Decoder) Count(minElemBytes int) int {
	n := d.U32()
	if d.err != nil {
		return 0
	}
	if uint64(n)*uint64(minElemBytes) > uint64(d.Remaining()) {
		d.fail()
		return 0
	}
	return int(n)
}

// U64Slice reads a length-prefixed slice of uint64s.
func (d *Decoder) U64Slice() []uint64 {
	n := d.U32()
	if d.err != nil {
		return nil
	}
	if int(n)*8 > d.Remaining() {
		d.fail()
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = d.U64()
	}
	return out
}

// Strings reads a length-prefixed list of strings (nil when empty).
func (d *Decoder) Strings() []string {
	n := d.Count(4) // each string is at least its length prefix
	if n == 0 {
		return nil
	}
	ss := make([]string, 0, n)
	for i := 0; i < n; i++ {
		ss = append(ss, d.String())
	}
	return ss
}
