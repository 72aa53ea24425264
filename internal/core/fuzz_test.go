package core

import (
	"reflect"
	"testing"

	"curp/internal/commute"
	"curp/internal/rifl"
)

// The engine hands these envelopes to substrates straight off the wire, so
// the decoders must never panic, and what they accept must survive a round
// trip through the encoder unchanged. Nothing shorter than the exported
// minimum wire size decodes, and the zero value encodes to exactly it.

func FuzzDecodeRequest(f *testing.F) {
	if n := len((&Request{}).Encode()); n != MinRequestWireSize {
		f.Fatalf("empty request encodes to %d bytes, MinRequestWireSize = %d", n, MinRequestWireSize)
	}
	f.Add((&Request{}).Encode())
	f.Add((&Request{
		ID: rifl.RPCID{Client: 3, Seq: 7}, Ack: 5, WitnessListVersion: 2,
		KeyHashes: []uint64{10, 20}, ReadOnly: true, Payload: []byte("cmd"), Class: commute.ClassCounter,
	}).Encode())
	f.Fuzz(func(t *testing.T, b []byte) {
		req, err := DecodeRequest(b)
		if err != nil {
			return
		}
		if len(b) < MinRequestWireSize {
			t.Fatalf("decoded a request from %d bytes", len(b))
		}
		again, err := DecodeRequest(req.Encode())
		if err != nil || !reflect.DeepEqual(req, again) {
			t.Fatalf("round trip: %+v -> %+v (%v)", req, again, err)
		}
	})
}

func FuzzDecodeReply(f *testing.F) {
	if n := len((&Reply{}).Encode()); n != MinReplyWireSize {
		f.Fatalf("empty reply encodes to %d bytes, MinReplyWireSize = %d", n, MinReplyWireSize)
	}
	f.Add((&Reply{}).Encode())
	f.Add((&Reply{Status: StatusOK, Synced: true, Payload: []byte("res")}).Encode())
	f.Add((&Reply{Status: StatusError, Err: "boom"}).Encode())
	f.Fuzz(func(t *testing.T, b []byte) {
		rep, err := DecodeReply(b)
		if err != nil {
			return
		}
		if len(b) < MinReplyWireSize {
			t.Fatalf("decoded a reply from %d bytes", len(b))
		}
		again, err := DecodeReply(rep.Encode())
		if err != nil || !reflect.DeepEqual(rep, again) {
			t.Fatalf("round trip: %+v -> %+v (%v)", rep, again, err)
		}
	})
}
