package core

import (
	"reflect"
	"testing"

	"curp/internal/commute"
	"curp/internal/rifl"
)

// The engine hands these envelopes to substrates straight off the wire, so
// the decoders must never panic, and what they accept must survive a round
// trip through the encoder unchanged.

func FuzzDecodeRequest(f *testing.F) {
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
		again, err := DecodeRequest(req.Encode())
		if err != nil || !reflect.DeepEqual(req, again) {
			t.Fatalf("round trip: %+v -> %+v (%v)", req, again, err)
		}
	})
}

func FuzzDecodeReply(f *testing.F) {
	f.Add((&Reply{}).Encode())
	f.Add((&Reply{Status: StatusOK, Synced: true, Payload: []byte("res")}).Encode())
	f.Add((&Reply{Status: StatusError, Err: "boom"}).Encode())
	f.Fuzz(func(t *testing.T, b []byte) {
		rep, err := DecodeReply(b)
		if err != nil {
			return
		}
		again, err := DecodeReply(rep.Encode())
		if err != nil || !reflect.DeepEqual(rep, again) {
			t.Fatalf("round trip: %+v -> %+v (%v)", rep, again, err)
		}
	})
}
