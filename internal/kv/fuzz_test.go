package kv

import (
	"reflect"
	"testing"

	"curp/internal/rifl"
)

// FuzzDecodeCommand: the master decodes this straight off the wire, so the
// decoder must never panic, and what it accepts must survive a round trip
// through the encoder unchanged.
func FuzzDecodeCommand(f *testing.F) {
	put := Command{Op: OpPut, Key: []byte("k"), Value: []byte("v"), ExpireAt: 99}
	multi := Command{Op: OpMultiPut, Pairs: []KV{{Key: []byte("a"), Value: []byte("1")}, {Key: []byte("b")}}}
	record := MigrateRecord((&Result{Found: true, Value: []byte("7")}).Encode(), []uint64{1, 2})
	prepare := Command{Op: OpTxnPrepare, Txn: &TxnCommand{
		ID:     rifl.RPCID{Client: 4, Seq: 2},
		Home:   TxnHome{MasterID: 1, Addr: "m", KeyHash: 9},
		Reads:  []TxnRead{{Key: []byte("r"), Version: 3}},
		Writes: []TxnWrite{{Op: OpIncrement, Key: []byte("w"), Delta: -5}},
	}}
	for _, c := range []Command{{}, put, multi, record, prepare} {
		f.Add(c.Encode())
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		cmd, err := DecodeCommand(b)
		if err != nil {
			return
		}
		again, err := DecodeCommand(cmd.Encode())
		if err != nil || !reflect.DeepEqual(cmd, again) {
			t.Fatalf("round trip: %+v -> %+v (%v)", cmd, again, err)
		}
	})
}
