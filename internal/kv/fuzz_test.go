package kv

import (
	"reflect"
	"testing"

	"curp/internal/rifl"
	"curp/internal/rpc"
)

// FuzzDecodeCommand: the master decodes this straight off the wire, so the
// decoder must never panic, and what it accepts must survive a round trip
// through the encoder unchanged. Nothing shorter than the empty command
// decodes, and the empty entry encodes to exactly MinEntryWireSize.
func FuzzDecodeCommand(f *testing.F) {
	empty := rpc.NewEncoder(0)
	(&Entry{Cmd: &Command{}, Result: &Result{}}).Marshal(empty)
	minCommand := len((&Command{}).Encode())
	if en := len(empty.Bytes()); en != MinEntryWireSize || en != 4*8+minCommand+len((&Result{}).Encode()) {
		f.Fatalf("empty entry encodes to %d bytes, MinEntryWireSize = %d", en, MinEntryWireSize)
	}
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
		if len(b) < minCommand {
			t.Fatalf("decoded a command from %d bytes", len(b))
		}
		again, err := DecodeCommand(cmd.Encode())
		if err != nil || !reflect.DeepEqual(cmd, again) {
			t.Fatalf("round trip: %+v -> %+v (%v)", cmd, again, err)
		}
	})
}
