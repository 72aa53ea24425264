package dstore

import (
	"reflect"
	"testing"
)

// FuzzDecodeCommand: the engine decodes this straight off the wire (and out
// of the AOF on recovery), so the decoder must never panic, and what it
// accepts must survive a round trip through the encoder unchanged.
func FuzzDecodeCommand(f *testing.F) {
	for _, c := range []Command{
		{},
		{Op: OpSet, Key: []byte("k"), Value: []byte("v")},
		{Op: OpHMSet, Key: []byte("h"), Field: []byte("f"), Value: []byte("v")},
		{Op: OpIncr, Key: []byte("c"), Delta: -3},
		{Op: OpLRange, Key: []byte("l"), Start: 1, Stop: -1},
	} {
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
