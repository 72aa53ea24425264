package controlplane

import (
	"reflect"
	"testing"

	"curp/internal/witness"
)

// fits fails the test when a decoder produced (or reserved room for) more
// elements than the payload could possibly hold — the bound that keeps a
// hostile count from sizing an allocation.
func fits(t *testing.T, what string, elems, minElemBytes, payloadBytes int) {
	t.Helper()
	if elems*minElemBytes > payloadBytes {
		t.Fatalf("%s: room for %d elements of >= %d bytes from a %d-byte payload", what, elems, minElemBytes, payloadBytes)
	}
}

func commandFits(t *testing.T, c *Command, payloadBytes int) {
	t.Helper()
	fits(t, "witnesses", cap(c.Witnesses), 4, payloadBytes)
	fits(t, "backups", cap(c.Backups), 4, payloadBytes)
	fits(t, "ranges", cap(c.Ranges), 16, payloadBytes)
}

var fuzzSeedCommands = []Command{
	{},
	{Kind: CmdNoop},
	{Kind: CmdRegisterClient},
	{Kind: CmdAddPartition, Partition: 1, Epoch: 1, WLV: 1, Addr: "m1",
		Witnesses: []string{"w1", "w2", ""}, Backups: []string{"b1"}},
	{Kind: CmdSetMaster, Partition: 3, Epoch: 9, WLV: 4, Addr: "host:1",
		Witnesses: []string{"w1"}, Backups: []string{"b1", "b2"}},
	{Kind: CmdAddMoved, Partition: 1, Addr: "m2",
		Ranges: []witness.HashRange{{Lo: 1, Hi: 2}, {Lo: ^uint64(0), Hi: 5}}},
}

// FuzzDecodeCommand: every coordinator replica decodes this off the wire
// (OpCtrlPropose from followers, and inside every replication round), so
// the decoder must never panic, must not reserve memory the payload cannot
// back, and what it accepts must survive a round trip through the encoder.
func FuzzDecodeCommand(f *testing.F) {
	for i := range fuzzSeedCommands {
		f.Add(fuzzSeedCommands[i].Encode())
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		cmd, err := DecodeCommand(b)
		if err != nil {
			return
		}
		commandFits(t, cmd, len(b))
		again, err := DecodeCommand(cmd.Encode())
		if err != nil || !reflect.DeepEqual(cmd, again) {
			t.Fatalf("round trip: %+v -> %+v (%v)", cmd, again, err)
		}
	})
}

// FuzzDecodeAppendRequest: the replication round a follower accepts from
// whoever claims to lead.
func FuzzDecodeAppendRequest(f *testing.F) {
	f.Add((&AppendRequest{}).Encode())
	full := &AppendRequest{Term: 3, LeaderRank: 2, LeaderAddr: "coord3", Commit: 5}
	for i := range fuzzSeedCommands {
		full.Entries = append(full.Entries, Entry{Term: uint64(i), Cmd: fuzzSeedCommands[i]})
	}
	f.Add(full.Encode())
	f.Fuzz(func(t *testing.T, b []byte) {
		req, err := DecodeAppendRequest(b)
		if err != nil {
			return
		}
		fits(t, "entries", cap(req.Entries), 12, len(b))
		for i := range req.Entries {
			commandFits(t, &req.Entries[i].Cmd, len(b))
		}
		again, err := DecodeAppendRequest(req.Encode())
		if err != nil || !reflect.DeepEqual(req, again) {
			t.Fatalf("round trip: %+v -> %+v (%v)", req, again, err)
		}
	})
}
