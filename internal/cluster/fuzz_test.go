package cluster

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"curp/internal/commute"
	"curp/internal/core"
	"curp/internal/health"
	"curp/internal/kv"
	"curp/internal/rifl"
	"curp/internal/rpc"
	"curp/internal/witness"
)

// The coordinator's wire decoders, fuzzed from their encoders' own output:
// no panic, no room reserved for more elements than the payload could hold,
// and decode(encode(x)) == x for everything a decoder accepts.

// fits fails the test when a decoder produced (or reserved room for) more
// elements than the payload could possibly hold.
func fits(t *testing.T, what string, elems, minElemBytes, payloadBytes int) {
	t.Helper()
	if elems*minElemBytes > payloadBytes {
		t.Fatalf("%s: room for %d elements of >= %d bytes from a %d-byte payload", what, elems, minElemBytes, payloadBytes)
	}
}

// FuzzDecodeViewInfo: every client decodes an OpGetView reply at boot and
// after each WrongMaster / StaleWitnessList bounce.
func FuzzDecodeViewInfo(f *testing.F) {
	f.Add((&ViewInfo{}).encode())
	f.Add((&ViewInfo{
		MasterID: 1, MasterAddr: "master1", WitnessListVersion: 7,
		WitnessAddrs: []string{"w1", "w2", "w3"}, BackupAddrs: []string{"b1", ""},
	}).encode())
	f.Fuzz(func(t *testing.T, b []byte) {
		v, err := decodeViewInfo(b)
		if err != nil {
			return
		}
		fits(t, "witnesses", cap(v.WitnessAddrs), 4, len(b))
		fits(t, "backups", cap(v.BackupAddrs), 4, len(b))
		again, err := decodeViewInfo(v.encode())
		if err != nil || !reflect.DeepEqual(v, again) {
			t.Fatalf("round trip: %+v -> %+v (%v)", v, again, err)
		}
	})
}

// FuzzDecodePartitionHealth: curpctl status decodes an OpHealthStatus reply
// from whichever coordinator replica answered.
func FuzzDecodePartitionHealth(f *testing.F) {
	f.Add((&PartitionHealth{}).encode())
	f.Add((&PartitionHealth{
		MasterID: 1, MasterAddr: "master1", Epoch: 2, WitnessListVersion: 3, SelfHealing: true,
		CoordRank: 1, CoordLeaderAddr: "coord", CoordTerm: 4, CoordCommit: 9, CoordReplicas: 3, CoordLeased: true,
		Nodes: []health.NodeStatus{
			{Role: health.RoleMaster, Addr: "master1", MasterID: 1, Age: time.Millisecond, Beats: 12,
				MeanGap: 2 * time.Millisecond, Alive: true,
				Last: health.Beat{Role: health.RoleMaster, Addr: "master1", MasterID: 1, Epoch: 2, HeadLSN: 40, Unsynced: 3}},
			{Role: health.RoleWitness, Addr: "w1", MasterID: 1, Age: time.Second},
		},
	}).encode())
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := decodePartitionHealth(b)
		if err != nil {
			return
		}
		// Role, empty addr, master ID, age, beats, gap, alive, empty beat.
		fits(t, "nodes", len(p.Nodes), 1+4+8+8+8+8+1+4, len(b))
		again, err := decodePartitionHealth(p.encode())
		if err != nil || !reflect.DeepEqual(p, again) {
			t.Fatalf("round trip: %+v -> %+v (%v)", p, again, err)
		}
	})
}

// FuzzRangesPayload: the (masterID, ranges) prefix every OpCoord*/OpMigrate*
// payload starts with, decoded by coordinators, masters and backups.
func FuzzRangesPayload(f *testing.F) {
	f.Add(encodeRangesPayload(0, nil))
	f.Add(encodeRangesPayload(7, []witness.HashRange{{Lo: 1, Hi: 2}, {Lo: ^uint64(0), Hi: 5}}))
	f.Fuzz(func(t *testing.T, b []byte) {
		d := rpc.NewDecoder(b)
		masterID, rs := rangesIn(d)
		fits(t, "ranges", cap(rs), 16, len(b))
		if d.Err() != nil {
			return
		}
		d = rpc.NewDecoder(encodeRangesPayload(masterID, rs))
		againID, again := rangesIn(d)
		if d.Err() != nil || againID != masterID || !reflect.DeepEqual(rs, again) {
			t.Fatalf("round trip: (%d, %v) -> (%d, %v) (%v)", masterID, rs, againID, again, d.Err())
		}
	})
}

// FuzzDecodeRecordRequest: every witness decodes one OpWitnessRecord per
// blocking update, from any client that can reach it.
func FuzzDecodeRecordRequest(f *testing.F) {
	f.Add((&recordRequest{}).encode())
	f.Add((&recordRequest{
		MasterID: 1, Version: 3, KeyHashes: []uint64{7, ^uint64(0)},
		ID: rifl.RPCID{Client: 9, Seq: 4}, Request: []byte("put k v"), Class: commute.ClassWrite,
	}).encode())
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := decodeRecordRequest(b)
		if err != nil {
			return
		}
		fits(t, "key hashes", cap(r.KeyHashes), 8, len(b))
		fits(t, "request", cap(r.Request), 1, len(b))
		if got := len(r.encode()); got > len(b) || got != cap(r.encode()) {
			t.Fatalf("encoder sized %d bytes (cap %d) for a %d-byte payload", got, cap(r.encode()), len(b))
		}
		again, err := decodeRecordRequest(r.encode())
		if err != nil || !reflect.DeepEqual(r, again) {
			t.Fatalf("round trip: %+v -> %+v (%v)", r, again, err)
		}
	})
}

// FuzzDecodeRecordBatchRequest: the pipelined form, one per flush.
func FuzzDecodeRecordBatchRequest(f *testing.F) {
	f.Add((&recordBatchRequest{}).encode())
	f.Add((&recordBatchRequest{MasterID: 1, Version: 2, Records: []witness.Record{
		{KeyHashes: []uint64{1}, ID: rifl.RPCID{Client: 5, Seq: 1}, Request: []byte("a"), Class: commute.ClassWrite},
		{KeyHashes: []uint64{2, 3}, ID: rifl.RPCID{Client: 5, Seq: 2}, Request: []byte{}},
	}}).encode())
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := decodeRecordBatchRequest(b)
		if err != nil {
			return
		}
		fits(t, "records", cap(r.Records), minRecordWireSize, len(b))
		for _, rec := range r.Records {
			fits(t, "key hashes", cap(rec.KeyHashes), 8, len(b))
		}
		again, err := decodeRecordBatchRequest(r.encode())
		if err != nil || !reflect.DeepEqual(r, again) {
			t.Fatalf("round trip: %+v -> %+v (%v)", r, again, err)
		}
	})
}

// FuzzDecodeUpdateBatch: the master decodes one OpUpdateBatch per pipeline
// flush, from any client that can reach it.
func FuzzDecodeUpdateBatch(f *testing.F) {
	f.Add(encodeUpdateBatch(nil))
	f.Add(encodeUpdateBatch([]*core.Request{
		{},
		{ID: rifl.RPCID{Client: 3, Seq: 7}, Ack: 5, WitnessListVersion: 2, KeyHashes: []uint64{10, 20},
			Payload: []byte("cmd"), Class: commute.ClassCounter},
	}))
	f.Fuzz(func(t *testing.T, b []byte) {
		reqs, err := decodeUpdateBatch(b)
		if err != nil {
			return
		}
		fits(t, "requests", cap(reqs), core.MinRequestWireSize, len(b))
		again, err := decodeUpdateBatch(encodeUpdateBatch(reqs))
		if err != nil || !reflect.DeepEqual(reqs, again) {
			t.Fatalf("round trip: %+v -> %+v (%v)", reqs, again, err)
		}
	})
}

// FuzzDecodeReplyBatch: the client's half of the same exchange.
func FuzzDecodeReplyBatch(f *testing.F) {
	f.Add(encodeReplyBatch(nil))
	f.Add(encodeReplyBatch([]core.Outcome{
		{Reply: core.Reply{Status: core.StatusOK, Synced: true, Payload: []byte("res")}},
		{Reply: core.Reply{Status: core.StatusError, Err: "boom"}},
		{},
	}))
	f.Fuzz(func(t *testing.T, b []byte) {
		replies, err := decodeReplyBatch(b)
		if err != nil {
			return
		}
		fits(t, "replies", cap(replies), core.MinReplyWireSize, len(b))
		outs := make([]core.Outcome, len(replies))
		for i, r := range replies {
			outs[i].Reply = *r
		}
		again, err := decodeReplyBatch(encodeReplyBatch(outs))
		if err != nil || !reflect.DeepEqual(replies, again) {
			t.Fatalf("round trip: %+v -> %+v (%v)", replies, again, err)
		}
	})
}

// FuzzUnmarshalBundle: a migration target decodes the bundle its source
// collected — objects, completion records, transaction decisions and live
// witness records in one payload.
func FuzzUnmarshalBundle(f *testing.F) {
	encode := func(b *MigrationBundle) []byte {
		e := rpc.NewEncoder(0)
		b.marshal(e)
		return e.Bytes()
	}
	f.Add(encode(&MigrationBundle{}))
	f.Add(encode(&MigrationBundle{
		Objects: []kv.MigratedObject{
			{Key: []byte("k"), Value: []byte("v"), Version: 3},
			{Key: []byte("gone"), Version: 9, Tombstone: true},
			{Key: []byte("leased"), Value: []byte("v"), Version: 2, ExpireAt: 1_700_000_000_000_000_000},
		},
		Completions: []rifl.Completion{{ID: rifl.RPCID{Client: 4, Seq: 1}, Result: []byte("r"), KeyHashes: []uint64{7}}},
		Decisions:   []kv.TxnDecisionRecord{{ID: rifl.RPCID{Client: 4, Seq: 2}, Commit: true, HomeHash: 11}},
		WitnessRecords: []witness.Record{
			{KeyHashes: []uint64{7, 8}, ID: rifl.RPCID{Client: 5, Seq: 1}, Request: []byte("put k v"), Class: commute.ClassCounter},
		},
	}))
	f.Fuzz(func(t *testing.T, b []byte) {
		bundle, err := unmarshalBundle(rpc.NewDecoder(b))
		if err != nil {
			return
		}
		fits(t, "objects", cap(bundle.Objects), minMigratedObjectWireSize, len(b))
		fits(t, "completions", cap(bundle.Completions), minCompletionWireSize, len(b))
		fits(t, "decisions", cap(bundle.Decisions), minDecisionWireSize, len(b))
		fits(t, "witness records", cap(bundle.WitnessRecords), minRecordWireSize, len(b))
		again, err := unmarshalBundle(rpc.NewDecoder(encode(bundle)))
		if err != nil || !reflect.DeepEqual(bundle, again) {
			t.Fatalf("round trip: %+v -> %+v (%v)", bundle, again, err)
		}
	})
}

// FuzzDecodePullReply: a state transfer's receiver — a recovering master, a
// backup being seeded — decodes a chunk per round trip from a source it
// does not control the health of. Seeded from the sender's own cut of an
// image, one chunk per section boundary.
func FuzzDecodePullReply(f *testing.F) {
	img := &stateImage{
		Snapshot: kv.Snapshot{
			LSN: 42,
			Objects: []kv.MigratedObject{
				{Key: []byte("k"), Value: []byte("v"), Version: 3},
				{Key: []byte("gone"), Version: 9, Tombstone: true},
				{Key: []byte("leased"), Value: []byte("v"), Version: 2, ExpireAt: 1_700_000_000_000_000_000},
			},
			Prepared: []kv.PreparedTxn{{
				ID:     rifl.RPCID{Client: 4, Seq: 2},
				Home:   kv.TxnHome{MasterID: 1, Addr: "m", KeyHash: 9},
				Writes: []kv.TxnWrite{{Op: kv.OpIncrement, Key: []byte("w"), Delta: -5}, {Op: kv.OpPut, Key: []byte("p"), Value: []byte("x")}},
				Keys:   [][]byte{[]byte("w"), []byte("p"), []byte("r")},
			}},
			Decisions:   []kv.TxnDecisionRecord{{ID: rifl.RPCID{Client: 4, Seq: 3}, Commit: true, HomeHash: 11}},
			Completions: []rifl.Completion{{ID: rifl.RPCID{Client: 4, Seq: 1}, Result: []byte("r"), KeyHashes: []uint64{7}}},
			Clients:     []rifl.ClientMark{{Client: 4, FirstUnacked: 1}, {Client: 5, Expired: true}},
		},
		Moved: []witness.HashRange{{Lo: 10, Hi: 20}},
	}
	f.Add((&pullReply{JobLost: true}).encode(0))
	for _, budget := range []int{1, 64, 1 << 20} {
		for cur, done := (transferCursor{}), false; !done; {
			var reply pullReply
			var size int
			reply.Chunk, size, reply.Next, reply.Done = img.cut(cur, budget)
			f.Add(reply.encode(size))
			cur, done = reply.Next, reply.Done
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		reply, err := decodePullReply(b)
		if err != nil {
			return
		}
		c := &reply.Chunk
		fits(t, "objects", cap(c.Objects), minMigratedObjectWireSize, len(b))
		fits(t, "prepared", cap(c.Prepared), minPreparedWireSize, len(b))
		for _, p := range c.Prepared {
			fits(t, "prepared writes", cap(p.Writes), minTxnWriteWireSize, len(b))
			fits(t, "prepared keys", cap(p.Keys), 4, len(b))
		}
		fits(t, "decisions", cap(c.Decisions), minDecisionWireSize, len(b))
		fits(t, "completions", cap(c.Completions), minCompletionWireSize, len(b))
		fits(t, "client marks", cap(c.Clients), minClientMarkWireSize, len(b))
		fits(t, "moved ranges", cap(c.Moved), hashRangeWireSize, len(b))
		again, err := decodePullReply(reply.encode(len(b)))
		if err != nil || !reflect.DeepEqual(reply, again) {
			t.Fatalf("round trip: %+v -> %+v (%v)", reply, again, err)
		}
	})
}

// TestBatchDecodersBoundPreallocation is the weakness the fuzzers above
// cannot see, because it sits on the failing path: a frame whose count
// claims one element per payload byte used to size the result slice before
// the first element failed to decode (a 16 MB frame: a 128 MB slice).
func TestBatchDecodersBoundPreallocation(t *testing.T) {
	const n = 1 << 16
	e := rpc.NewEncoder(4 + n)
	e.U32(n)
	hostile := append(e.Bytes(), make([]byte, n)...)
	for name, decode := range map[string]func([]byte) error{
		"update batch": func(b []byte) error { _, err := decodeUpdateBatch(b); return err },
		"reply batch":  func(b []byte) error { _, err := decodeReplyBatch(b); return err },
		"append request": func(b []byte) error {
			_, err := decodeAppendRequest(append(make([]byte, 16), b...))
			return err
		},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := decode(hostile)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: decoded %d elements from %d bytes", name, n, n)
		}
		// The append-request case copies the payload once to prefix it.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 2*n {
			t.Errorf("%s: allocated %d bytes refusing a %d-byte payload", name, grew, len(hostile))
		}
	}
}
