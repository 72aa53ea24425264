// Package core implements the CURP protocol itself (paper §3–§4): the
// request/reply envelopes every CURP RPC uses, the master-side state
// machine that enforces commutativity among speculatively executed
// (unsynced) operations and decides when to sync, and the client-side
// protocol that records updates in witnesses in parallel with the master
// RPC and completes them in 1 RTT when possible.
//
// The package is substrate-agnostic: payloads are opaque bytes executed by
// a storage engine (internal/kv, internal/dstore), and the network is
// abstracted behind small interfaces so the same protocol logic is
// exercised by unit tests with fakes, the real cluster runtime
// (internal/cluster), and failure-injection tests.
package core

import (
	"curp/internal/commute"
	"curp/internal/rifl"
	"curp/internal/rpc"
)

// Status classifies a master's reply to an update or read RPC.
type Status uint8

const (
	// StatusOK: the operation executed; Payload holds the result.
	StatusOK Status = iota
	// StatusStaleWitnessList: the request carried an outdated
	// WitnessListVersion; the client must refetch its configuration and
	// retry (paper §3.6).
	StatusStaleWitnessList
	// StatusIgnored: RIFL classified the request as stale or from an
	// expired client; there is no result to return.
	StatusIgnored
	// StatusWrongMaster: this server does not own the key (crashed, not
	// the master, or the partition migrated); the client must refetch its
	// configuration.
	StatusWrongMaster
	// StatusError: execution failed; Err holds the message.
	StatusError
	// StatusKeyMoved: one of the request's keys lies in a range this
	// master is migrating away (frozen) or has already handed off to
	// another shard. The routing layer must refresh its ring and re-route;
	// the operation did NOT execute here (duplicates of operations that
	// executed before the freeze still return their saved result with
	// StatusOK).
	StatusKeyMoved
	// StatusTxnLocked: one of the request's keys is locked by a prepared
	// cross-shard transaction. The operation did NOT execute; the client
	// retries with backoff — the lock clears when the transaction's
	// decision arrives (or the master's lock-timeout resolution forces
	// one).
	StatusTxnLocked
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusStaleWitnessList:
		return "stale-witness-list"
	case StatusIgnored:
		return "ignored"
	case StatusWrongMaster:
		return "wrong-master"
	case StatusError:
		return "error"
	case StatusKeyMoved:
		return "key-moved"
	case StatusTxnLocked:
		return "txn-locked"
	}
	return "unknown"
}

// Request is the envelope of a client update or read RPC. The payload is an
// opaque substrate command; everything CURP needs (identity, commutativity
// footprint, configuration version) travels alongside it.
type Request struct {
	// ID is the RIFL identity of the RPC. Read-only requests may leave it
	// zero; they are not recorded in witnesses or completion tables.
	ID rifl.RPCID
	// Ack is the client's RIFL acknowledgment (paper §4.8).
	Ack rifl.Seq
	// WitnessListVersion is the version of the witness configuration the
	// client used; masters reject mismatches (paper §3.6).
	WitnessListVersion uint64
	// KeyHashes is the operation's commutativity footprint.
	KeyHashes []uint64
	// ReadOnly marks requests that cannot mutate state.
	ReadOnly bool
	// Payload is the substrate command.
	Payload []byte
	// Class is the operation's commutativity class. It travels in the
	// envelope so the conflict check can run before the payload is decoded,
	// but masters re-derive it from the decoded command before trusting it —
	// a client cannot widen its own fast path by lying. Reads use
	// commute.ClassWrite: a read never commutes with a pending mutation of
	// its key (§3.2.3: it would return unsynced state).
	Class commute.Class
}

// MinRequestWireSize is the smallest encoded Request: a batch decoder's count floor.
const MinRequestWireSize = 4*8 + 4 + 1 + 4 + 1

// Marshal appends the request's wire form to e.
func (r *Request) Marshal(e *rpc.Encoder) {
	e.U64(uint64(r.ID.Client))
	e.U64(uint64(r.ID.Seq))
	e.U64(uint64(r.Ack))
	e.U64(r.WitnessListVersion)
	e.U64Slice(r.KeyHashes)
	e.Bool(r.ReadOnly)
	e.Bytes32(r.Payload)
	e.U8(uint8(r.Class))
}

// Encode returns the request's wire form.
func (r *Request) Encode() []byte {
	e := rpc.NewEncoder(64 + len(r.Payload))
	r.Marshal(e)
	return e.Bytes()
}

// UnmarshalRequest decodes one request envelope from d, leaving d
// positioned after it (batch envelopes concatenate several). Payload
// aliases d's buffer: a request lives as long as its handler, and the
// substrate that executes it decodes the command out of the payload into
// copies of its own. KeyHashes, which the engine keeps in the completion
// record, is a copy.
func UnmarshalRequest(d *rpc.Decoder) (*Request, error) {
	r := &Request{
		ID:                 rifl.RPCID{Client: rifl.ClientID(d.U64()), Seq: rifl.Seq(d.U64())},
		Ack:                rifl.Seq(d.U64()),
		WitnessListVersion: d.U64(),
		KeyHashes:          d.U64Slice(),
		ReadOnly:           d.Bool(),
		Payload:            d.Bytes32(),
	}
	r.Class = commute.Class(d.U8())
	if err := d.Err(); err != nil {
		return nil, err
	}
	return r, nil
}

// DecodeRequest parses a request envelope.
func DecodeRequest(b []byte) (*Request, error) {
	return UnmarshalRequest(rpc.NewDecoder(b))
}

// Reply is the envelope of a master's response.
type Reply struct {
	Status Status
	// Synced is set when the operation's effects were replicated to
	// backups before this reply was sent. A client seeing Synced=true
	// completes the operation even if witnesses rejected its record RPCs
	// (paper §3.2.3: "the client doesn't need to send a sync RPC").
	Synced bool
	// Payload is the substrate result for StatusOK.
	Payload []byte
	// Err is the failure message for StatusError.
	Err string
}

// MinReplyWireSize is the smallest encoded Reply.
const MinReplyWireSize = 1 + 1 + 4 + 4

// Marshal appends the reply's wire form to e.
func (r *Reply) Marshal(e *rpc.Encoder) {
	e.U8(uint8(r.Status))
	e.Bool(r.Synced)
	e.Bytes32(r.Payload)
	e.String(r.Err)
}

// Encode returns the reply's wire form.
func (r *Reply) Encode() []byte {
	e := rpc.NewEncoder(16 + len(r.Payload))
	r.Marshal(e)
	return e.Bytes()
}

// UnmarshalReply decodes one reply envelope from d, leaving d positioned
// after it (batch envelopes concatenate several). Payload aliases d's
// buffer — the reply frame, which belongs to the caller that received it.
func UnmarshalReply(d *rpc.Decoder) (*Reply, error) {
	r := &Reply{
		Status: Status(d.U8()),
		Synced: d.Bool(),
	}
	r.Payload = d.Bytes32()
	r.Err = d.String()
	if err := d.Err(); err != nil {
		return nil, err
	}
	return r, nil
}

// DecodeReply parses a reply envelope.
func DecodeReply(b []byte) (*Reply, error) {
	return UnmarshalReply(rpc.NewDecoder(b))
}
