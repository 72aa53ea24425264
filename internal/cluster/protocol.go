// Package cluster is the runnable CURP cluster: RPC servers for masters,
// backups, and witnesses, a coordinator (configuration manager) that owns
// witness lists and orchestrates crash recovery, and a client that speaks
// the full protocol over any transport.Network. It composes the protocol
// logic of internal/core with the storage substrate of internal/kv.
//
// The same binaries run over the in-memory network (tests, benchmarks,
// failure injection) and TCP (cmd/curpd).
package cluster

import (
	"context"
	"time"

	"curp/internal/commute"
	"curp/internal/core"
	"curp/internal/health"
	"curp/internal/kv"
	"curp/internal/rifl"
	"curp/internal/rpc"
	"curp/internal/transport"
	"curp/internal/witness"
)

// RPC opcodes. One flat space shared by all server roles; servers register
// only the opcodes for the roles they host.
const (
	// Client → master.
	OpUpdate uint16 = iota + 1
	OpRead
	OpSync
	// OpReadStale serves the §A.3 mitigation for read-blocking: it returns
	// the latest DURABLE value of a key without waiting for a sync, from
	// the master's durable-value cache ("the structure of the durable
	// value cache is same as that of witnesses"). The result may trail the
	// linearizable value by the unsynced window; apps opt in per read.
	OpReadStale

	// Client → witness.
	OpWitnessRecord
	OpWitnessCommutes

	// Master / recovery → witness.
	OpWitnessGC
	OpWitnessRecoveryData

	// Coordinator → witness.
	OpWitnessStart
	OpWitnessEnd

	// Master / recovery → backup; coordinator → backup.
	OpBackupAppend
	// OpBackupProbe asks how far a backup's state goes (its synced LSN):
	// a recovering master probes every backup and pulls from the most
	// advanced.
	OpBackupProbe
	OpBackupRead
	OpBackupSetEpoch
	// OpBackupInstall tells a backup to pull the master's whole state (a
	// state transfer with the backup as receiver) into a replica built
	// aside, and to swap it in when complete: how a master seeds a fresh
	// backup and re-seeds every backup after a recovery.
	OpBackupInstall

	// Client / servers → coordinator.
	OpGetView
	OpRegisterClient
	OpRenewLease

	// Migration driver → master (live shard rebalancing; see migration.go).
	OpMigrateCollect
	OpMigrateInstall
	OpMigrateComplete
	OpMigrateAbort
	OpMigrateDrop
	// Migration driver / coordinator → backup: mark ranges moved so §A.1
	// backup reads on handed-off keys bounce instead of serving stale or
	// missing values to clients still holding the old ring.
	OpBackupDropRange

	// Migration driver → coordinator: record / forget ranges that migrated
	// away from a partition, so crash recovery does not resurrect them.
	OpCoordAddMoved
	OpCoordDelMoved
	// Migration driver → coordinator: record / forget ranges a migration
	// step is transferring out of a partition, so a recovery DURING the
	// step keeps them frozen instead of serving them.
	OpCoordAddFrozen
	OpCoordDelFrozen

	// Client → witness: retract the client's own records of RPCs it is
	// abandoning after a StatusKeyMoved bounce. Unlike OpWitnessGC it does
	// not advance the witness's staleness clock, and it errors in recovery
	// mode — the records were already surfaced to a recovering master, so
	// the client must NOT abandon the RPC IDs. The request carries any
	// number of (keyHash, id) pairs, so one RPC per witness retracts a
	// whole abandoned pipeline flush.
	OpWitnessDrop

	// Client → master: a pipelined batch of update requests, executed in
	// order, answered with one reply per request. The coalesced form of
	// OpUpdate; a batch of one is equivalent to OpUpdate.
	OpUpdateBatch
	// Client → witness: a pipelined batch of record requests, accepted or
	// rejected per record under one lock acquisition. The coalesced form
	// of OpWitnessRecord.
	OpWitnessRecordBatch

	// Transaction coordinator (client) → participant master: phase one of
	// a cross-shard transaction — validate the shard's read versions, lock
	// the touched keys, stash the writes, and sync before voting. The
	// payload is a core.Request envelope around kv.OpTxnPrepare.
	OpTxnPrepare
	// Transaction coordinator (client) → participant master: phase two —
	// apply or discard the prepared writes and release the locks, synced
	// before the reply. (The HOME decision record travels as a normal
	// OpUpdate/OpUpdateBatch carrying kv.OpTxnDecide, so it gets CURP's
	// witness-backed 1-RTT durability.)
	OpTxnDecide
	// Participant master / migration → home master: look up a
	// transaction's decision record; with the resolve flag, record an
	// abort by default when no decision exists yet (orphaned-prepare
	// resolution after coordinator death, §RIFL-anchored: the abort is
	// saved under the transaction's RIFL ID, so a straggling coordinator
	// decide returns the abort instead of committing).
	OpTxnStatus

	// Master / backup / witness → coordinator: liveness heartbeat with
	// piggybacked load stats (internal/health.Beat). The coordinator's
	// failure detector declares a silent node dead and, when self-healing
	// is enabled, drives automatic master failover or witness replacement
	// with no operator in the loop.
	OpHeartbeat
	// Operator tools / clients → coordinator: the partition's membership,
	// epochs, witness-list version, and per-node heartbeat ages (the
	// coordinator's health table; curpctl status renders it).
	OpHealthStatus

	// Migration driver → witness: snapshot the live records of a master's
	// witness instance, so a range migration can carry still-speculative
	// operations' witness records to the destination's witnesses (without
	// them, a destination-master crash right after a migration could lose
	// a 1-RTT-completed operation whose only durable copy was recorded on
	// the SOURCE's witnesses).
	OpWitnessSnapshot

	// Coordinator replica ↔ coordinator replica: the control-plane
	// consensus protocol (internal/controlplane) — full-log replication
	// rounds and leader-election vote solicitations.
	OpCtrlAppend
	OpCtrlVote
	// Coordinator replica → leader replica: forward a control-plane
	// command proposed at a follower; the reply carries the committed
	// apply result.
	OpCtrlPropose

	// Coordinator → master: reconfiguration calls for masters that do not
	// live in the acting coordinator replica's process (a follower
	// promoted to control-plane leader holds no in-process handle to a
	// master another replica booted). Payloads mirror the in-process
	// methods: SetWitnessList(version, addrs) and
	// ReplaceBackup(oldAddr, newAddr).
	OpMasterSetWitnessList
	OpMasterReplaceBackup

	// Receiver → source (a fenced backup or a live master): the next chunk
	// of a state transfer, (job, cursor) → (chunk, next cursor, done). See
	// state_transfer.go.
	OpStatePull
)

// recordRequest is the payload of OpWitnessRecord. Version is the
// witness-list version of the view the sender recorded under; a witness
// instance started for a later one turns the record away (see instance).
type recordRequest struct {
	MasterID  uint64
	Version   uint64
	KeyHashes []uint64
	ID        rifl.RPCID
	Request   []byte
	Class     commute.Class
}

func (r *recordRequest) encode() []byte {
	rec := witness.Record{KeyHashes: r.KeyHashes, ID: r.ID, Request: r.Request, Class: r.Class}
	e := rpc.NewEncoder(16 + recordWireSize(rec))
	e.U64(r.MasterID)
	e.U64(r.Version)
	marshalRecord(e, rec)
	return e.Bytes()
}

func decodeRecordRequest(b []byte) (recordRequest, error) {
	d := rpc.NewDecoder(b)
	r := recordRequest{MasterID: d.U64(), Version: d.U64()}
	rec := unmarshalRecord(d)
	r.KeyHashes, r.ID, r.Request, r.Class = rec.KeyHashes, rec.ID, rec.Request, rec.Class
	return r, d.Err()
}

// minRecordWireSize is the encoded size of an empty witness record: empty
// key-hash slice, RPC ID, empty request, class.
const minRecordWireSize = 4 + 16 + 4 + 1

// recordWireSize is the exact encoded size of one witness record.
func recordWireSize(rec witness.Record) int {
	return minRecordWireSize + 8*len(rec.KeyHashes) + len(rec.Request)
}

// marshalRecords writes a counted run of witness records.
func marshalRecords(e *rpc.Encoder, recs []witness.Record) {
	e.U32(uint32(len(recs)))
	for _, r := range recs {
		marshalRecord(e, r)
	}
}

func marshalRecord(e *rpc.Encoder, rec witness.Record) {
	e.U64Slice(rec.KeyHashes)
	e.U64(uint64(rec.ID.Client))
	e.U64(uint64(rec.ID.Seq))
	e.Bytes32(rec.Request)
	e.U8(uint8(rec.Class))
}

func unmarshalRecord(d *rpc.Decoder) witness.Record {
	return witness.Record{
		KeyHashes: d.U64Slice(),
		ID:        rifl.RPCID{Client: rifl.ClientID(d.U64()), Seq: rifl.Seq(d.U64())},
		Request:   d.BytesCopy32(),
		Class:     commute.Class(d.U8()),
	}
}

// gcRequest is the payload of OpWitnessGC.
type gcRequest struct {
	MasterID uint64
	Keys     []witness.GCKey
}

func (g *gcRequest) encode() []byte {
	e := rpc.NewEncoder(16 + 24*len(g.Keys))
	e.U64(g.MasterID)
	e.U32(uint32(len(g.Keys)))
	for _, k := range g.Keys {
		e.U64(k.KeyHash)
		e.U64(uint64(k.ID.Client))
		e.U64(uint64(k.ID.Seq))
	}
	return e.Bytes()
}

func decodeGCRequest(b []byte) (*gcRequest, error) {
	d := rpc.NewDecoder(b)
	g := &gcRequest{MasterID: d.U64()}
	n := d.U32()
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		g.Keys = append(g.Keys, witness.GCKey{
			KeyHash: d.U64(),
			ID:      rifl.RPCID{Client: rifl.ClientID(d.U64()), Seq: rifl.Seq(d.U64())},
		})
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return g, nil
}

// encodeWitnessRecords serializes witness records (GC stale returns and
// recovery data).
func encodeWitnessRecords(recs []witness.Record) []byte {
	e := rpc.NewEncoder(64 * len(recs))
	marshalRecords(e, recs)
	return e.Bytes()
}

func decodeWitnessRecords(b []byte) ([]witness.Record, error) {
	d := rpc.NewDecoder(b)
	recs := unmarshalRecords(d)
	if err := d.Err(); err != nil {
		return nil, err
	}
	return recs, nil
}

// unmarshalRecords reads a counted run of witness records.
func unmarshalRecords(d *rpc.Decoder) []witness.Record {
	n := d.Count(minRecordWireSize)
	recs := make([]witness.Record, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		recs = append(recs, unmarshalRecord(d))
	}
	return recs
}

// encodeUpdateBatch serializes the payload of OpUpdateBatch.
func encodeUpdateBatch(reqs []*core.Request) []byte {
	size := 4
	for _, r := range reqs {
		size += 48 + 8*len(r.KeyHashes) + len(r.Payload)
	}
	e := rpc.NewEncoder(size)
	e.U32(uint32(len(reqs)))
	for _, r := range reqs {
		r.Marshal(e)
	}
	return e.Bytes()
}

func decodeUpdateBatch(b []byte) ([]*core.Request, error) {
	d := rpc.NewDecoder(b)
	n := d.Count(core.MinRequestWireSize)
	if err := d.Err(); err != nil {
		return nil, err
	}
	reqs := make([]*core.Request, 0, n)
	for i := 0; i < n; i++ {
		r, err := core.UnmarshalRequest(d)
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, r)
	}
	return reqs, nil
}

// encodeReplyBatch serializes an OpUpdateBatch response, in request order.
func encodeReplyBatch(outs []core.Outcome) []byte {
	e := rpc.NewEncoder(32 * (1 + len(outs)))
	e.U32(uint32(len(outs)))
	for i := range outs {
		outs[i].Reply.Marshal(e)
	}
	return e.Bytes()
}

func decodeReplyBatch(b []byte) ([]*core.Reply, error) {
	d := rpc.NewDecoder(b)
	n := d.Count(core.MinReplyWireSize)
	if err := d.Err(); err != nil {
		return nil, err
	}
	replies := make([]*core.Reply, 0, n)
	for i := 0; i < n; i++ {
		r, err := core.UnmarshalReply(d)
		if err != nil {
			return nil, err
		}
		replies = append(replies, r)
	}
	return replies, nil
}

// recordBatchRequest is the payload of OpWitnessRecordBatch: every pending
// record of one pipeline flush, for one witness, under one view version
// (see recordRequest).
type recordBatchRequest struct {
	MasterID uint64
	Version  uint64
	Records  []witness.Record
}

func (r *recordBatchRequest) encode() []byte {
	size := 20
	for _, rec := range r.Records {
		size += recordWireSize(rec)
	}
	e := rpc.NewEncoder(size)
	e.U64(r.MasterID)
	e.U64(r.Version)
	marshalRecords(e, r.Records)
	return e.Bytes()
}

func decodeRecordBatchRequest(b []byte) (*recordBatchRequest, error) {
	d := rpc.NewDecoder(b)
	r := &recordBatchRequest{MasterID: d.U64(), Version: d.U64()}
	r.Records = unmarshalRecords(d)
	if err := d.Err(); err != nil {
		return nil, err
	}
	return r, nil
}

// encodeRecordResults serializes an OpWitnessRecordBatch response: one
// result byte per record, aligned with the request.
func encodeRecordResults(results []witness.RecordResult) []byte {
	out := make([]byte, len(results))
	for i, r := range results {
		out[i] = byte(r)
	}
	return out
}

// txnStatusRequest is the payload of OpTxnStatus: a decision lookup for
// one transaction, optionally forcing an abort-by-default resolution.
type txnStatusRequest struct {
	ID       rifl.RPCID
	HomeHash uint64
	Resolve  bool
}

func (r *txnStatusRequest) encode() []byte {
	e := rpc.NewEncoder(32)
	e.U64(uint64(r.ID.Client))
	e.U64(uint64(r.ID.Seq))
	e.U64(r.HomeHash)
	e.Bool(r.Resolve)
	return e.Bytes()
}

func decodeTxnStatusRequest(b []byte) (*txnStatusRequest, error) {
	d := rpc.NewDecoder(b)
	r := &txnStatusRequest{
		ID:       rifl.RPCID{Client: rifl.ClientID(d.U64()), Seq: rifl.Seq(d.U64())},
		HomeHash: d.U64(),
		Resolve:  d.Bool(),
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return r, nil
}

// Transaction decision outcomes carried in an OpTxnStatus reply payload.
const (
	txnOutcomeUnknown byte = iota
	txnOutcomeCommit
	txnOutcomeAbort
)

// appendRequest is the payload of OpBackupAppend: a master (identified by
// its recovery epoch, §4.7) replicating a log suffix.
type appendRequest struct {
	MasterID uint64
	Epoch    uint64
	Entries  []kv.Entry
}

func (a *appendRequest) encode() []byte {
	e := rpc.NewEncoder(32 + 192*len(a.Entries))
	e.U64(a.MasterID)
	e.U64(a.Epoch)
	e.U32(uint32(len(a.Entries)))
	for i := range a.Entries {
		a.Entries[i].Marshal(e)
	}
	return e.Bytes()
}

func decodeAppendRequest(b []byte) (*appendRequest, error) {
	d := rpc.NewDecoder(b)
	a := &appendRequest{MasterID: d.U64(), Epoch: d.U64()}
	var err error
	if a.Entries, err = unmarshalEntries(d); err != nil {
		return nil, err
	}
	return a, nil
}

// unmarshalEntries reads a counted run of log entries (nil when empty).
// The slice is the append batch and dies with it; what a backup keeps of an
// entry it copies out.
func unmarshalEntries(d *rpc.Decoder) ([]kv.Entry, error) {
	n := d.Count(kv.MinEntryWireSize)
	var entries []kv.Entry
	if n > 0 {
		entries = make([]kv.Entry, 0, n)
	}
	for i := 0; i < n; i++ {
		en, err := kv.UnmarshalEntry(d)
		if err != nil {
			return nil, err
		}
		entries = append(entries, en)
	}
	return entries, d.Err()
}

// PartitionHealth is the payload of an OpHealthStatus reply: one
// partition's membership and liveness as the coordinator sees it.
type PartitionHealth struct {
	MasterID           uint64
	MasterAddr         string
	Epoch              uint64
	WitnessListVersion uint64
	// SelfHealing reports whether the coordinator's automatic failover
	// loop is running.
	SelfHealing bool
	// Control-plane quorum health, as seen by the replica that answered:
	// its rank, the leader it follows (empty mid-election), the consensus
	// term, replica count, and whether IT holds the leader lease.
	CoordRank       int
	CoordLeaderAddr string
	CoordTerm       uint64
	CoordCommit     uint64
	CoordReplicas   int
	CoordLeased     bool
	Nodes           []health.NodeStatus
}

func (p *PartitionHealth) encode() []byte {
	e := rpc.NewEncoder(160 + 96*len(p.Nodes))
	e.U64(p.MasterID)
	e.String(p.MasterAddr)
	e.U64(p.Epoch)
	e.U64(p.WitnessListVersion)
	e.Bool(p.SelfHealing)
	e.U64(uint64(p.CoordRank))
	e.String(p.CoordLeaderAddr)
	e.U64(p.CoordTerm)
	e.U64(p.CoordCommit)
	e.U64(uint64(p.CoordReplicas))
	e.Bool(p.CoordLeased)
	e.U32(uint32(len(p.Nodes)))
	for i := range p.Nodes {
		n := &p.Nodes[i]
		e.U8(uint8(n.Role))
		e.String(n.Addr)
		e.U64(n.MasterID)
		e.I64(int64(n.Age))
		e.U64(n.Beats)
		e.I64(int64(n.MeanGap))
		e.Bool(n.Alive)
		e.Bytes32(n.Last.Encode())
	}
	return e.Bytes()
}

func decodePartitionHealth(b []byte) (*PartitionHealth, error) {
	d := rpc.NewDecoder(b)
	p := &PartitionHealth{
		MasterID:           d.U64(),
		MasterAddr:         d.String(),
		Epoch:              d.U64(),
		WitnessListVersion: d.U64(),
		SelfHealing:        d.Bool(),
		CoordRank:          int(d.U64()),
		CoordLeaderAddr:    d.String(),
		CoordTerm:          d.U64(),
		CoordCommit:        d.U64(),
		CoordReplicas:      int(d.U64()),
		CoordLeased:        d.Bool(),
	}
	n := d.U32()
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		ns := health.NodeStatus{
			Role:     health.Role(d.U8()),
			Addr:     d.String(),
			MasterID: d.U64(),
			Age:      time.Duration(d.I64()),
			Beats:    d.U64(),
			MeanGap:  time.Duration(d.I64()),
			Alive:    d.Bool(),
		}
		if beat, err := health.DecodeBeat(d.BytesCopy32()); err == nil {
			ns.Last = *beat
		}
		p.Nodes = append(p.Nodes, ns)
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return p, nil
}

// FetchHealth asks a coordinator for its partition's health table — the
// client side of OpHealthStatus, used by curpctl status.
func FetchHealth(ctx context.Context, nw transport.Network, self, coordAddr string) (*PartitionHealth, error) {
	p := rpc.NewPeer(nw, self, coordAddr)
	defer p.Close()
	out, err := p.Call(ctx, OpHealthStatus, nil)
	if err != nil {
		return nil, err
	}
	return decodePartitionHealth(out)
}

// ViewInfo is the wire form of a client's configuration for one master
// (payload of OpGetView replies).
type ViewInfo struct {
	MasterID           uint64
	MasterAddr         string
	WitnessListVersion uint64
	WitnessAddrs       []string
	BackupAddrs        []string
}

func (v *ViewInfo) encode() []byte {
	e := rpc.NewEncoder(128)
	e.U64(v.MasterID)
	e.String(v.MasterAddr)
	e.U64(v.WitnessListVersion)
	e.Strings(v.WitnessAddrs)
	e.Strings(v.BackupAddrs)
	return e.Bytes()
}

func decodeViewInfo(b []byte) (*ViewInfo, error) {
	d := rpc.NewDecoder(b)
	v := &ViewInfo{
		MasterID:           d.U64(),
		MasterAddr:         d.String(),
		WitnessListVersion: d.U64(),
		WitnessAddrs:       d.Strings(),
		BackupAddrs:        d.Strings(),
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return v, nil
}
