package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"curp/internal/core"
	"curp/internal/kv"
	"curp/internal/metrics"
	"curp/internal/rifl"
	"curp/internal/rpc"
	"curp/internal/transport"
	"curp/internal/witness"
)

// masterConn adapts an rpc.Peer to core.MasterAPI.
type masterConn struct{ peer *rpc.Peer }

// maxBatchBytes bounds one batch RPC's payload, comfortably below the
// transport's 16MB frame ceiling. Batches that would exceed it are split
// into sequential chunk RPCs — still O(batch/limit) RPCs, and order
// preserving — instead of failing deterministically on frame size.
const maxBatchBytes = 4 << 20

// chunkBy splits items into runs whose summed size stays under
// maxBatchBytes (every run has at least one item).
func chunkBy[T any](items []T, size func(T) int) [][]T {
	var chunks [][]T
	start, run := 0, 0
	for i, it := range items {
		s := size(it)
		if i > start && run+s > maxBatchBytes {
			chunks = append(chunks, items[start:i])
			start, run = i, 0
		}
		run += s
	}
	return append(chunks, items[start:])
}

// UpdateBatch ships a batch of update requests in one RPC (chunked if it
// would exceed the frame limit). A batch of one uses the single-request
// wire op, so non-pipelined updates keep their minimal envelope.
func (m *masterConn) UpdateBatch(ctx context.Context, reqs []*core.Request) ([]*core.Reply, error) {
	if len(reqs) == 1 {
		out, err := m.peer.Call(ctx, OpUpdate, reqs[0].Encode())
		if err != nil {
			return nil, err
		}
		reply, err := core.DecodeReply(out)
		if err != nil {
			return nil, err
		}
		return []*core.Reply{reply}, nil
	}
	replies := make([]*core.Reply, 0, len(reqs))
	for _, chunk := range chunkBy(reqs, func(r *core.Request) int { return 48 + 8*len(r.KeyHashes) + len(r.Payload) }) {
		out, err := m.peer.Call(ctx, OpUpdateBatch, encodeUpdateBatch(chunk))
		if err != nil {
			return nil, err
		}
		rs, err := decodeReplyBatch(out)
		if err != nil {
			return nil, err
		}
		replies = append(replies, rs...)
	}
	return replies, nil
}

func (m *masterConn) Read(ctx context.Context, req *core.Request) (*core.Reply, error) {
	out, err := m.peer.Call(ctx, OpRead, req.Encode())
	if err != nil {
		return nil, err
	}
	return core.DecodeReply(out)
}

func (m *masterConn) Sync(ctx context.Context) error {
	_, err := m.peer.Call(ctx, OpSync, nil)
	return err
}

// witnessConn adapts an rpc.Peer to core.WitnessAPI. It is built per view
// and stamps every record with that view's witness-list version, so a
// witness instance started for a later incarnation of the master turns a
// late record away (see instance); its §A.1 probe names the view's master.
type witnessConn struct {
	peer     *rpc.Peer
	version  uint64
	masterID uint64
}

// RecordBatch ships every pending record of a flush in one RPC (chunked
// if it would exceed the frame limit); the reply carries one
// accept/reject byte per record. A batch of one uses the single-record
// wire op.
func (w *witnessConn) RecordBatch(ctx context.Context, masterID uint64, recs []witness.Record) ([]witness.RecordResult, error) {
	results := make([]witness.RecordResult, len(recs))
	if err := w.StartRecordBatch(ctx, masterID, recs).Wait(ctx, results); err != nil {
		return nil, err
	}
	return results, nil
}

// StartRecordBatch implements core.RecordStarter: the record request(s) go
// on the wire and the call returns, so a flush overlaps its f witnesses
// and the master from one goroutine.
func (w *witnessConn) StartRecordBatch(ctx context.Context, masterID uint64, recs []witness.Record) core.RecordCall {
	if len(recs) == 1 {
		req := recordRequest{MasterID: masterID, Version: w.version, KeyHashes: recs[0].KeyHashes, ID: recs[0].ID, Request: recs[0].Request, Class: recs[0].Class}
		return (*recordCall)(w.peer.Start(ctx, OpWitnessRecord, req.encode()))
	}
	chunks := chunkBy(recs, recordWireSize)
	calls := make(recordCalls, len(chunks))
	for i, chunk := range chunks {
		req := recordBatchRequest{MasterID: masterID, Version: w.version, Records: chunk}
		calls[i] = chunkCall{call: (*recordCall)(w.peer.Start(ctx, OpWitnessRecordBatch, req.encode())), n: len(chunk)}
	}
	return calls
}

// recordCall is a started record RPC — an rpc.Call under core.RecordCall's
// method set (same object, no wrapper allocated). Both record ops answer
// with one result byte per record.
type recordCall rpc.Call

func (c *recordCall) Wait(ctx context.Context, results []witness.RecordResult) error {
	out, err := (*rpc.Call)(c).Wait(ctx)
	if err != nil {
		return err
	}
	if len(out) != len(results) {
		return errors.New("cluster: malformed record reply")
	}
	for i, r := range out {
		results[i] = witness.RecordResult(r)
	}
	return nil
}

func (c *recordCall) Cancel() { (*rpc.Call)(c).Cancel() }

// recordCalls is a started record batch: one RPC per chunk (one chunk,
// unless the batch would exceed the frame limit), all in flight at once;
// results are the chunks' in order.
type recordCalls []chunkCall

type chunkCall struct {
	call *recordCall
	n    int // records in the chunk
}

func (cs recordCalls) Wait(ctx context.Context, results []witness.RecordResult) error {
	var firstErr error
	for _, c := range cs {
		// Every chunk is collected even after a failure: a call is waited
		// or cancelled, never left.
		if err := c.call.Wait(ctx, results[:c.n]); err != nil && firstErr == nil {
			firstErr = err
		}
		results = results[c.n:]
	}
	return firstErr
}

func (cs recordCalls) Cancel() {
	for _, c := range cs {
		c.call.Cancel()
	}
}

func (w *witnessConn) Commutes(ctx context.Context, keyHashes []uint64) (bool, error) {
	e := rpc.NewEncoder(16 + 8*len(keyHashes))
	e.U64(w.masterID)
	e.U64Slice(keyHashes)
	out, err := w.peer.Call(ctx, OpWitnessCommutes, e.Bytes())
	if err != nil {
		return false, err
	}
	return len(out) == 1 && out[0] == 1, nil
}

// Drop retracts the (keyHash, id) pairs of abandoned RPCs — any number of
// them, so one RPC cleans up a whole abandoned batch. Pairs that were
// never recorded (rejected records) are ignored by the witness; a witness
// already in recovery mode errors, telling the caller the records have
// been surfaced and the RPC IDs must not be abandoned.
func (w *witnessConn) Drop(ctx context.Context, masterID uint64, keys []witness.GCKey) error {
	req := &gcRequest{MasterID: masterID, Keys: keys}
	_, err := w.peer.Call(ctx, OpWitnessDrop, req.encode())
	return err
}

// backupConn adapts an rpc.Peer to core.BackupAPI for §A.1 reads.
type backupConn struct {
	peer     *rpc.Peer
	masterID uint64
}

func (b *backupConn) Read(ctx context.Context, req *core.Request) (*core.Reply, error) {
	e := rpc.NewEncoder(16 + len(req.Payload))
	e.U64(b.masterID)
	e.Bytes32(req.Encode())
	out, err := b.peer.Call(ctx, OpBackupRead, e.Bytes())
	if err != nil {
		return nil, err
	}
	return core.DecodeReply(out)
}

// coordViewProvider fetches views from the coordinator quorum over RPC and
// builds connection sets, caching them until a refresh is forced. Any
// replica serves reads from its mirror, so the provider sticks to one
// coordinator and rotates to the next only when a call fails.
type coordViewProvider struct {
	nw       transport.Network
	self     string
	coords   []*rpc.Peer // coordinator replicas; coords[cur] is the sticky choice
	masterID uint64

	mu      sync.Mutex
	cur     int
	cached  *core.View
	version uint64
	peers   []*rpc.Peer // for teardown
}

// callCoord issues op against the current coordinator replica, rotating
// through the others on failure. Caller holds p.mu.
func (p *coordViewProvider) callCoord(ctx context.Context, op uint16, payload []byte) ([]byte, error) {
	var err error
	for range p.coords {
		var out []byte
		if out, err = p.coords[p.cur].Call(ctx, op, payload); err == nil {
			return out, nil
		}
		p.cur = (p.cur + 1) % len(p.coords)
	}
	return nil, err
}

func (p *coordViewProvider) View(ctx context.Context, refresh bool) (*core.View, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cached != nil && !refresh {
		return p.cached, nil
	}
	e := rpc.NewEncoder(8)
	e.U64(p.masterID)
	out, err := p.callCoord(ctx, OpGetView, e.Bytes())
	if err != nil {
		return nil, fmt.Errorf("cluster: fetch view: %w", err)
	}
	info, err := decodeViewInfo(out)
	if err != nil {
		return nil, err
	}
	if p.cached != nil && info.WitnessListVersion == p.version && refresh {
		// Same configuration; keep existing connections (the failure was
		// transient). Clients poll until the coordinator publishes a new
		// view.
		return p.cached, nil
	}
	for _, peer := range p.peers {
		peer.Close()
	}
	p.peers = nil
	view := &core.View{MasterID: info.MasterID, MasterAddr: info.MasterAddr, WitnessListVersion: info.WitnessListVersion}
	mp := rpc.NewPeer(p.nw, p.self, info.MasterAddr)
	p.peers = append(p.peers, mp)
	view.Master = &masterConn{peer: mp}
	for _, addr := range info.WitnessAddrs {
		wp := rpc.NewPeer(p.nw, p.self, addr)
		p.peers = append(p.peers, wp)
		view.Witnesses = append(view.Witnesses, &witnessConn{peer: wp, version: info.WitnessListVersion, masterID: info.MasterID})
	}
	for _, addr := range info.BackupAddrs {
		bp := rpc.NewPeer(p.nw, p.self, addr)
		p.peers = append(p.peers, bp)
		view.Backups = append(view.Backups, &backupConn{peer: bp, masterID: info.MasterID})
	}
	p.cached = view
	p.version = info.WitnessListVersion
	return view, nil
}

func (p *coordViewProvider) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, peer := range p.peers {
		peer.Close()
	}
	p.peers = nil
	for _, co := range p.coords {
		co.Close()
	}
}

// Client is a CURP key-value client bound to one partition (master). It
// registers with the coordinator for a RIFL identity, fetches views, and
// implements kv.Backend — the generic submission path — from which the
// embedded kv.Verbs gives it the typed command set with 1-RTT updates.
type Client struct {
	kv.Verbs
	name     string
	provider *coordViewProvider
	curp     *core.Client
}

// NewClient registers a new client with the coordinator and binds it to
// masterID. name is the client's network identity.
func NewClient(nw transport.Network, name, coordAddr string, masterID uint64) (*Client, error) {
	return NewClientMulti(nw, name, []string{coordAddr}, masterID)
}

// NewClientMulti is NewClient against a replicated control plane: the
// client knows every coordinator replica, registers through the first one
// that answers (any replica forwards the registration to the quorum
// leader), and rotates replicas on later view-fetch failures — so a
// coordinator crash never strands it.
func NewClientMulti(nw transport.Network, name string, coordAddrs []string, masterID uint64) (*Client, error) {
	if len(coordAddrs) == 0 {
		return nil, errors.New("cluster: client needs at least one coordinator address")
	}
	coords := make([]*rpc.Peer, len(coordAddrs))
	for i, a := range coordAddrs {
		coords[i] = rpc.NewPeer(nw, name, a)
	}
	provider := &coordViewProvider{nw: nw, self: name, coords: coords, masterID: masterID}
	ctx := context.Background()
	out, err := provider.callCoord(ctx, OpRegisterClient, nil)
	if err != nil {
		provider.close()
		return nil, fmt.Errorf("cluster: register client: %w", err)
	}
	d := rpc.NewDecoder(out)
	clientID := rifl.ClientID(d.U64())
	if err := d.Err(); err != nil {
		provider.close()
		return nil, err
	}
	cfg := core.DefaultClientConfig()
	// Tracing defaults on: the client mints one trace context per flush and
	// keeps spans in its own collector; tail-based sampling keeps only the
	// interesting traces.
	cfg.Trace = metrics.NewCollector(name, "client", 0)
	c := &Client{
		name:     name,
		provider: provider,
		curp:     core.NewClient(rifl.NewSession(clientID), provider, cfg),
	}
	c.Verbs = kv.VerbsOf(c)
	return c, nil
}

// Close releases the client's connections.
func (c *Client) Close() { c.provider.close() }

// Trace returns the client's span collector.
func (c *Client) Trace() *metrics.Collector { return c.curp.TraceCollector() }

// SetTraceFlags sets the sampling flags on minted traces
// (metrics.TraceFlagForce = keep every trace).
func (c *Client) SetTraceFlags(flags uint8) { c.curp.SetTraceFlags(flags) }

// Stats exposes protocol counters (fast path vs slow path etc).
func (c *Client) Stats() core.ClientStats { return c.curp.Stats() }

// CountTxnCommit / CountTxnAbort land transaction outcomes in the
// client's protocol counters (part of txn.Partition).
func (c *Client) CountTxnCommit()           { c.curp.CountTxnCommit() }
func (c *Client) CountTxnAbort(orphan bool) { c.curp.CountTxnAbort(orphan) }

// Session exposes the client's RIFL session.
func (c *Client) Session() *rifl.Session { return c.curp.Session() }

// Submit executes one update command and returns once it is durable —
// the blocking path under every typed verb: straight into the core
// client's Update, which runs the update engine on this goroutine — no
// future, no goroutine hop.
func (c *Client) Submit(ctx context.Context, cmd kv.Command) (*kv.Result, error) {
	out, err := c.curp.Update(ctx, cmd.KeyHashes(), cmd.Encode(), cmd.Class())
	if err != nil {
		return nil, err
	}
	return kv.DecodeResult(out)
}

// SubmitAsync issues one update command without blocking.
func (c *Client) SubmitAsync(ctx context.Context, cmd kv.Command) *kv.Future {
	return kv.Submitted(c.curp.UpdateAsync(ctx, cmd.KeyHashes(), cmd.Encode(), cmd.Class()))
}

// SubmitBatch issues a batch of update commands as coalesced RPCs: one
// UpdateBatch to the master and one RecordBatch per witness, with per-
// command completion (see core.Client.UpdateBatchAsync). Futures are
// aligned with cmds.
func (c *Client) SubmitBatch(ctx context.Context, cmds []kv.Command) []*core.Future {
	ops := make([]core.BatchOp, len(cmds))
	for i := range cmds {
		cmd := &cmds[i]
		ops[i] = core.BatchOp{KeyHashes: cmd.KeyHashes(), Payload: cmd.Encode(), Class: cmd.Class()}
	}
	return c.curp.UpdateBatchAsync(ctx, ops)
}

// FlushBatch submits a pipeline's queue as one coalesced batch. It does
// not wait: every slot is bound to its in-flight operation, which
// completes on its own 1-RTT rule.
func (c *Client) FlushBatch(ctx context.Context, b *kv.Batch) {
	for i, src := range c.SubmitBatch(ctx, b.Cmds) {
		b.Bind(i, src)
	}
}

// Read executes one read-only command: at the master, from a backup when a
// witness confirms safety (§A.1), or — ReadStale — the latest DURABLE
// value from the master without waiting for any sync (§A.3).
func (c *Client) Read(ctx context.Context, cmd kv.Command, mode kv.ReadMode) (*kv.Result, error) {
	var out []byte
	var err error
	switch mode {
	case kv.ReadNearby:
		out, err = c.curp.ReadNearby(ctx, cmd.KeyHashes(), cmd.Encode())
	case kv.ReadStale:
		out, err = c.readStale(ctx, &cmd)
	default:
		out, err = c.curp.Read(ctx, cmd.KeyHashes(), cmd.Encode())
	}
	if err != nil {
		return nil, err
	}
	return kv.DecodeResult(out)
}

// readStale sends cmd to the master's stale-read endpoint: if a key has
// speculative (unsynced) updates, the returned value may trail the
// linearizable one by the unsynced window, and the read never blocks
// behind a hot writer.
func (c *Client) readStale(ctx context.Context, cmd *kv.Command) ([]byte, error) {
	view, err := c.provider.View(ctx, false)
	if err != nil {
		return nil, err
	}
	req := &core.Request{KeyHashes: cmd.KeyHashes(), ReadOnly: true, Payload: cmd.Encode()}
	mc, ok := view.Master.(*masterConn)
	if !ok {
		return nil, errors.New("cluster: stale reads require a cluster master connection")
	}
	out, err := mc.peer.Call(ctx, OpReadStale, req.Encode())
	if err != nil {
		return nil, err
	}
	reply, err := core.DecodeReply(out)
	if err != nil {
		return nil, err
	}
	if reply.Status == core.StatusKeyMoved {
		// Typed, so the shard routing layer re-routes stale reads after a
		// migration like every other operation.
		return nil, core.ErrKeyMoved
	}
	if reply.Status != core.StatusOK {
		return nil, fmt.Errorf("cluster: stale read: %v %s", reply.Status, reply.Err)
	}
	return reply.Payload, nil
}
