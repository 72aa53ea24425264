package cluster

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"curp/internal/events"
	"curp/internal/health"
	"curp/internal/metrics"
	"curp/internal/rpc"
	"curp/internal/transport"
	"curp/internal/witness"
)

// WitnessServer hosts witness instances, one per master it serves (a
// witness server can serve several masters, paper §4.1: a decommissioned
// witness "can start another life for a different master").
type WitnessServer struct {
	node
	cfg witness.Config

	mu        sync.Mutex
	instances map[uint64]instance

	// misaddressed counts record RPCs bounced before reaching an instance:
	// none exists here for the named master (stale witness list), or the
	// one that does was started for a later incarnation than the sender's
	// view; per-instance rejections live in witness.Stats.
	misaddressed atomic.Uint64
}

// instance is one master's witness plus the incarnation it serves.
//
// PAPER §4.1/§4.6: a witness instance belongs to ONE master; recovery ends
// the crashed master's instances and starts fresh ones for its successor,
// so a record sent to the old master's witnesses can never count towards
// the new master's f accepts.
// DEVIATION: the paper's recovery master is a different server with its
// own ID, which makes per-master instances per-incarnation for free. Here
// the ID is the partition's and survives recovery, so an instance is bound
// to the witness-list version it was started for (since) and turns away
// records sent under an older view: without that, a record still in flight
// across a recovery lands on the successor's fresh instance, is accepted,
// and — together with the crashed master's earlier "ok, unsynced" reply —
// completes on the fast path an operation the recovery witness never held.
type instance struct {
	w     *witness.Witness
	since uint64
}

// NewWitnessServer creates a witness server listening on addr, outside any
// deployment (shard 0, default trace sampling, no heartbeat).
func NewWitnessServer(nw transport.Network, addr string, cfg witness.Config) (*WitnessServer, error) {
	return newWitnessServer(nw, addr, cfg, NodeOptions{})
}

// newWitnessServer is NewWitnessServer with the deployment's node settings
// — how Cluster boots its witnesses, spares included.
func newWitnessServer(nw transport.Network, addr string, cfg witness.Config, o NodeOptions) (*WitnessServer, error) {
	ws := &WitnessServer{cfg: cfg, instances: make(map[uint64]instance)}
	ws.init(nw, addr, "witness", o)
	ws.beat = func() health.Beat { return health.Beat{Role: health.RoleWitness, Addr: addr} }
	ws.rpc.Handle(OpWitnessRecord, ws.handleRecord)
	ws.rpc.Handle(OpWitnessRecordBatch, ws.handleRecordBatch)
	ws.rpc.Handle(OpWitnessCommutes, ws.handleCommutes)
	ws.rpc.Handle(OpWitnessGC, ws.handleGC)
	ws.rpc.Handle(OpWitnessDrop, ws.handleDrop)
	ws.rpc.Handle(OpWitnessRecoveryData, ws.handleRecoveryData)
	ws.rpc.Handle(OpWitnessSnapshot, ws.handleSnapshot)
	ws.rpc.Handle(OpWitnessStart, ws.handleStart)
	ws.rpc.Handle(OpWitnessEnd, ws.handleEnd)
	ws.buildMetrics()
	if err := ws.serve(); err != nil {
		return nil, err
	}
	return ws, nil
}

// recordVerdict maps a witness record result onto a trace verdict; the
// reject verdicts are "interesting" and promote the trace (a rejection is
// exactly the moment an op leaves the 1-RTT path).
func recordVerdict(res witness.RecordResult) string {
	switch res {
	case witness.Accepted:
		return "accept"
	case witness.RejectedConflict:
		return "reject-conflict"
	case witness.RejectedFull:
		return "reject-full"
	case witness.RejectedWrongMaster:
		return "reject-wrong-master"
	case witness.RejectedRecovery:
		return "reject-recovery"
	default:
		return "reject"
	}
}

// sumStats aggregates witness.Stats across every instance this server
// hosts; the callback metrics below read it at scrape time.
func (ws *WitnessServer) sumStats() witness.Stats {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	var s witness.Stats
	for _, in := range ws.instances {
		st := in.w.Stats()
		s.Accepts += st.Accepts
		s.ConflictRejects += st.ConflictRejects
		s.FullRejects += st.FullRejects
		s.WrongMaster += st.WrongMaster
		s.RecoveryRejects += st.RecoveryRejects
		s.GCDrops += st.GCDrops
		s.StaleSuspicions += st.StaleSuspicions
		s.RecordedRequests += st.RecordedRequests
	}
	return s
}

// buildMetrics registers the witness-side series: accept/reject rates by
// reason, gc drops, stale-garbage suspicions, and current occupancy. All
// are scrape-time callbacks over witness.Stats — the record hot path pays
// nothing.
func (ws *WitnessServer) buildMetrics() {
	r := ws.metrics
	r.CounterFunc("curp_witness_accepts_total",
		"Record RPCs accepted (speculative fast-path grants).",
		func() uint64 { return ws.sumStats().Accepts })
	rejects := func(f func(witness.Stats) uint64) func() uint64 {
		return func() uint64 { return f(ws.sumStats()) }
	}
	r.CounterFunc("curp_witness_rejects_total",
		"Record RPCs rejected, by reason.",
		rejects(func(s witness.Stats) uint64 { return s.ConflictRejects }),
		metrics.L("reason", "conflict"))
	r.CounterFunc("curp_witness_rejects_total", "",
		rejects(func(s witness.Stats) uint64 { return s.FullRejects }),
		metrics.L("reason", "full"))
	r.CounterFunc("curp_witness_rejects_total", "",
		func() uint64 { return ws.sumStats().WrongMaster + ws.misaddressed.Load() },
		metrics.L("reason", "wrong_master"))
	r.CounterFunc("curp_witness_rejects_total", "",
		rejects(func(s witness.Stats) uint64 { return s.RecoveryRejects }),
		metrics.L("reason", "recovery"))
	r.CounterFunc("curp_witness_gc_drops_total",
		"Records collected by master gc RPCs.",
		func() uint64 { return ws.sumStats().GCDrops })
	r.CounterFunc("curp_witness_stale_suspicions_total",
		"GC passes that reported suspected uncollected garbage.",
		func() uint64 { return ws.sumStats().StaleSuspicions })
	r.GaugeFunc("curp_witness_recorded_requests",
		"Distinct requests currently stored across all instances.",
		func() float64 { return float64(ws.sumStats().RecordedRequests) })
	r.GaugeFunc("curp_witness_instances",
		"Witness instances hosted (one per served master).",
		func() float64 {
			ws.mu.Lock()
			defer ws.mu.Unlock()
			return float64(len(ws.instances))
		})
}

// Close shuts the server down.
func (ws *WitnessServer) Close() { ws.shutdown(nil) }

// Instance returns the witness serving masterID, for tests and stats.
func (ws *WitnessServer) Instance(masterID uint64) *witness.Witness {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.instances[masterID].w
}

func (ws *WitnessServer) lookup(masterID uint64) (*witness.Witness, error) {
	if w := ws.Instance(masterID); w != nil {
		return w, nil
	}
	return nil, fmt.Errorf("witness %s: no instance for master %d", ws.addr, masterID)
}

// recorder returns the instance a record RPC sent under witness-list
// version `version` may record on: nil when no instance exists for the
// master or it serves a later incarnation (see instance). The caller
// answers RejectedWrongMaster — the client used a stale witness list —
// rather than erroring the transport.
func (ws *WitnessServer) recorder(masterID, version uint64, records int) *witness.Witness {
	ws.mu.Lock()
	in := ws.instances[masterID]
	ws.mu.Unlock()
	if in.w == nil || version < in.since {
		ws.misaddressed.Add(uint64(records))
		return nil
	}
	return in.w
}

func (ws *WitnessServer) handleRecord(ctx context.Context, payload []byte) ([]byte, error) {
	req, err := decodeRecordRequest(payload)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res := witness.RejectedWrongMaster
	if w := ws.recorder(req.MasterID, req.Version, 1); w != nil {
		res = w.Record(req.MasterID, req.KeyHashes, req.ID, req.Request, req.Class)
	}
	ws.coll.RecordSpan(ctx, "witness-record", "record", recordVerdict(res), start, time.Since(start), "")
	return recordReplies[res], nil
}

// recordReplies are the one-byte OpWitnessRecord replies, one per result.
// They are shared and read-only: the rpc layer copies a reply into its
// frame and keeps no reference.
var recordReplies = func() (replies [witness.RejectedRecovery + 1][]byte) {
	for res := range replies {
		replies[res] = []byte{byte(res)}
	}
	return replies
}()

// handleRecordBatch is the pipelined record path: every record of a flush
// in one RPC, accepted or rejected per record.
func (ws *WitnessServer) handleRecordBatch(ctx context.Context, payload []byte) ([]byte, error) {
	req, err := decodeRecordBatchRequest(payload)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	var results []witness.RecordResult
	if w := ws.recorder(req.MasterID, req.Version, len(req.Records)); w != nil {
		results = w.RecordBatch(req.MasterID, req.Records)
	} else {
		results = make([]witness.RecordResult, len(req.Records))
		for i := range results {
			results[i] = witness.RejectedWrongMaster
		}
	}
	// One span per RPC; the verdict of the first rejected record wins (a
	// single rejection already evicts the whole flush from the fast path).
	verdict := "accept"
	for _, res := range results {
		if res != witness.Accepted {
			verdict = recordVerdict(res)
			break
		}
	}
	ws.coll.RecordSpan(ctx, "witness-record", "record_batch", verdict, start, time.Since(start), "")
	return encodeRecordResults(results), nil
}

func (ws *WitnessServer) handleCommutes(ctx context.Context, payload []byte) ([]byte, error) {
	d := rpc.NewDecoder(payload)
	masterID := d.U64()
	keyHashes := d.U64Slice()
	if err := d.Err(); err != nil {
		return nil, err
	}
	w, err := ws.lookup(masterID)
	if err != nil {
		return []byte{0}, nil // unknown instance: force master read
	}
	if w.Commutes(keyHashes) {
		return []byte{1}, nil
	}
	return []byte{0}, nil
}

func (ws *WitnessServer) handleGC(ctx context.Context, payload []byte) ([]byte, error) {
	req, err := decodeGCRequest(payload)
	if err != nil {
		return nil, err
	}
	w, err := ws.lookup(req.MasterID)
	if err != nil {
		return encodeWitnessRecords(nil), nil
	}
	stale := w.GC(req.Keys)
	return encodeWitnessRecords(stale), nil
}

// handleDrop retracts an abandoning client's records. A missing instance
// means the records cannot exist here, which is a successful retraction.
func (ws *WitnessServer) handleDrop(ctx context.Context, payload []byte) ([]byte, error) {
	req, err := decodeGCRequest(payload)
	if err != nil {
		return nil, err
	}
	w, err := ws.lookup(req.MasterID)
	if err != nil {
		return nil, nil
	}
	return nil, w.DropRecords(req.Keys)
}

func (ws *WitnessServer) handleRecoveryData(ctx context.Context, payload []byte) ([]byte, error) {
	d := rpc.NewDecoder(payload)
	masterID := d.U64()
	if err := d.Err(); err != nil {
		return nil, err
	}
	w, err := ws.lookup(masterID)
	if err != nil {
		return nil, err
	}
	recs := w.GetRecoveryData()
	// The instance is now irreversibly frozen (§4.6): clients can no longer
	// complete updates against it.
	tc, _ := metrics.TraceFromContext(ctx)
	ws.jrn.RecordTrace(tc.TraceID, events.Event{
		Kind: events.KindWitnessFrozen, MasterID: masterID,
		Detail: fmt.Sprintf("%d records handed to recovery", len(recs)),
	})
	return encodeWitnessRecords(recs), nil
}

// handleSnapshot returns the instance's live records WITHOUT freezing it —
// unlike handleRecoveryData, recording continues. Migration uses it to
// carry the witness records of still-speculative operations on moving
// ranges over to the destination's witnesses.
func (ws *WitnessServer) handleSnapshot(ctx context.Context, payload []byte) ([]byte, error) {
	d := rpc.NewDecoder(payload)
	masterID := d.U64()
	if err := d.Err(); err != nil {
		return nil, err
	}
	w, err := ws.lookup(masterID)
	if err != nil {
		return encodeWitnessRecords(nil), nil
	}
	return encodeWitnessRecords(w.SnapshotRecords()), nil
}

// handleStart starts a fresh instance for masterID, bound to the
// witness-list version the coordinator is about to publish (see instance).
func (ws *WitnessServer) handleStart(ctx context.Context, payload []byte) ([]byte, error) {
	d := rpc.NewDecoder(payload)
	masterID, version := d.U64(), d.U64()
	if err := d.Err(); err != nil {
		return nil, err
	}
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if _, exists := ws.instances[masterID]; exists {
		return nil, fmt.Errorf("witness %s: instance for master %d already exists", ws.addr, masterID)
	}
	w, err := witness.New(masterID, ws.cfg)
	if err != nil {
		return nil, err
	}
	ws.instances[masterID] = instance{w: w, since: version}
	return nil, nil
}

func (ws *WitnessServer) handleEnd(ctx context.Context, payload []byte) ([]byte, error) {
	d := rpc.NewDecoder(payload)
	masterID := d.U64()
	if err := d.Err(); err != nil {
		return nil, err
	}
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if in, ok := ws.instances[masterID]; ok {
		in.w.End()
		delete(ws.instances, masterID)
	}
	return nil, nil
}
