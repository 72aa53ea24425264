package cluster

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"curp/internal/commute"
	"curp/internal/core"
	"curp/internal/events"
	"curp/internal/health"
	"curp/internal/kv"
	"curp/internal/metrics"
	"curp/internal/rifl"
	"curp/internal/rpc"
	"curp/internal/transport"
	"curp/internal/witness"
)

// MasterOptions configures a master server.
type MasterOptions struct {
	// Core is the CURP sync policy (batch size, hot-key heuristic).
	Core core.MasterConfig
	// RPCTimeout bounds each backup/witness RPC issued by the master.
	RPCTimeout time.Duration
	// TxnLockTimeout is how long a prepared transaction may hold its locks
	// before an operation bouncing off them triggers orphan resolution
	// (decision lookup at the home shard, abort by default). It must
	// comfortably exceed a healthy coordinator's prepare→decide gap.
	TxnLockTimeout time.Duration
	// Node carries the deployment-wide node settings; a replacement
	// promoted with Options() inherits them.
	Node NodeOptions
}

// DefaultTxnLockTimeout is the default orphaned-prepare resolution
// threshold.
const DefaultTxnLockTimeout = 200 * time.Millisecond

// DefaultMasterOptions returns the paper's defaults.
func DefaultMasterOptions() MasterOptions {
	return MasterOptions{
		Core:           core.DefaultMasterConfig(),
		RPCTimeout:     2 * time.Second,
		TxnLockTimeout: DefaultTxnLockTimeout,
	}
}

// MasterServer is a CURP master for one data partition: the kv substrate of
// core.Engine, which owns execution order, RIFL, the commutativity gate and
// the sync/GC discipline (paper §3.2.3, §4.3–§4.6). This type supplies the
// RAMCloud-like deployment: the store, the backup fan-out with stale-epoch
// fencing, the witness peers, live migration, the §A.3 durable-value
// cache, the transaction resolver, and the node's observability.
type MasterServer struct {
	// node is embedded by value: the instruments the update path records
	// into (coll, hot) stay plain field reads.
	node

	id    uint64
	epoch uint64
	opts  MasterOptions

	store *kv.Store
	eng   *core.Engine

	peersMu   sync.Mutex
	backups   []*rpc.Peer
	witnesses []*rpc.Peer

	// resolveKick feeds the resident orphaned-transaction resolver;
	// resolveBusy dedups in-flight resolutions (see txn_server.go).
	resolveKick chan txnResolveReq
	resolveMu   sync.Mutex
	resolveBusy map[rifl.RPCID]bool

	// durableOld is the §A.3 durable-value cache: for each key with an
	// unsynced update, the last value that IS on the backups. Populated
	// when a durable value is first overwritten speculatively; cleared as
	// syncs make the new values durable. Entries are written on the
	// execution path (under the engine's lock); staleMu is for readers.
	staleMu    sync.Mutex
	durableOld map[string]staleEntry

	// migr tracks key ranges frozen by or handed off through live
	// migration; requests touching them bounce with StatusKeyMoved.
	migr migrationState

	// transfers serves the state pulls of the backups this master seeds;
	// seeding counts the seeds in flight. A seed ends by sending the entries
	// logged since its image, so while one runs the log is not truncated.
	transfers transferSource
	seeding   atomic.Int32

	// The pre-bound instruments the hot paths record into. Requests
	// arriving with a wire trace context record their server-side stage
	// attribution (master-queue, apply, sync-wait, backup-append,
	// lock-wait) in the node's collector.
	mLatUpdate   *metrics.Histogram
	mLatBatch    *metrics.Histogram
	mLatRead     *metrics.Histogram
	mLatPrepare  *metrics.Histogram
	mLatDecide   *metrics.Histogram
	mSyncEntries *metrics.Histogram
	mSyncLat     *metrics.Histogram
	mSlotWait    *metrics.Histogram
	mLockWait    *metrics.Histogram
	mTxnPrepares *metrics.Counter
	mTxnDecides  *metrics.Counter
	mTxnOrphans  *metrics.Counter
	// mClass[path][class] are the per-class fast-path verdict counters,
	// pre-bound so the execution path never touches the registry's label
	// map (core.PathNone has none).
	mClass       [3][]*metrics.Counter
	lastSyncNano atomic.Int64

	// gcLegsLost: the last gc pass lost a reply. Only the sync-slot holder
	// touches it.
	gcLegsLost bool
}

// NewMasterServer creates and starts a master listening on addr. epoch is
// the master's recovery epoch (0 for the initial master; recovery creates
// successors with higher epochs, §4.7).
func NewMasterServer(nw transport.Network, id uint64, addr string, epoch uint64, opts MasterOptions) (*MasterServer, error) {
	if opts.RPCTimeout <= 0 {
		opts.RPCTimeout = 2 * time.Second
	}
	if opts.TxnLockTimeout <= 0 {
		opts.TxnLockTimeout = DefaultTxnLockTimeout
	}
	ms := &MasterServer{
		id:    id,
		epoch: epoch,
		opts:  opts,
		store: kv.NewStore(),
	}
	ms.transfers.capture = ms.captureState
	ms.init(nw, addr, "master", opts.Node)
	ms.beat = ms.loadBeat
	ms.durableOld = make(map[string]staleEntry)
	ms.buildMetrics() // its callbacks read the engine at scrape time only
	ms.eng = core.NewEngine(ms, opts.Core, ms.coll, ms.mSlotWait)
	ms.resolveKick = make(chan txnResolveReq, 64)
	ms.resolveBusy = make(map[rifl.RPCID]bool)
	go ms.txnResolver()
	ms.rpc.Handle(OpUpdate, ms.handleUpdate)
	ms.rpc.Handle(OpUpdateBatch, ms.handleUpdateBatch)
	ms.rpc.Handle(OpRead, ms.handleRead)
	ms.rpc.Handle(OpSync, ms.handleSync)
	ms.rpc.Handle(OpReadStale, ms.handleReadStale)
	ms.rpc.Handle(OpMigrateCollect, ms.handleMigrateCollect)
	ms.rpc.Handle(OpMigrateInstall, ms.handleMigrateInstall)
	ms.rpc.Handle(OpMigrateComplete, ms.handleMigrateComplete)
	ms.rpc.Handle(OpMigrateAbort, ms.handleMigrateAbort)
	ms.rpc.Handle(OpMigrateDrop, ms.handleMigrateDrop)
	ms.rpc.Handle(OpMasterSetWitnessList, ms.handleSetWitnessList)
	ms.rpc.Handle(OpMasterReplaceBackup, ms.handleReplaceBackup)
	ms.rpc.Handle(OpStatePull, ms.transfers.serve)
	ms.registerTxnHandlers()
	if err := ms.serve(); err != nil {
		ms.Close()
		return nil, err
	}
	return ms, nil
}

// ID returns the master's partition ID.
func (ms *MasterServer) ID() uint64 { return ms.id }

// Epoch returns the master's recovery epoch.
func (ms *MasterServer) Epoch() uint64 { return ms.epoch }

// State exposes protocol counters for tests and benchmarks.
func (ms *MasterServer) State() *core.MasterState { return ms.eng.State() }

// Options returns the master's resolved configuration (the coordinator
// reuses it when it promotes a replacement during automatic failover).
func (ms *MasterServer) Options() MasterOptions { return ms.opts }

// buildMetrics registers the master's series: callback metrics over the
// lock-free core.MasterState counters, plus the latency and batch-size
// histograms the handlers record into.
func (ms *MasterServer) buildMetrics() {
	r := ms.metrics
	st := func(f func(core.MasterStats) uint64) func() uint64 {
		return func() uint64 { return f(ms.State().Stats()) }
	}
	r.CounterFunc("curp_master_speculative_ops_total",
		"Updates completed on the 1-RTT speculative fast path.",
		st(func(s core.MasterStats) uint64 { return s.SpeculativeOps }))
	r.CounterFunc("curp_master_conflict_syncs_total",
		"Syncs forced by a non-commutative operation (slow path).",
		st(func(s core.MasterStats) uint64 { return s.ConflictSyncs }))
	r.CounterFunc("curp_master_batch_syncs_total",
		"Background syncs triggered by the unsynced-count threshold.",
		st(func(s core.MasterStats) uint64 { return s.BatchSyncs }))
	r.CounterFunc("curp_master_hotkey_syncs_total",
		"Preemptive syncs triggered by the hot-key heuristic.",
		st(func(s core.MasterStats) uint64 { return s.HotKeySyncs }))
	r.CounterFunc("curp_master_burst_syncs_total",
		"Preemptive syncs triggered by the witness-burst bound (a commuting run approached witness set capacity).",
		st(func(s core.MasterStats) uint64 { return s.BurstSyncs }))
	r.CounterFunc("curp_master_read_blocks_total",
		"Reads that waited for a sync before returning.",
		st(func(s core.MasterStats) uint64 { return s.ReadBlocks }))
	r.GaugeFunc("curp_master_sync_lag_ops",
		"Unsynced window size: log entries not yet replicated to backups.",
		func() float64 { return float64(ms.State().UnsyncedCount()) })
	r.GaugeFunc("curp_master_sync_lag_seconds",
		"Age of the oldest unsynced state: time since the last completed backup sync while the window is non-empty.",
		func() float64 {
			if ms.State().UnsyncedCount() == 0 {
				return 0
			}
			last := ms.lastSyncNano.Load()
			if last == 0 {
				return 0
			}
			return time.Since(time.Unix(0, last)).Seconds()
		})
	r.GaugeFunc("curp_master_log_entries",
		"Log entries the master retains: the window its backups have not acknowledged, plus whatever a running backup seed still needs (the sync backlog; it does not grow with history).",
		func() float64 { return float64(ms.store.LogLen()) })
	r.GaugeFunc("curp_master_flush_threshold_ops",
		"Current background-flush batch threshold (load-adaptive when AdaptiveFlush is on).",
		func() float64 { return float64(ms.State().FlushThreshold()) })
	r.GaugeFunc("curp_master_epoch",
		"Recovery epoch of this master.",
		func() float64 { return float64(ms.epoch) })
	r.GaugeFunc("curp_master_witness_list_version",
		"Version of the witness configuration the master currently enforces.",
		func() float64 { return float64(ms.State().WitnessListVersion()) })
	const latHelp = "Master-side RPC handling latency by operation type."
	ms.mLatUpdate = r.Histogram("curp_master_op_latency_seconds", latHelp, metrics.L("op", "update"))
	ms.mLatBatch = r.Histogram("curp_master_op_latency_seconds", latHelp, metrics.L("op", "update_batch"))
	ms.mLatRead = r.Histogram("curp_master_op_latency_seconds", latHelp, metrics.L("op", "read"))
	ms.mLatPrepare = r.Histogram("curp_master_op_latency_seconds", latHelp, metrics.L("op", "txn_prepare"))
	ms.mLatDecide = r.Histogram("curp_master_op_latency_seconds", latHelp, metrics.L("op", "txn_decide"))
	ms.mSyncEntries = r.SizeHistogram("curp_master_sync_batch_entries",
		"Log entries replicated per backup sync batch.")
	ms.mSyncLat = r.Histogram("curp_master_sync_duration_seconds",
		"Wall time of one backup sync's flush (parallel append to all backups).")
	ms.mSlotWait = r.Histogram("curp_master_sync_slot_wait_seconds",
		"Time a sync request spent queued for the one sync slot (behind another sync's flush or gc tail); a request that rode the sync in flight is not counted.")
	ms.mLockWait = r.Histogram("curp_txn_lock_wait_seconds",
		"Age of prepared-transaction locks that operations bounced off.")
	ms.mTxnPrepares = r.Counter("curp_txn_prepares_total",
		"Transaction prepare phases executed on this participant.")
	ms.mTxnDecides = r.Counter("curp_txn_decides_total",
		"Transaction decide phases executed on this participant.")
	ms.mTxnOrphans = r.Counter("curp_txn_orphan_resolutions_total",
		"Orphaned prepared transactions settled by the resident resolver.")
	const classHelp = "Update conflict verdicts by commutativity class: speculative stayed on the 1-RTT path, sync was gated behind a backup sync."
	for _, cl := range commute.Classes() {
		ms.mClass[core.PathSpeculative] = append(ms.mClass[core.PathSpeculative], r.Counter("curp_master_class_verdicts_total", classHelp,
			metrics.L("class", cl.String()), metrics.L("verdict", "speculative")))
		ms.mClass[core.PathConflict] = append(ms.mClass[core.PathConflict], r.Counter("curp_master_class_verdicts_total", classHelp,
			metrics.L("class", cl.String()), metrics.L("verdict", "sync")))
	}
}

// observeOp records one handled RPC: its latency histogram sample and,
// when the request carries a trace context, a wire span (stage "apply").
func (ms *MasterServer) observeOp(ctx context.Context, h *metrics.Histogram, op, verdict, errText string, start time.Time) {
	d := time.Since(start)
	h.ObserveDuration(d)
	ms.coll.RecordSpan(ctx, "apply", op, verdict, start, d, errText)
}

// loadBeat is the master's heartbeat payload: liveness plus the log head,
// the unsynced window, the witness-list version, and the current flush
// threshold, so the coordinator's health table doubles as a load dashboard.
func (ms *MasterServer) loadBeat() health.Beat {
	// One Stats() call covers the load counters AND the flush threshold:
	// the beater must not take the master's lock twice per beat, or a busy
	// master delays its own liveness signal.
	st := ms.State().Stats()
	return health.Beat{
		Role:               health.RoleMaster,
		Addr:               ms.addr,
		MasterID:           ms.id,
		Epoch:              ms.epoch,
		HeadLSN:            uint64(ms.store.Head()),
		Unsynced:           uint64(ms.State().UnsyncedCount()),
		WitnessListVersion: ms.State().WitnessListVersion(),
		FlushThreshold:     st.FlushThreshold,
		SpeculativeOps:     st.SpeculativeOps,
		ConflictSyncs:      st.ConflictSyncs,
	}
}

// Store exposes the underlying store for tests.
func (ms *MasterServer) Store() *kv.Store { return ms.store }

// Close shuts the master down.
func (ms *MasterServer) Close() {
	ms.shutdown(ms.eng.Close)
	ms.peersMu.Lock()
	defer ms.peersMu.Unlock()
	for _, p := range ms.backups {
		p.Close()
	}
	for _, p := range ms.witnesses {
		p.Close()
	}
}

// SetBackups installs the master's backup list.
func (ms *MasterServer) SetBackups(addrs []string) {
	ms.peersMu.Lock()
	defer ms.peersMu.Unlock()
	for _, p := range ms.backups {
		p.Close()
	}
	ms.backups = nil
	for _, a := range addrs {
		ms.backups = append(ms.backups, rpc.NewPeer(ms.nw, ms.addr, a))
	}
}

// SetWitnessList installs a new witness configuration. Per §3.6, the
// master syncs to backups before accepting the new version, so operations
// recorded only on the old witnesses are durable before those witnesses
// stop being consulted.
func (ms *MasterServer) SetWitnessList(version uint64, addrs []string) error {
	if err := ms.eng.Sync(context.Background()); err != nil {
		return err
	}
	ms.peersMu.Lock()
	for _, p := range ms.witnesses {
		p.Close()
	}
	ms.witnesses = nil
	for _, a := range addrs {
		ms.witnesses = append(ms.witnesses, rpc.NewPeer(ms.nw, ms.addr, a))
	}
	ms.peersMu.Unlock()
	ms.State().SetWitnessListVersion(version)
	return nil
}

// handleSetWitnessList is the remote form of SetWitnessList, used by a
// coordinator replica that did not boot this master in-process (the
// control plane's reconfiguration commands commit on any replica).
func (ms *MasterServer) handleSetWitnessList(ctx context.Context, payload []byte) ([]byte, error) {
	d := rpc.NewDecoder(payload)
	version, addrs := d.U64(), d.Strings()
	if err := d.Err(); err != nil {
		return nil, err
	}
	return nil, ms.SetWitnessList(version, addrs)
}

// handleReplaceBackup is the remote form of ReplaceBackup.
func (ms *MasterServer) handleReplaceBackup(ctx context.Context, payload []byte) ([]byte, error) {
	d := rpc.NewDecoder(payload)
	oldAddr := d.String()
	newAddr := d.String()
	if err := d.Err(); err != nil {
		return nil, err
	}
	return nil, ms.ReplaceBackup(oldAddr, newAddr)
}

// ReplaceBackup swaps a dead backup out of the sync set for a fresh one,
// restoring full replication redundancy without deposing the master: the
// replacement pulls this master's state (seedBackup) while execution and
// syncs go on, and is swapped in under the sync exclusion once it holds
// everything logged up to that moment. The next regular sync starts where
// the seed ended (overlapping entries are deduped by LSN on the backup).
func (ms *MasterServer) ReplaceBackup(oldAddr, newAddr string) error {
	p := rpc.NewPeer(ms.nw, ms.addr, newAddr)
	err := ms.seedBackup(context.Background(), p, func() error {
		ms.peersMu.Lock()
		defer ms.peersMu.Unlock()
		for i, b := range ms.backups {
			if b.Addr() == oldAddr {
				b.Close()
				ms.backups[i] = p
				return nil
			}
		}
		return fmt.Errorf("master %d: backup %s not in sync set", ms.id, oldAddr)
	})
	if err != nil {
		p.Close()
	}
	return err
}

// seedBackup brings the backup behind p to this master's current state:
// the backup pulls an image of it (a state transfer with this master as
// the source) into a replica it builds aside, then — with syncs excluded,
// so the synced position stands still — receives the entries logged since
// the image and is put to use by swap. Execution is held only while the
// image is captured; syncs go on during the transfer but truncate nothing.
//
// PAPER §3.3: how a backup that holds nothing (a spare) or something else
// (another lineage, after a recovery) comes to hold this master's state.
func (ms *MasterServer) seedBackup(ctx context.Context, p *rpc.Peer, swap func() error) error {
	ms.seeding.Add(1)
	defer ms.seeding.Add(-1)
	ctx, cancel := context.WithTimeout(ctx, transferDeadline)
	defer cancel()
	req := installRequest{MasterID: ms.id, Epoch: ms.epoch, Source: ms.addr}
	out, err := p.Call(ctx, OpBackupInstall, req.encode())
	if err != nil {
		return fmt.Errorf("master %d: seed backup %s: %w", ms.id, p.Addr(), err)
	}
	d := rpc.NewDecoder(out)
	at := kv.LSN(d.U64())
	if err := d.Err(); err != nil {
		return fmt.Errorf("master %d: seed backup %s: %w", ms.id, p.Addr(), err)
	}
	return ms.eng.HoldSync(func() error {
		if err := ms.appendTo(ctx, p, ms.store.EntriesSince(at)); err != nil {
			return fmt.Errorf("master %d: catch up backup %s from lsn %d: %w", ms.id, p.Addr(), at, err)
		}
		if swap != nil {
			return swap()
		}
		return nil
	})
}

// appendTo sends entries to one backup in batches under the chunk budget.
func (ms *MasterServer) appendTo(ctx context.Context, p *rpc.Peer, entries []kv.Entry) error {
	for len(entries) > 0 {
		n, size := 0, 0
		for n < len(entries) && (n == 0 || size < transferChunkBytes) {
			size += kv.MinEntryWireSize + len(entries[n].Cmd.Key) + len(entries[n].Cmd.Value)
			n++
		}
		req := appendRequest{MasterID: ms.id, Epoch: ms.epoch, Entries: entries[:n]}
		cctx, cancel := context.WithTimeout(ctx, ms.opts.RPCTimeout)
		_, err := p.Call(cctx, OpBackupAppend, req.encode())
		cancel()
		if err != nil {
			return err
		}
		entries = entries[n:]
	}
	return nil
}

// captureState is the master's side of a state pull: its whole state at
// the log head, taken under the execution lock so that store, completion
// table and moved ranges belong to one log position. O(keys), no value
// copied (kv.Snapshot); execution waits for the capture, not the transfer.
func (ms *MasterServer) captureState(masterID uint64) (*stateImage, error) {
	if masterID != ms.id {
		return nil, fmt.Errorf("master %d: state pull addressed to %d", ms.id, masterID)
	}
	ms.eng.Lock()
	defer ms.eng.Unlock()
	img := &stateImage{Snapshot: ms.store.Snapshot(), Moved: ms.migr.movedRanges()}
	img.Completions = ms.eng.Tracker().Snapshot()
	img.Clients = ms.eng.Tracker().Marks()
	return img, nil
}

// Freeze stops the master from serving (migration final step or deposal).
func (ms *MasterServer) Freeze() { ms.State().Freeze() }

// ExpireClientLease drops a client's completion records after syncing all
// operations to backups — the §4.8 ordering requirement that keeps witness
// replay safe — and logs the expiry, so the backups' completion tables drop
// them at the same log position and a recovery restores the client expired.
func (ms *MasterServer) ExpireClientLease(c rifl.ClientID) error {
	if err := ms.eng.Sync(context.Background()); err != nil {
		return err
	}
	ms.eng.Lock()
	out := ms.applyInternal(kv.ExpireClient(c), rifl.RPCID{}, nil)
	ms.eng.Tracker().ExpireLease(c)
	ms.eng.Unlock()
	if out.Reply.Status != core.StatusOK {
		return fmt.Errorf("master %d: log lease expiry of client %d: %s", ms.id, c, out.Reply.Err)
	}
	return ms.eng.SyncTo(context.Background(), out.SyncTo)
}

// staleEntry is one §A.3 durable-value cache record: the value (and
// existence) a key had when its last durable version was overwritten
// speculatively.
type staleEntry struct {
	value []byte
	found bool
}

// captureDurableValue snapshots key's current (durable) value before a
// speculative overwrite, so OpReadStale can serve it without waiting for a
// sync. Runs under the engine's execution lock; only captures when the
// key's current state is durable and no snapshot exists yet.
func (ms *MasterServer) captureDurableValue(key []byte) {
	if uint64(ms.store.KeyLSN(key)) > ms.State().SyncedLSN() {
		return // current value is itself unsynced; snapshot already taken
	}
	ms.staleMu.Lock()
	if _, ok := ms.durableOld[string(key)]; !ok {
		// The cache shares the outgoing value with the store (values are
		// never modified in place) instead of copying it on every first
		// overwrite.
		v, _, found := ms.store.Peek(key)
		ms.durableOld[string(key)] = staleEntry{value: v, found: found}
	}
	ms.staleMu.Unlock()
}

// pruneDurableValues drops cache entries whose keys are durable again now
// that the backups hold the log up to synced.
func (ms *MasterServer) pruneDurableValues(synced kv.LSN) {
	ms.staleMu.Lock()
	for k := range ms.durableOld {
		if ms.store.KeyLSN([]byte(k)) <= synced {
			delete(ms.durableOld, k)
		}
	}
	ms.staleMu.Unlock()
}

// handleReadStale is the §A.3 read path: return the latest DURABLE value
// of a key immediately — from the durable-value cache if the key has
// unsynced updates, from the store otherwise — never waiting for a sync.
func (ms *MasterServer) handleReadStale(ctx context.Context, payload []byte) ([]byte, error) {
	req, err := core.DecodeRequest(payload)
	if err != nil {
		return nil, err
	}
	if ms.State().Frozen() {
		return (&core.Reply{Status: core.StatusWrongMaster}).Encode(), nil
	}
	cmd, err := kv.DecodeCommand(req.Payload)
	if err != nil {
		return nil, err
	}
	if cmd.Op != kv.OpGet {
		return (&core.Reply{Status: core.StatusError, Err: "master: OpReadStale supports Get only"}).Encode(), nil
	}
	if ms.migr.blockedKey(cmd.Key) {
		return (&core.Reply{Status: core.StatusKeyMoved}).Encode(), nil
	}
	ms.staleMu.Lock()
	entry, cached := ms.durableOld[string(cmd.Key)]
	ms.staleMu.Unlock()
	var res kv.Result
	switch {
	case cached:
		res = kv.Result{Found: entry.found, Value: entry.value}
	case uint64(ms.store.KeyLSN(cmd.Key)) > ms.State().SyncedLSN():
		// Created after the last sync with no durable predecessor: the
		// durable view does not contain it.
		res = kv.Result{}
	default:
		v, ver, found := ms.store.Get(cmd.Key)
		res = kv.Result{Found: found, Value: v, Version: ver}
	}
	return (&core.Reply{Status: core.StatusOK, Synced: true, Payload: res.Encode()}).Encode(), nil
}

// Execute implements core.Substrate: decode the command, apply its mode's
// admission rule, run it against the store. The engine has already answered
// RIFL duplicates — so a retry of an operation that executed before a range
// froze still gets its saved result, while a NEW operation on a migrating
// or moved range bounces here (its effects would miss the transfer or
// resurrect handed-off keys).
func (ms *MasterServer) Execute(ctx context.Context, req *core.Request, mode core.Mode) core.Executed {
	cmd, err := kv.DecodeCommand(req.Payload)
	if err != nil {
		return core.Executed{Status: core.StatusError, Err: err.Error()}
	}
	if cmd.Op == kv.OpExpireClient && mode != core.Internal {
		// Off the wire this would empty another client's completion records
		// on the backups.
		return core.Executed{Status: core.StatusError, Err: "master: expire-client is not a client operation"}
	}
	switch mode {
	case core.ReadOnly:
		if !cmd.IsReadOnly() {
			return core.Executed{Status: core.StatusError, Err: "master: OpRead requires a read-only command"}
		}
		fallthrough
	case core.Speculative, core.Durable:
		if ms.migr.blockedAny(req.KeyHashes) {
			return core.Executed{Status: core.StatusKeyMoved}
		}
	case core.Replay:
		// Only ranges whose handoff COMMITTED are skipped (their operations
		// transferred with the range or bounced without executing). Frozen
		// ranges still belong here: skipping them could lose a
		// completed-but-unsynced operation.
		if ms.migr.movedAny(req.KeyHashes) {
			return core.Executed{Status: core.StatusKeyMoved}
		}
	}
	if mode == core.Speculative {
		// Key-space analytics, on the hashes the witnesses key on so "hot"
		// matches what conflicts; only NEW executions reach here.
		ms.hot.ObserveAll(req.KeyHashes)
		if !cmd.IsReadOnly() {
			// §A.3 durable-value cache: preserve the outgoing durable values.
			if len(cmd.Pairs) > 0 {
				for _, pr := range cmd.Pairs {
					ms.captureDurableValue(pr.Key)
				}
			} else {
				ms.captureDurableValue(cmd.Key)
			}
		}
	}
	// The request's ack rides the entry to the backups. A replayed witness
	// record carries none (core.Engine.replay builds the request without
	// it): PAPER §4.8, acks of replayed requests are ignored.
	res, lsn, err := ms.store.ApplyAcked(cmd, req.ID, req.Ack)
	if err != nil {
		if lerr, ok := err.(*kv.LockedError); ok {
			// Blocked behind a prepared transaction: the client retries with
			// backoff; an expired lock triggers orphan resolution.
			ms.mLockWait.Observe(int64(lerr.Age))
			ms.coll.RecordSpan(ctx, "lock-wait", cmd.Op.String(), "locked", time.Now().Add(-lerr.Age), lerr.Age, "")
			ms.maybeResolve(lerr)
			return core.Executed{Status: core.StatusTxnLocked}
		}
		return core.Executed{Status: core.StatusError, Err: err.Error()}
	}
	class := cmd.Class()
	if mode == core.Replay && class != commute.ClassWrite {
		// Arbitrary-order replay (§3.3) is safe for commutative commands
		// because their STATE effects commute; their return values do not.
		// Scrub them (the DEVIATION note on core.Engine.Recover).
		res = &kv.Result{Found: res.Found}
	}
	// One encoding serves the completion record and the reply.
	return core.Executed{Result: res.Encode(), LSN: uint64(lsn), Class: class, Demote: res.Demote}
}

// Head implements core.Substrate.
func (ms *MasterServer) Head() uint64 { return uint64(ms.store.Head()) }

// handleUpdate is the client update path (§3.2.3), one request per RPC.
func (ms *MasterServer) handleUpdate(ctx context.Context, payload []byte) ([]byte, error) {
	req, err := core.DecodeRequest(payload)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	outs := [1]core.Outcome{ms.eng.Execute(ctx, req, core.Speculative)}
	ms.countClass(&outs[0])
	verdict := ms.eng.Reveal(ctx, outs[:])
	ms.observeOp(ctx, ms.mLatUpdate, "update", verdict, outs[0].Reply.Err, start)
	return outs[0].Reply.Encode(), nil
}

// handleUpdateBatch is the pipelined update path: execute every request in
// order, then satisfy all their sync obligations with ONE sync before
// revealing any gated reply (the client's half of the amortization is one
// slow-path Sync RPC for all its rejected records). Per-request outcomes
// stay independent.
func (ms *MasterServer) handleUpdateBatch(ctx context.Context, payload []byte) ([]byte, error) {
	reqs, err := decodeUpdateBatch(payload)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	outs := make([]core.Outcome, len(reqs))
	for i, req := range reqs {
		outs[i] = ms.eng.Execute(ctx, req, core.Speculative)
		ms.countClass(&outs[i])
	}
	verdict := ms.eng.Reveal(ctx, outs)
	ms.observeOp(ctx, ms.mLatBatch, "update_batch", verdict, "", start)
	return encodeReplyBatch(outs), nil
}

// countClass ticks the per-class verdict counter of a fresh speculative-path
// execution.
func (ms *MasterServer) countClass(out *core.Outcome) {
	if counters := ms.mClass[out.Path]; int(out.Class) < len(counters) {
		counters[out.Class].Inc()
	}
}

// handleRead serves linearizable reads through the engine's
// block-on-unsynced loop (§3.2.3, §A.3).
func (ms *MasterServer) handleRead(ctx context.Context, payload []byte) ([]byte, error) {
	req, err := core.DecodeRequest(payload)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	reply, verdict := ms.eng.Read(ctx, req)
	switch reply.Status {
	case core.StatusTxnLocked: // a prepared write may commit under this read
		verdict = "locked"
	case core.StatusError:
		verdict = "error"
	}
	ms.observeOp(ctx, ms.mLatRead, "read", verdict, reply.Err, start)
	return reply.Encode(), nil
}

// handleSync is the client's slow-path sync RPC (§3.2.1).
func (ms *MasterServer) handleSync(ctx context.Context, payload []byte) ([]byte, error) {
	if ms.State().Frozen() {
		return nil, errors.New("master: frozen")
	}
	return nil, ms.eng.Sync(ctx)
}

// Flush implements core.Substrate: "sync" here is appending the unsynced
// log suffix to every backup in parallel. A stale-epoch rejection deposes
// this master.
func (ms *MasterServer) Flush(ctx context.Context, synced uint64) (uint64, []witness.GCKey, error) {
	entries := ms.store.EntriesSince(kv.LSN(synced))
	if len(entries) == 0 {
		return synced, nil, nil
	}
	syncStart := time.Now()
	head := entries[len(entries)-1].LSN

	ms.peersMu.Lock()
	backups := append([]*rpc.Peer(nil), ms.backups...)
	ms.peersMu.Unlock()

	if len(backups) > 0 {
		req := appendRequest{MasterID: ms.id, Epoch: ms.epoch, Entries: entries}
		payload := req.encode()
		// Scatter: every append goes on the wire, then each is collected
		// under one deadline. (A backup-append span ends when its leg is
		// collected, which for a fast backup is after the slowest earlier
		// one answered.)
		calls := make([]*rpc.Call, len(backups))
		spans := make([]*metrics.SpanHandle, len(backups))
		for i, b := range backups {
			var bctx context.Context
			bctx, spans[i] = ms.coll.StartSpan(ctx, "backup-append")
			calls[i] = b.Start(bctx, OpBackupAppend, payload)
		}
		wctx, cancel := context.WithTimeout(ctx, ms.opts.RPCTimeout)
		// Drain every backup's result before classifying: a stale-epoch
		// rejection from ANY backup means a newer master exists, and that
		// verdict must win over whatever transport error another backup
		// happened to return first (a deposed master's peers may already be
		// retired, so connection errors and fencing races arrive mixed).
		var firstErr, staleErr error
		for i, call := range calls {
			_, err := call.Wait(wctx)
			spans[i].SetErr(err)
			spans[i].End()
			switch {
			case err == nil:
			case strings.Contains(err.Error(), ErrStaleEpoch):
				staleErr = err
			case firstErr == nil:
				firstErr = err
			}
		}
		cancel()
		if staleErr != nil {
			// A newer master exists: this one is a zombie. Stop serving
			// (§4.7).
			ms.State().Freeze()
			tc, _ := metrics.TraceFromContext(ctx)
			ms.jrn.RecordTrace(tc.TraceID, events.Event{
				Kind: events.KindZombieFenced, MasterID: ms.id, Epoch: ms.epoch,
				Err: staleErr.Error(),
			})
			return 0, nil, fmt.Errorf("master %d deposed: %w", ms.id, staleErr)
		}
		if firstErr != nil {
			return 0, nil, fmt.Errorf("master %d: backup sync failed: %w", ms.id, firstErr)
		}
	}
	ms.mSyncEntries.Observe(int64(len(entries)))
	ms.mSyncLat.ObserveDuration(time.Since(syncStart))
	ms.lastSyncNano.Store(time.Now().UnixNano())
	ms.truncateLog(head)
	ms.pruneDurableValues(head)
	keys := make([]witness.GCKey, 0, len(entries))
	var hashes [8]uint64 // scratch: most commands touch a key or two
	for i := range entries {
		en := &entries[i]
		for _, kh := range en.Cmd.AppendKeyHashes(hashes[:0]) {
			keys = append(keys, witness.GCKey{KeyHash: kh, ID: en.ID})
		}
	}
	ms.purgeExpired()
	return uint64(head), keys, nil
}

// truncateLog drops the log entries every backup now holds, as tail work of
// the sync that made them durable (the caller holds the sync slot).
//
// PAPER §3.2: synced operations survive on the backups; the master's log is
// the unsynced window. While a backup seed runs nothing is dropped: the
// seed still has to send every entry after its image's LSN, which is at or
// past the head of any sync that found no seed in flight.
func (ms *MasterServer) truncateLog(synced kv.LSN) {
	if ms.seeding.Load() > 0 {
		return
	}
	if err := ms.store.TruncateTo(synced); err != nil {
		panic(err) // synced ≤ head: Flush took it from the log it truncates
	}
}

// purgeExpired is the eager half of TTL support (the lazy half is reads
// treating expired objects as absent). It runs on the sync tail: expired
// keys are physically deleted by a logged OpPurgeExpired command carrying
// an explicit cutoff, so expiry flows through the ordinary log — backups
// replay the same deletions at the same positions, and the wall clock is
// consulted exactly once, here.
func (ms *MasterServer) purgeExpired() {
	now := time.Now().UnixNano()
	if ms.State().Frozen() || len(ms.store.ExpiredKeys(now, 1)) == 0 {
		return // the common case: leave the execution lock alone
	}
	ms.eng.Lock()
	defer ms.eng.Unlock()
	var keys [][]byte
	for _, k := range ms.store.ExpiredKeys(now, 64) {
		// Keys in migrating or moved ranges transfer (or transferred) with
		// their expiry stamps; purging them here would mutate a frozen range.
		if !ms.migr.blockedKey(k) {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return
	}
	cmd := kv.PurgeExpired(now, keys)
	if out := ms.applyInternal(cmd, rifl.RPCID{}, cmd.KeyHashes()); out.SyncTo > 0 {
		ms.eng.Kick()
	}
}

// applyInternal logs a master-originated command (RIFL-tracked only when id
// is set), marking keyHashes unsynced. The caller holds the engine's lock
// and owns the wait for out.SyncTo.
func (ms *MasterServer) applyInternal(cmd kv.Command, id rifl.RPCID, keyHashes []uint64) core.Outcome {
	req := core.Request{ID: id, KeyHashes: keyHashes, Payload: cmd.Encode()}
	return ms.eng.ExecuteLocked(context.Background(), &req, core.Internal)
}

// StartGarbage implements core.Substrate: one batched gc RPC per witness
// (§4.5), started and not awaited. Best effort — an unreachable witness's
// records age into the stale reports of a later pass.
func (ms *MasterServer) StartGarbage(keys []witness.GCKey) core.GarbageCall {
	ms.peersMu.Lock()
	witnesses := append([]*rpc.Peer(nil), ms.witnesses...)
	ms.peersMu.Unlock()
	if len(witnesses) == 0 {
		return core.DoneGarbage(nil)
	}
	payload := (&gcRequest{MasterID: ms.id, Keys: keys}).encode()
	g := &gcScatter{ms: ms}
	g.calls = g.buf[:0]
	for _, w := range witnesses {
		g.calls = append(g.calls, w.Start(context.Background(), OpWitnessGC, payload))
	}
	return g
}

// gcScatter is one gc batch in flight to every witness: the legs' call
// handles, in the same allocation for the usual few witnesses.
type gcScatter struct {
	ms    *MasterServer
	calls []*rpc.Call
	buf   [4]*rpc.Call
}

// Wait implements core.GarbageCall: every leg is collected under one
// deadline. A leg that failed or did not decode contributes nothing.
func (g *gcScatter) Wait() []witness.Record {
	ms := g.ms
	ctx, cancel := context.WithTimeout(context.Background(), ms.opts.RPCTimeout)
	defer cancel()
	var all []witness.Record
	var lost int
	var firstErr error
	for _, call := range g.calls {
		out, err := call.Wait(ctx)
		var stale []witness.Record
		if err == nil {
			stale, err = decodeWitnessRecords(out)
		}
		if err != nil {
			if lost++; firstErr == nil {
				firstErr = err
			}
			continue
		}
		all = append(all, stale...)
	}
	// Journaled once per outage, not per pass: a dead witness loses a leg
	// of every sync until it is replaced.
	if lost > 0 && !ms.gcLegsLost {
		ms.jrn.Record(events.Event{
			Kind: events.KindWitnessGCLost, MasterID: ms.id, Epoch: ms.epoch,
			Detail: fmt.Sprintf("%d of %d gc replies lost", lost, len(g.calls)),
			Err:    firstErr.Error(),
		})
	}
	ms.gcLegsLost = lost > 0
	return all
}

// masterSink is the state a recovering master builds aside while it pulls:
// a store, and the completion table's contents. Nothing of the master
// changes before the last chunk is in, so a pull that fails half way and
// starts over (or moves to another backup) starts clean.
type masterSink struct {
	ms          *MasterServer
	store       *kv.Store
	completions []rifl.Completion
	clients     []rifl.ClientMark
}

func (ms *MasterServer) newSink() *masterSink { return &masterSink{ms: ms, store: kv.NewStore()} }

func (s *masterSink) install(chunk *stateImage) error {
	s.store.Install(&chunk.Snapshot)
	s.completions = append(s.completions, chunk.Completions...)
	s.clients = append(s.clients, chunk.Clients...)
	return nil
}

func (s *masterSink) finish(lsn kv.LSN) error {
	if err := s.store.FinishInstall(lsn); err != nil {
		return err
	}
	if err := s.ms.store.Adopt(s.store); err != nil {
		return err
	}
	// PAPER §4.8: the restored table answers duplicates of what the backup
	// held (Completed) and refuses what its clients had acknowledged or
	// whose lease had expired (Stale, Expired) — also during the witness
	// replay, whose own acks are the ones that stay ignored.
	s.ms.eng.Tracker().Restore(s.completions)
	s.ms.eng.Tracker().RestoreMarks(s.clients)
	return nil
}

// probeBackups asks every backup how far its state goes, in one scatter,
// and returns the reachable ones, most advanced first.
func (ms *MasterServer) probeBackups(ctx context.Context, addrs []string) []string {
	lsn := make(map[string]uint64, len(addrs))
	var up []string
	for i, leg := range scatter(ctx, ms.nw, ms.addr, addrs, ms.opts.RPCTimeout, OpBackupProbe, u64Payload(ms.id)) {
		d := rpc.NewDecoder(leg.payload)
		if at := d.U64(); leg.err == nil && d.Err() == nil {
			lsn[addrs[i]] = at
			up = append(up, addrs[i])
		}
	}
	slices.SortStableFunc(up, func(a, b string) int { return cmp.Compare(lsn[b], lsn[a]) })
	return up
}

// RecoverFrom rebuilds this (fresh) master from a crashed predecessor's
// backups and one witness, implementing §3.3/§4.6:
//
//  1. probe every backup's LSN in one scatter and pull the state of the
//     most advanced (every backup holds a state the crashed master's log
//     passed through, so the most advanced dominates);
//  2. freeze one witness via getRecoveryData — the first of witnessAddrs
//     that answers — and replay its requests, with RIFL filtering
//     duplicates and client acks ignored (§4.8);
//  3. re-seed every backup, in parallel, with this master's state under
//     its higher epoch, and sync.
//
// The state is restored ONCE: trying the next witness does not pull again.
// Until a backup's re-seed is complete it keeps the state it had, so a
// master that dies anywhere in here leaves every copy the partition had.
//
// The coordinator then assigns fresh witnesses and reopens the master.
func (ms *MasterServer) RecoverFrom(ctx context.Context, backupAddrs, witnessAddrs []string) (string, error) {
	// Step 1.
	var restored transferStats
	if len(backupAddrs) > 0 {
		// The next most advanced backup is tried only when a pull fails.
		err := errors.New("no backup reachable")
		for _, addr := range ms.probeBackups(ctx, backupAddrs) {
			src := rpc.NewPeer(ms.nw, ms.addr, addr)
			_, restored, err = pullState(ctx, src, ms.id, ms.newSink, ms.jrn)
			src.Close()
			if err == nil {
				break
			}
		}
		if err != nil {
			return "", fmt.Errorf("recovery: restore: %w", err)
		}
	}
	// Ranges this partition handed off before the crash (seeded by the
	// coordinator via SetMovedRanges) must not come back. A backup drops a
	// moved range when the migration tells it to — after the coordinator
	// recorded the move, which is the commit — so one restored from may
	// still hold a range whose handoff committed just before the crash.
	if moved := ms.migr.movedRanges(); len(moved) > 0 {
		ms.dropMovedObjects(moved)
	}
	// Every backup is re-seeded below, whatever it holds: until then the
	// restored state counts as synced (it came from a backup) and what the
	// witness replay adds as unsynced.
	ms.State().InitRestored(uint64(restored.LSN), uint64(restored.LSN))

	// Step 2. getRecoveryData irreversibly freezes the witness, so clients
	// can no longer complete updates against the old witness set (§4.6).
	var replayed int
	if len(witnessAddrs) > 0 {
		var records []witness.Record
		err := errors.New("recovery: no witness")
		for _, addr := range witnessAddrs {
			var out []byte
			if out, err = dialCall(ctx, ms.nw, ms.addr, addr, ms.opts.RPCTimeout, OpWitnessRecoveryData, u64Payload(ms.id)); err == nil {
				records, err = decodeWitnessRecords(out)
			}
			if err == nil {
				break
			}
		}
		if err != nil {
			return "", fmt.Errorf("recovery: no witness reachable: %w", err)
		}
		// Replay through the engine: RIFL skips what the restored state
		// already holds — completed or acknowledged — acks are ignored
		// (§4.8), moved ranges are skipped and commutative results scrubbed
		// by Execute's Replay mode.
		ms.eng.Recover(ctx, records)
		replayed = len(records)
	}

	// Step 3. The seeds run in parallel; each backup swaps its new replica
	// in by itself when its transfer completes.
	ms.peersMu.Lock()
	backups := append([]*rpc.Peer(nil), ms.backups...)
	ms.peersMu.Unlock()
	errs := make(chan error, len(backups))
	for _, b := range backups {
		go func() { errs <- ms.seedBackup(ctx, b, nil) }()
	}
	var seedErr error
	for range backups {
		if err := <-errs; err != nil && seedErr == nil {
			seedErr = err
		}
	}
	if seedErr != nil {
		return "", fmt.Errorf("recovery: re-seed: %w", seedErr)
	}
	// The seeds carried everything; the sync tells the engine so. Entries
	// synced here are garbage-collected from witnesses lazily; the frozen
	// witness is decommissioned by the coordinator anyway.
	if err := ms.eng.Sync(ctx); err != nil {
		return "", fmt.Errorf("recovery: final sync: %w", err)
	}
	return fmt.Sprintf("state restored in %d chunks, %d bytes at lsn %d; %d witness records replayed; %d backups re-seeded",
		restored.Chunks, restored.Bytes, restored.LSN, replayed, len(backups)), nil
}
