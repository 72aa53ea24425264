package cluster

import (
	"context"
	"fmt"
	"sync"
	"time"

	"curp/internal/core"
	"curp/internal/events"
	"curp/internal/health"
	"curp/internal/kv"
	"curp/internal/metrics"
	"curp/internal/rpc"
	"curp/internal/transport"
	"curp/internal/witness"
)

// ErrStaleEpoch is the error message backups answer to replication
// requests from deposed masters (zombie defense, paper §4.7: the
// underlying system neutralizes zombies "by asking backups to reject
// replication requests from a crashed master").
const ErrStaleEpoch = "backup: stale master epoch"

// backupState is a backup's replica of one master: its state at the last
// synced LSN. replica is replaced whole when a state transfer installs a
// new one (handleInstall); every field is guarded by BackupServer.mu.
type backupState struct {
	replica *kv.Backup
	epoch   uint64
	// moved are ring arcs the master handed off via live migration; reads
	// touching them answer StatusKeyMoved so stale replicas of migrated
	// keys are never served. An installed replica brings its own.
	moved []witness.HashRange
}

// BackupServer holds state replicas for one or more masters, serves reads
// from the replicated (synced-only) state, and is the source a recovering
// master pulls that state from.
type BackupServer struct {
	node

	mu     sync.Mutex
	states map[uint64]*backupState

	// transfers serves the state pulls of recovering masters.
	transfers transferSource

	mAppendEntries *metrics.Histogram
	mAppendLat     *metrics.Histogram
	mStaleEpochs   *metrics.Counter
}

// NewBackupServer creates a backup server listening on addr, outside any
// deployment (shard 0, default trace sampling, no heartbeat).
func NewBackupServer(nw transport.Network, addr string) (*BackupServer, error) {
	return newBackupServer(nw, addr, NodeOptions{})
}

// newBackupServer is NewBackupServer with the deployment's node settings —
// how Cluster boots its backups, spares included.
func newBackupServer(nw transport.Network, addr string, o NodeOptions) (*BackupServer, error) {
	bs := &BackupServer{states: make(map[uint64]*backupState)}
	bs.transfers.capture = bs.captureState
	bs.init(nw, addr, "backup", o)
	bs.beat = func() health.Beat { return health.Beat{Role: health.RoleBackup, Addr: addr} }
	bs.buildMetrics()
	bs.rpc.Handle(OpBackupAppend, bs.handleAppend)
	bs.rpc.Handle(OpBackupProbe, bs.handleProbe)
	bs.rpc.Handle(OpBackupRead, bs.handleRead)
	bs.rpc.Handle(OpBackupSetEpoch, bs.handleSetEpoch)
	bs.rpc.Handle(OpBackupInstall, bs.handleInstall)
	bs.rpc.Handle(OpBackupDropRange, bs.handleDropRange)
	bs.rpc.Handle(OpStatePull, bs.transfers.serve)
	if err := bs.serve(); err != nil {
		return nil, err
	}
	return bs, nil
}

// buildMetrics registers the backup-side series: sync batch size and
// latency (the master's §4.4 batching shows up here as entries per append)
// plus zombie-defense rejections.
func (bs *BackupServer) buildMetrics() {
	r := bs.metrics
	bs.mAppendEntries = r.SizeHistogram("curp_backup_append_entries",
		"Log entries per replication append (master sync batch size).")
	bs.mAppendLat = r.Histogram("curp_backup_append_duration_seconds",
		"Server-side latency of replication appends.")
	bs.mStaleEpochs = r.Counter("curp_backup_stale_epoch_rejects_total",
		"Appends rejected from deposed masters (zombie defense).")
	r.GaugeFunc("curp_backup_replicas",
		"Masters whose state this backup replicates.",
		func() float64 {
			bs.mu.Lock()
			defer bs.mu.Unlock()
			return float64(len(bs.states))
		})
	// What a backup holds instead of a log: both are bounded by the live
	// state, not by how many operations produced it.
	sum := func(f func(*kv.Backup) int) func() float64 {
		return func() float64 {
			bs.mu.Lock()
			defer bs.mu.Unlock()
			n := 0
			for _, st := range bs.states {
				n += f(st.replica)
			}
			return float64(n)
		}
	}
	r.GaugeFunc("curp_backup_replica_objects",
		"Objects (tombstones included) in the state replicas this backup holds.",
		sum((*kv.Backup).Objects))
	r.GaugeFunc("curp_backup_completion_records",
		"RIFL completion records this backup holds: operations no client ack or lease expiry has collected yet.",
		sum((*kv.Backup).CompletionRecords))
}

// Close shuts the server down.
func (bs *BackupServer) Close() { bs.shutdown(nil) }

// SyncedLSN reports the log position a master's replica reflects (tests).
func (bs *BackupServer) SyncedLSN(masterID uint64) kv.LSN {
	return bs.Replica(masterID).SyncedLSN()
}

// Replica returns the backup's current state replica of a master.
func (bs *BackupServer) Replica(masterID uint64) *kv.Backup {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	return bs.stateLocked(masterID).replica
}

// stateLocked returns (creating it empty) the state for a master. Must
// hold bs.mu.
func (bs *BackupServer) stateLocked(masterID uint64) *backupState {
	st := bs.states[masterID]
	if st == nil {
		st = &backupState{replica: kv.NewBackup()}
		bs.states[masterID] = st
	}
	return st
}

// admit checks a master's epoch against the fence and adopts it, returning
// the replica the master may write to. PAPER §4.7: backups reject
// replication requests from a deposed master.
func (bs *BackupServer) admit(masterID, epoch uint64, what string) (*kv.Backup, error) {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	st := bs.stateLocked(masterID)
	if epoch < st.epoch {
		bs.mStaleEpochs.Inc()
		return nil, fmt.Errorf("%s: %s by master %d epoch %d < %d", ErrStaleEpoch, what, masterID, epoch, st.epoch)
	}
	st.epoch = epoch
	return st.replica, nil
}

func (bs *BackupServer) handleAppend(ctx context.Context, payload []byte) ([]byte, error) {
	req, err := decodeAppendRequest(payload)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	verdict := "ok"
	defer func() {
		bs.mAppendLat.ObserveDuration(time.Since(start))
		bs.coll.RecordSpan(ctx, "backup-append", "append", verdict, start, time.Since(start), "")
	}()
	bs.mAppendEntries.Observe(int64(len(req.Entries)))
	replica, err := bs.admit(req.MasterID, req.Epoch, "append")
	if err != nil {
		verdict = "stale-epoch"
		return nil, err
	}
	if err := replica.Append(req.Entries); err != nil {
		return nil, err
	}
	return u64Payload(uint64(replica.SyncedLSN())), nil
}

// handleProbe answers how far this backup's state of a master goes.
func (bs *BackupServer) handleProbe(ctx context.Context, payload []byte) ([]byte, error) {
	d := rpc.NewDecoder(payload)
	masterID := d.U64()
	if err := d.Err(); err != nil {
		return nil, err
	}
	return u64Payload(uint64(bs.SyncedLSN(masterID))), nil
}

// captureState is the backup's side of a state pull: its replica's state,
// with the arcs it refuses to serve.
func (bs *BackupServer) captureState(masterID uint64) (*stateImage, error) {
	bs.mu.Lock()
	st := bs.stateLocked(masterID)
	replica, moved := st.replica, st.moved
	bs.mu.Unlock()
	return &stateImage{Snapshot: replica.Snapshot(), Moved: moved}, nil
}

// backupSink is the replica a backup builds aside while it pulls a state.
type backupSink struct {
	replica *kv.Backup
	moved   []witness.HashRange
}

func (s *backupSink) install(chunk *stateImage) error {
	s.moved = append(s.moved, chunk.Moved...)
	return s.replica.Install(&chunk.Snapshot)
}

func (s *backupSink) finish(lsn kv.LSN) error { return s.replica.FinishInstall(lsn) }

// installRequest is the payload of OpBackupInstall: pull master MasterID's
// state from Source (the master itself) and serve it under Epoch.
type installRequest struct {
	MasterID, Epoch uint64
	Source          string
}

func (r *installRequest) encode() []byte {
	e := rpc.NewEncoder(24 + len(r.Source))
	e.U64(r.MasterID)
	e.U64(r.Epoch)
	e.String(r.Source)
	return e.Bytes()
}

// handleInstall replaces this backup's replica of a master with the
// master's current state: a state transfer into a replica built ASIDE, put
// in place only when the last chunk is in. Until then the old replica keeps
// serving §A.1 reads and stays available to a recovery — a backup never
// gives up a complete copy for an incomplete one.
//
// PAPER §3.3: recovery must leave the partition no less durable than it
// found it; a master that died mid-seed must find every backup's previous
// state intact.
func (bs *BackupServer) handleInstall(ctx context.Context, payload []byte) ([]byte, error) {
	d := rpc.NewDecoder(payload)
	req := installRequest{MasterID: d.U64(), Epoch: d.U64(), Source: d.String()}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if _, err := bs.admit(req.MasterID, req.Epoch, "install"); err != nil {
		return nil, err
	}
	ctx, cancel := bs.whileOpen(ctx)
	defer cancel()
	src := rpc.NewPeer(bs.nw, bs.addr, req.Source)
	defer src.Close()
	sink, stats, err := pullState(ctx, src, req.MasterID, func() *backupSink {
		return &backupSink{replica: kv.NewBackup()}
	}, bs.jrn)
	if err != nil {
		return nil, err
	}
	bs.mu.Lock()
	defer bs.mu.Unlock()
	st := bs.stateLocked(req.MasterID)
	if st.epoch != req.Epoch {
		// Fenced for a newer master while the transfer ran: its recovery
		// decides what this backup holds next, not a deposed master's seed.
		return nil, fmt.Errorf("%s: install by master %d epoch %d, now %d", ErrStaleEpoch, req.MasterID, req.Epoch, st.epoch)
	}
	st.replica, st.moved = sink.replica, witness.MergeRanges(nil, sink.moved)
	return u64Payload(uint64(stats.LSN)), nil
}

// handleRead serves a read-only command against the materialized replica:
// the §A.1 backup-read path. Only synced data is visible here, which is
// exactly the consistency contract the witness probe guards.
func (bs *BackupServer) handleRead(ctx context.Context, payload []byte) ([]byte, error) {
	d := rpc.NewDecoder(payload)
	masterID := d.U64()
	reqBytes := d.Bytes32()
	if err := d.Err(); err != nil {
		return nil, err
	}
	req, err := core.DecodeRequest(reqBytes)
	if err != nil {
		return nil, err
	}
	cmd, err := kv.DecodeCommand(req.Payload)
	if err != nil {
		return nil, err
	}
	if !cmd.IsReadOnly() {
		return (&core.Reply{Status: core.StatusError, Err: "backup: mutations not allowed"}).Encode(), nil
	}
	bs.mu.Lock()
	st := bs.stateLocked(masterID)
	replica, moved := st.replica, st.moved
	bs.mu.Unlock()
	if len(moved) > 0 {
		for _, kh := range req.KeyHashes {
			if witness.RangesContainHash(moved, kh) {
				// The key's range migrated away: this replica is frozen
				// pre-handoff state. Bounce so the client re-resolves
				// routing instead of reading a stale (or spuriously
				// missing) value.
				return (&core.Reply{Status: core.StatusKeyMoved}).Encode(), nil
			}
		}
	}
	res, err := replica.Read(cmd)
	if err != nil {
		return (&core.Reply{Status: core.StatusError, Err: err.Error()}).Encode(), nil
	}
	return (&core.Reply{Status: core.StatusOK, Synced: true, Payload: res.Encode()}).Encode(), nil
}

// handleDropRange marks ranges as migrated away and drops their objects
// from the replica: the replica IS the backup's state, so a recovery that
// restores from it does not see them either.
func (bs *BackupServer) handleDropRange(ctx context.Context, payload []byte) ([]byte, error) {
	d := rpc.NewDecoder(payload)
	masterID, rs := rangesIn(d)
	if err := d.Err(); err != nil {
		return nil, err
	}
	bs.mu.Lock()
	st := bs.stateLocked(masterID)
	st.moved = witness.MergeRanges(st.moved, rs)
	replica := st.replica
	bs.mu.Unlock()
	replica.DropRange(func(key []byte) bool {
		return witness.RangesContain(rs, witness.RingPoint(key))
	})
	return nil, nil
}

func (bs *BackupServer) handleSetEpoch(ctx context.Context, payload []byte) ([]byte, error) {
	d := rpc.NewDecoder(payload)
	masterID := d.U64()
	epoch := d.U64()
	if err := d.Err(); err != nil {
		return nil, err
	}
	bs.mu.Lock()
	st := bs.stateLocked(masterID)
	raised := epoch > st.epoch
	if raised {
		st.epoch = epoch
	}
	bs.mu.Unlock()
	if raised {
		// Deposal fence: appends below this epoch are now rejected (§4.7).
		tc, _ := metrics.TraceFromContext(ctx)
		bs.jrn.RecordTrace(tc.TraceID, events.Event{
			Kind: events.KindBackupFenced, MasterID: masterID, Epoch: epoch,
		})
	}
	return nil, nil
}
