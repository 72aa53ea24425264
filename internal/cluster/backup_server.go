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

// backupState is a backup's replica for one master: the log plus a
// materialized store for §A.1 backup reads.
type backupState struct {
	log   *kv.Backup
	store *kv.Store
	epoch uint64
	// moved are ring arcs the master handed off via live migration; reads
	// touching them answer StatusKeyMoved so stale replicas of migrated
	// keys are never served. Reset clears it (recovery re-marks).
	moved []witness.HashRange
}

// BackupServer stores log replicas for one or more masters and serves
// reads from the replicated (synced-only) state.
type BackupServer struct {
	node

	mu     sync.Mutex
	states map[uint64]*backupState

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
	bs.init(nw, addr, "backup", o)
	bs.beat = func() health.Beat { return health.Beat{Role: health.RoleBackup, Addr: addr} }
	bs.buildMetrics()
	bs.rpc.Handle(OpBackupAppend, bs.handleAppend)
	bs.rpc.Handle(OpBackupFetch, bs.handleFetch)
	bs.rpc.Handle(OpBackupRead, bs.handleRead)
	bs.rpc.Handle(OpBackupSetEpoch, bs.handleSetEpoch)
	bs.rpc.Handle(OpBackupReset, bs.handleReset)
	bs.rpc.Handle(OpBackupDropRange, bs.handleDropRange)
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
		"Master logs replicated on this backup.",
		func() float64 {
			bs.mu.Lock()
			defer bs.mu.Unlock()
			return float64(len(bs.states))
		})
}

// Close shuts the server down.
func (bs *BackupServer) Close() { bs.shutdown(nil) }

// SyncedLSN reports the backup's replicated log head for a master (tests).
func (bs *BackupServer) SyncedLSN(masterID uint64) kv.LSN {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if st := bs.states[masterID]; st != nil {
		return st.log.SyncedLSN()
	}
	return 0
}

func (bs *BackupServer) state(masterID uint64) *backupState {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	st := bs.states[masterID]
	if st == nil {
		st = &backupState{log: kv.NewBackup(), store: kv.NewReplicaStore()}
		bs.states[masterID] = st
	}
	return st
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
	st := bs.state(req.MasterID)
	bs.mu.Lock()
	if cur := st.epoch; req.Epoch < cur {
		bs.mu.Unlock()
		bs.mStaleEpochs.Inc()
		verdict = "stale-epoch"
		return nil, fmt.Errorf("%s: master %d epoch %d < %d", ErrStaleEpoch, req.MasterID, req.Epoch, cur)
	}
	st.epoch = req.Epoch
	bs.mu.Unlock()
	before := st.log.SyncedLSN()
	if err := st.log.Append(req.Entries); err != nil {
		return nil, err
	}
	// Materialize newly appended entries so backup reads observe them.
	for i := range req.Entries {
		en := &req.Entries[i]
		if en.LSN <= before {
			continue
		}
		if err := st.store.ReplayEntry(en); err != nil {
			return nil, err
		}
	}
	e := rpc.NewEncoder(8)
	e.U64(uint64(st.log.SyncedLSN()))
	return e.Bytes(), nil
}

func (bs *BackupServer) handleFetch(ctx context.Context, payload []byte) ([]byte, error) {
	d := rpc.NewDecoder(payload)
	masterID := d.U64()
	if err := d.Err(); err != nil {
		return nil, err
	}
	st := bs.state(masterID)
	return encodeEntries(st.log.Entries()), nil
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
	st := bs.state(masterID)
	bs.mu.Lock()
	moved := st.moved
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
	res, _, err := st.store.Apply(cmd, req.ID)
	if err != nil {
		return (&core.Reply{Status: core.StatusError, Err: err.Error()}).Encode(), nil
	}
	return (&core.Reply{Status: core.StatusOK, Synced: true, Payload: res.Encode()}).Encode(), nil
}

// handleReset clears a master's replica ahead of a full re-sync during
// recovery (the coordinator reconciles backups by restoring the longest
// log and replaying it from scratch).
func (bs *BackupServer) handleReset(ctx context.Context, payload []byte) ([]byte, error) {
	d := rpc.NewDecoder(payload)
	masterID := d.U64()
	epoch := d.U64()
	if err := d.Err(); err != nil {
		return nil, err
	}
	st := bs.state(masterID)
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if epoch < st.epoch {
		return nil, fmt.Errorf("%s: reset epoch %d < %d", ErrStaleEpoch, epoch, st.epoch)
	}
	st.epoch = epoch
	st.log.Reset()
	// The moved-range fencing survives the reset: it is partition
	// metadata, not log state, and the recovery re-seed is about to
	// re-materialize handed-off keys this replica must keep refusing to
	// serve (§A.1 reads from old-ring clients would otherwise see frozen
	// pre-handoff values in the window before the coordinator re-marks).
	bs.states[masterID] = &backupState{log: st.log, store: kv.NewReplicaStore(), epoch: epoch, moved: st.moved}
	return nil, nil
}

// handleDropRange marks ranges as migrated away and frees their objects
// from the materialized replica. The log keeps the entries (history); only
// the read surface changes.
func (bs *BackupServer) handleDropRange(ctx context.Context, payload []byte) ([]byte, error) {
	d := rpc.NewDecoder(payload)
	masterID, rs := rangesIn(d)
	if err := d.Err(); err != nil {
		return nil, err
	}
	st := bs.state(masterID)
	bs.mu.Lock()
	st.moved = witness.MergeRanges(st.moved, rs)
	bs.mu.Unlock()
	st.store.DropRange(func(key []byte) bool {
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
	st := bs.state(masterID)
	bs.mu.Lock()
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
