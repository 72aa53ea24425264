package cluster

import (
	"context"
	"fmt"
	"time"

	"curp/internal/rpc"
	"curp/internal/transport"
	"curp/internal/witness"
)

// MigrationDriver is the client side of the migration RPCs: a rebalance
// coordinator (internal/shard.Cluster.Rebalance in-process, or curpctl
// rebalance across TCP) uses it to drive sources, targets, and
// coordinators through a key-range handoff. It is stateless; every call
// dials fresh, so a crashed server fails fast instead of wedging a cached
// connection.
type MigrationDriver struct {
	// NW is the transport shared with the deployment.
	NW transport.Network
	// Self is the driver's network identity.
	Self string
	// Timeout bounds each driver RPC. Collect and Install move whole key
	// ranges and sync them to backups, so this is minutes-scale territory
	// for big shards; DefaultMigrationTimeout suits tests and small
	// deployments.
	Timeout time.Duration
}

// DefaultMigrationTimeout bounds one migration RPC when the driver's
// Timeout is zero.
const DefaultMigrationTimeout = 30 * time.Second

func (md *MigrationDriver) call(ctx context.Context, addr string, op uint16, payload []byte) ([]byte, error) {
	timeout := md.Timeout
	if timeout <= 0 {
		timeout = DefaultMigrationTimeout
	}
	return dialCall(ctx, md.NW, md.Self, addr, timeout, op, payload)
}

// dialCall performs one control-path RPC on a fresh connection: dial addr
// as self, call op under ctx bounded by timeout, close.
func dialCall(ctx context.Context, nw transport.Network, self, addr string, timeout time.Duration, op uint16, payload []byte) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	p := rpc.NewPeer(nw, self, addr)
	defer p.Close()
	return p.Call(ctx, op, payload)
}

// legReply is one leg's outcome of a scatter.
type legReply struct {
	payload []byte
	err     error
}

// scatter puts op with payload on the wire to every address — a fresh dial
// each, like dialCall — then collects the replies, in addrs' order, under
// one deadline: a fan-out costs one round trip, not one per member.
func scatter(ctx context.Context, nw transport.Network, self string, addrs []string, timeout time.Duration, op uint16, payload []byte) []legReply {
	calls := make([]*rpc.Call, len(addrs))
	for i, addr := range addrs {
		p := rpc.NewPeer(nw, self, addr)
		defer p.Close()
		calls[i] = p.Start(ctx, op, payload)
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	out := make([]legReply, len(addrs))
	for i, call := range calls {
		out[i].payload, out[i].err = call.Wait(ctx)
	}
	return out
}

// Collect freezes ranges on the source master, waits for the drain, and
// returns the exported bundle.
func (md *MigrationDriver) Collect(ctx context.Context, masterAddr string, masterID uint64, rs []witness.HashRange) (*MigrationBundle, error) {
	out, err := md.call(ctx, masterAddr, OpMigrateCollect, encodeRangesPayload(masterID, rs))
	if err != nil {
		return nil, fmt.Errorf("migrate: collect from %s: %w", masterAddr, err)
	}
	return unmarshalBundle(rpc.NewDecoder(out))
}

// Install imports a bundle on the target master, returning after the
// target has synced it to its backups.
func (md *MigrationDriver) Install(ctx context.Context, masterAddr string, masterID uint64, b *MigrationBundle) error {
	e := rpc.NewEncoder(256)
	e.U64(masterID)
	b.marshal(e)
	if _, err := md.call(ctx, masterAddr, OpMigrateInstall, e.Bytes()); err != nil {
		return fmt.Errorf("migrate: install on %s: %w", masterAddr, err)
	}
	return nil
}

// Complete commits the handoff on the source: ranges become MOVED and
// their objects are dropped. destAddr names the target master that now
// owns the ranges; the source keeps it as a forward so transaction
// decision lookups for the moved home hashes can chase the handoff.
func (md *MigrationDriver) Complete(ctx context.Context, masterAddr string, masterID uint64, rs []witness.HashRange, destAddr string) error {
	e := rpc.NewEncoder(32 + 16*len(rs))
	rangesOut(e, masterID, rs)
	e.String(destAddr)
	if _, err := md.call(ctx, masterAddr, OpMigrateComplete, e.Bytes()); err != nil {
		return fmt.Errorf("migrate: complete on %s: %w", masterAddr, err)
	}
	return nil
}

// Abort unfreezes ranges on the source after a failed transfer.
func (md *MigrationDriver) Abort(ctx context.Context, masterAddr string, masterID uint64, rs []witness.HashRange) error {
	if _, err := md.call(ctx, masterAddr, OpMigrateAbort, encodeRangesPayload(masterID, rs)); err != nil {
		return fmt.Errorf("migrate: abort on %s: %w", masterAddr, err)
	}
	return nil
}

// Drop discards installed range state on the target after a failed
// migration.
func (md *MigrationDriver) Drop(ctx context.Context, masterAddr string, masterID uint64, rs []witness.HashRange) error {
	if _, err := md.call(ctx, masterAddr, OpMigrateDrop, encodeRangesPayload(masterID, rs)); err != nil {
		return fmt.Errorf("migrate: drop on %s: %w", masterAddr, err)
	}
	return nil
}

// DropBackups marks moved ranges on each of the source's backups, so §A.1
// backup reads of handed-off keys bounce instead of serving frozen
// pre-handoff replicas. Best effort per backup; the first error is
// returned after all are attempted (a missed backup self-corrects at the
// next recovery, which re-marks from the coordinator's record).
func (md *MigrationDriver) DropBackups(ctx context.Context, backupAddrs []string, masterID uint64, rs []witness.HashRange) error {
	var firstErr error
	for _, addr := range backupAddrs {
		if _, err := md.call(ctx, addr, OpBackupDropRange, encodeRangesPayload(masterID, rs)); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("migrate: drop range on backup %s: %w", addr, err)
		}
	}
	return firstErr
}

// AddMoved records moved-away ranges at a partition's coordinator — the
// migration's commit point for crash recovery. destAddr (the target
// master) rides along so a recovered source master re-learns where to
// forward decision lookups for the moved ranges.
func (md *MigrationDriver) AddMoved(ctx context.Context, coordAddr string, masterID uint64, rs []witness.HashRange, destAddr string) error {
	e := rpc.NewEncoder(32 + 16*len(rs))
	rangesOut(e, masterID, rs)
	e.String(destAddr)
	if _, err := md.call(ctx, coordAddr, OpCoordAddMoved, e.Bytes()); err != nil {
		return fmt.Errorf("migrate: note moved at %s: %w", coordAddr, err)
	}
	return nil
}

// AddFrozen records mid-transfer ranges at a partition's coordinator
// before Collect freezes them on the master: if the source crashes during
// the step, its replacement is recovered with the ranges still frozen
// instead of serving keys the step may be about to commit elsewhere.
func (md *MigrationDriver) AddFrozen(ctx context.Context, coordAddr string, masterID uint64, rs []witness.HashRange) error {
	if _, err := md.call(ctx, coordAddr, OpCoordAddFrozen, encodeRangesPayload(masterID, rs)); err != nil {
		return fmt.Errorf("migrate: note frozen at %s: %w", coordAddr, err)
	}
	return nil
}

// DelFrozen withdraws AddFrozen after the step aborts or commits.
func (md *MigrationDriver) DelFrozen(ctx context.Context, coordAddr string, masterID uint64, rs []witness.HashRange) error {
	if _, err := md.call(ctx, coordAddr, OpCoordDelFrozen, encodeRangesPayload(masterID, rs)); err != nil {
		return fmt.Errorf("migrate: forget frozen at %s: %w", coordAddr, err)
	}
	return nil
}

// DelMoved undoes AddMoved during an abort.
func (md *MigrationDriver) DelMoved(ctx context.Context, coordAddr string, masterID uint64, rs []witness.HashRange) error {
	if _, err := md.call(ctx, coordAddr, OpCoordDelMoved, encodeRangesPayload(masterID, rs)); err != nil {
		return fmt.Errorf("migrate: forget moved at %s: %w", coordAddr, err)
	}
	return nil
}

// FetchView fetches a partition's current view (master and replica
// addresses) from its coordinator — how an out-of-process driver (curpctl)
// finds the masters it must migrate between.
func FetchView(ctx context.Context, nw transport.Network, self, coordAddr string, masterID uint64) (*ViewInfo, error) {
	p := rpc.NewPeer(nw, self, coordAddr)
	defer p.Close()
	e := rpc.NewEncoder(8)
	e.U64(masterID)
	out, err := p.Call(ctx, OpGetView, e.Bytes())
	if err != nil {
		return nil, fmt.Errorf("cluster: fetch view from %s: %w", coordAddr, err)
	}
	return decodeViewInfo(out)
}
