package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"curp/internal/controlplane"
	"curp/internal/events"
	"curp/internal/health"
	"curp/internal/metrics"
	"curp/internal/rifl"
	"curp/internal/rpc"
	"curp/internal/transport"
	"curp/internal/witness"
)

// masterInfo is the coordinator's record for one data partition. Since the
// control plane became replicated it is a MIRROR: every field except the
// in-process runtime handles (server, opts) is rebuilt from committed
// control-log commands by applyCtrl, never written directly.
type masterInfo struct {
	id                 uint64
	addr               string
	epoch              uint64
	reservedEpoch      uint64
	witnessAddrs       []string
	witnessListVersion uint64
	backupAddrs        []string
	server             *MasterServer // in-process handle, nil for remote masters
	// opts is the master's resolved configuration, reused when the heal
	// loop promotes a replacement.
	opts MasterOptions
	// movedAway are ring arcs this partition handed off via live
	// migration. Recovery seeds replacement masters with them so restored
	// backup logs and witness replays cannot resurrect migrated keys.
	movedAway []witness.HashRange
	// forwards pairs handed-off arcs with the target master address that
	// received them. Recovery seeds replacement masters with them so
	// transaction decision lookups on moved home ranges keep being
	// forwarded after the source master that performed the handoff dies.
	forwards []MovedForward
	// frozen are ring arcs a migration step is currently transferring
	// out of this partition (recorded by the driver before Collect,
	// withdrawn on abort or commit). Recovery seeds replacement masters
	// with them as MIGRATING: the master-side freeze lives in memory, and
	// a replacement serving a mid-transfer range would split-brain with
	// the target the moment the step commits.
	frozen []witness.HashRange
}

// Coordinator is the cluster configuration manager (the paper's "system
// configuration manager", §3.6): it owns the master → {backups, witnesses,
// WitnessListVersion} mapping, issues RIFL client IDs and leases, and
// orchestrates master crash recovery and witness reconfiguration. The
// paper assumes this role is replicated with consensus (§2); here it is:
// every Coordinator is one replica of a 2f+1 control-plane quorum
// (internal/controlplane), and every configuration mutation is proposed to
// the quorum leader, committed by majority replication, and mirrored into
// this replica's serving tables by applyCtrl. A quorum of one (the
// default) degenerates to the old single-coordinator behavior through the
// exact same code path.
//
// Locking: c.mu guards the mirror (masters map); the control-plane node
// has its own lock. applyCtrl runs under the node lock and takes c.mu, so
// no code path may call into the node (Propose/Status/HoldingLease) while
// holding c.mu.
type Coordinator struct {
	nw   transport.Network
	addr string

	mu      sync.Mutex
	masters map[uint64]*masterInfo

	// cp is this replica's control-plane consensus node; cpPeers/cpRank
	// its quorum membership.
	cp      *controlplane.Node
	cpPeers []string
	cpRank  int
	// clientNS is the RIFL client-ID namespace base added to replicated
	// registration sequence numbers.
	clientNS uint64

	// localMasters holds in-process master handles by ADDRESS, registered
	// by whichever replica booted the server; applyCtrl attaches them to
	// the mirror when a committed command names that address. Guarded by
	// c.mu.
	localMasters map[string]*MasterServer
	localOpts    map[string]MasterOptions

	leases *rifl.LeaseServer
	rpc    *rpc.Server

	// reconfMu serializes reconfigurations (recovery, witness
	// replacement, migration) so the heal loop and an operator cannot
	// interleave two recoveries of one partition.
	reconfMu sync.Mutex

	// table tracks the liveness of every registered node (masters,
	// backups, witnesses). It is always maintained — heartbeats are cheap
	// and OpHealthStatus renders it — but only drives recovery when
	// EnableSelfHealing started the heal loop.
	table *health.Table
	heal  *healManager

	metrics *metrics.Registry
	// coll records distributed-trace spans for traced control-plane RPCs.
	coll *metrics.Collector
	// healEvents holds one pre-registered counter per FailoverKind, so a
	// scrape sees every curp_heal_events_total series at 0 before the
	// first incident.
	healEvents map[FailoverKind]*metrics.Counter

	// jrn is this replica's flight-recorder journal (elections, leases,
	// failover stages, anomalies); watch the anomaly watchdog, owned by the
	// resident sampler goroutine; anomalyCtrs the pre-registered
	// curp_anomaly_total{kind} counters.
	jrn         *events.Journal
	watch       *events.Watchdog
	anomalyCtrs map[string]*metrics.Counter
	watchOnce   sync.Once
	watchClosed chan struct{}
	watchDone   chan struct{}

	// RPCTimeout bounds coordination RPCs (witness start/end, fencing).
	RPCTimeout time.Duration
}

// QuorumOptions places one coordinator replica in a control-plane quorum.
type QuorumOptions struct {
	// Peers lists every replica address, self included; index is rank.
	// Empty means a quorum of one at the coordinator's own address.
	Peers []string
	// Rank is this replica's index into Peers. Rank 0 boots as the seeded
	// leader of term 1.
	Rank int
	// ElectionTimeout tunes leader-failure detection (controlplane's
	// default when zero; tests shrink it).
	ElectionTimeout time.Duration
}

// NewCoordinator creates and starts a single-replica coordinator listening
// on addr — a control-plane quorum of one.
func NewCoordinator(nw transport.Network, addr string, leaseTTL time.Duration) (*Coordinator, error) {
	return NewCoordinatorReplica(nw, leaseTTL, QuorumOptions{Peers: []string{addr}})
}

// NewCoordinatorReplica creates and starts one replica of a coordinator
// quorum. Every replica serves reads (views, health, lease renewal) from
// its own mirror and forwards mutations to the quorum leader; heal actions
// run only on the replica holding the leader lease.
func NewCoordinatorReplica(nw transport.Network, leaseTTL time.Duration, q QuorumOptions) (*Coordinator, error) {
	if len(q.Peers) == 0 {
		return nil, errors.New("coordinator: quorum needs at least one peer")
	}
	if q.Rank < 0 || q.Rank >= len(q.Peers) {
		return nil, fmt.Errorf("coordinator: rank %d outside %d peers", q.Rank, len(q.Peers))
	}
	c := &Coordinator{
		nw:           nw,
		addr:         q.Peers[q.Rank],
		masters:      make(map[uint64]*masterInfo),
		cpPeers:      append([]string(nil), q.Peers...),
		cpRank:       q.Rank,
		localMasters: make(map[string]*MasterServer),
		localOpts:    make(map[string]MasterOptions),
		leases:       rifl.NewLeaseServer(leaseTTL, nil),
		rpc:          rpc.NewServer(),
		table:        health.NewTable(),
		RPCTimeout:   2 * time.Second,
	}
	c.coll = metrics.NewCollector(c.addr, "coordinator", 0)
	c.jrn = events.NewJournal(c.addr, "coordinator")
	c.watch = events.NewWatchdog(events.WatchdogConfig{})
	c.watchClosed = make(chan struct{})
	c.watchDone = make(chan struct{})
	node, err := controlplane.NewNode(controlplane.Config{
		Rank:            q.Rank,
		Peers:           c.cpPeers,
		Send:            &ctrlSender{c: c},
		Apply:           c.applyCtrl,
		ElectionTimeout: q.ElectionTimeout,
		Seeded:          true,
		// Election transitions land in the flight recorder the moment they
		// happen (both hooks run under the node's lock and only touch the
		// journal's own mutex).
		OnElection: func(term uint64) {
			c.jrn.Record(events.Event{Kind: events.KindElectionWon, Term: term})
		},
		OnStepDown: func(term uint64) {
			c.jrn.Record(events.Event{Kind: events.KindElectionLost, Term: term})
		},
	})
	if err != nil {
		return nil, err
	}
	c.cp = node
	c.rpc.Handle(OpGetView, c.handleGetView)
	c.rpc.Handle(OpRegisterClient, c.handleRegisterClient)
	c.rpc.Handle(OpRenewLease, c.handleRenewLease)
	c.rpc.Handle(OpCoordAddMoved, c.handleAddMoved)
	c.rpc.Handle(OpCoordDelMoved, rangesHandler(c.ForgetMovedRanges))
	c.rpc.Handle(OpCoordAddFrozen, rangesHandler(c.NoteFrozenRanges))
	c.rpc.Handle(OpCoordDelFrozen, rangesHandler(c.ForgetFrozenRanges))
	c.rpc.Handle(OpHeartbeat, c.handleHeartbeat)
	c.rpc.Handle(OpHealthStatus, c.handleHealthStatus)
	c.rpc.Handle(OpCtrlAppend, c.handleCtrlAppend)
	c.rpc.Handle(OpCtrlVote, c.handleCtrlVote)
	c.rpc.Handle(OpCtrlPropose, c.handleCtrlPropose)
	c.buildMetrics()
	l, err := nw.Listen(c.addr)
	if err != nil {
		c.cp.Close()
		return nil, err
	}
	c.rpc.Go(l)
	go c.watchLoop()
	return c, nil
}

// ctrlSender carries control-plane consensus RPCs over the cluster's
// transport. Peers are dialed per call: consensus traffic is a few small
// messages per heartbeat interval, and a fresh dial after a replica
// restart beats holding a poisoned connection.
type ctrlSender struct{ c *Coordinator }

func (s *ctrlSender) AppendEntries(ctx context.Context, addr string, req *controlplane.AppendRequest) (*controlplane.AppendReply, error) {
	p := rpc.NewPeer(s.c.nw, s.c.addr, addr)
	defer p.Close()
	out, err := p.Call(ctx, OpCtrlAppend, req.Encode())
	if err != nil {
		return nil, err
	}
	return controlplane.DecodeAppendReply(out)
}

func (s *ctrlSender) RequestVote(ctx context.Context, addr string, req *controlplane.VoteRequest) (*controlplane.VoteReply, error) {
	p := rpc.NewPeer(s.c.nw, s.c.addr, addr)
	defer p.Close()
	out, err := p.Call(ctx, OpCtrlVote, req.Encode())
	if err != nil {
		return nil, err
	}
	return controlplane.DecodeVoteReply(out)
}

func (c *Coordinator) handleCtrlAppend(ctx context.Context, payload []byte) ([]byte, error) {
	req, err := controlplane.DecodeAppendRequest(payload)
	if err != nil {
		return nil, err
	}
	return c.cp.HandleAppend(req).Encode(), nil
}

func (c *Coordinator) handleCtrlVote(ctx context.Context, payload []byte) ([]byte, error) {
	req, err := controlplane.DecodeVoteRequest(payload)
	if err != nil {
		return nil, err
	}
	return c.cp.HandleVote(req).Encode(), nil
}

// handleCtrlPropose commits a command forwarded from a follower replica.
func (c *Coordinator) handleCtrlPropose(ctx context.Context, payload []byte) ([]byte, error) {
	cmd, err := controlplane.DecodeCommand(payload)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, c.RPCTimeout)
	defer cancel()
	res, err := c.cp.Propose(ctx, cmd)
	if err != nil {
		return nil, err
	}
	e := rpc.NewEncoder(8)
	e.U64(res)
	return e.Bytes(), nil
}

// propose commits one control command: directly when this replica leads,
// else forwarded to the leader, retrying through elections until ctx ends.
func (c *Coordinator) propose(ctx context.Context, cmd *controlplane.Command) (uint64, error) {
	pctx, psp := c.coll.StartSpan(ctx, "ctrl-propose")
	psp.SetOp(fmt.Sprintf("%v", cmd.Kind))
	res, err := c.proposeRetry(pctx, cmd)
	psp.SetErr(err)
	psp.End()
	return res, err
}

// proposeRetry is propose's election-riding retry loop.
func (c *Coordinator) proposeRetry(ctx context.Context, cmd *controlplane.Command) (uint64, error) {
	var lastErr error
	for {
		res, err := c.cp.Propose(ctx, cmd)
		var nl *controlplane.NotLeaderError
		switch {
		case err == nil:
			return res, nil
		case errors.As(err, &nl):
			if nl.LeaderAddr != "" {
				res, ferr := c.forwardPropose(ctx, nl.LeaderAddr, cmd)
				if ferr == nil {
					return res, nil
				}
				// A stale-command verdict is a real (deterministic) answer
				// from the leader, not a transport failure — surface it.
				if isStaleErr(ferr) {
					return 0, ferr
				}
				lastErr = ferr
			} else {
				lastErr = err
			}
		case errors.Is(err, controlplane.ErrLostLeadership):
			lastErr = err
		default:
			return 0, err
		}
		select {
		case <-ctx.Done():
			if lastErr != nil {
				return 0, fmt.Errorf("coordinator: propose %v: %w (last: %v)", cmd.Kind, ctx.Err(), lastErr)
			}
			return 0, ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// proposeCtx is the default deadline for control-plane commits: generous
// enough to ride out one leader election.
func (c *Coordinator) proposeCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), 4*c.RPCTimeout)
}

func (c *Coordinator) forwardPropose(ctx context.Context, leaderAddr string, cmd *controlplane.Command) (uint64, error) {
	p := rpc.NewPeer(c.nw, c.addr, leaderAddr)
	defer p.Close()
	out, err := p.Call(ctx, OpCtrlPropose, cmd.Encode())
	if err != nil {
		return 0, err
	}
	d := rpc.NewDecoder(out)
	res := d.U64()
	return res, d.Err()
}

// isStaleErr recognizes controlplane.ErrStale across an RPC hop (the
// transport flattens errors to strings).
func isStaleErr(err error) bool {
	return errors.Is(err, controlplane.ErrStale) ||
		(err != nil && strings.Contains(err.Error(), "lost a reconfiguration race"))
}

// applyCtrl mirrors every committed control command into this replica's
// serving tables. It runs on ALL replicas, in log order, under the
// control-plane node's lock — the one place the mirror is written, which
// is what lets a restarted or promoted replica rebuild purely from the
// log.
func (c *Coordinator) applyCtrl(cmd *controlplane.Command, st *controlplane.State, res uint64, err error) {
	if err != nil {
		return // stale commands changed nothing
	}
	switch cmd.Kind {
	case controlplane.CmdRegisterClient:
		// Adopt the replicated ID so lease renewals and expiry work on
		// every replica, whichever one registered the client.
		c.leases.AdoptID(rifl.ClientID(c.clientNS + res))
	case controlplane.CmdAddPartition, controlplane.CmdBeginRecovery,
		controlplane.CmdSetMaster, controlplane.CmdSetWitnessList,
		controlplane.CmdSetBackups, controlplane.CmdAddMoved,
		controlplane.CmdDelMoved, controlplane.CmdAddFrozen,
		controlplane.CmdDelFrozen:
		c.mirrorPartition(st.Partition(cmd.Partition))
	}
}

// mirrorPartition overwrites the mirror record for one partition from its
// committed state, attaching in-process runtime handles where this replica
// has them, and re-keys the health table to the new membership.
func (c *Coordinator) mirrorPartition(p *controlplane.Partition) {
	if p == nil {
		return
	}
	fwds := make([]MovedForward, 0, len(p.Forwards))
	for _, f := range p.Forwards {
		fwds = append(fwds, MovedForward{Ranges: f.Ranges, DestAddr: f.Addr})
	}
	c.mu.Lock()
	old := c.masters[p.ID]
	mi := &masterInfo{
		id:                 p.ID,
		addr:               p.MasterAddr,
		epoch:              p.Epoch,
		reservedEpoch:      p.ReservedEpoch,
		witnessAddrs:       p.Witnesses,
		witnessListVersion: p.WLV,
		backupAddrs:        p.Backups,
		movedAway:          p.Moved,
		frozen:             p.Frozen,
		forwards:           fwds,
	}
	if ms := c.localMasters[p.MasterAddr]; ms != nil {
		mi.server = ms
		mi.opts = c.localOpts[p.MasterAddr]
	}
	c.masters[p.ID] = mi
	var fencedZombie string
	if old != nil && old.addr != p.MasterAddr {
		// The displaced master is deposed; fence it directly when it runs
		// in-process. A false-positive failover leaves the old master alive
		// and serving — without the freeze it keeps accepting requests
		// until its next backup sync trips over the epoch fence, and the
		// unlucky in-flight operations see that discovery as an error
		// instead of the retryable StatusWrongMaster the healing contract
		// promises. Freezing here closes that window at the moment the
		// deposition commits; a genuinely crashed master no-ops.
		if zombie := c.localMasters[old.addr]; zombie != nil {
			zombie.Freeze()
			fencedZombie = old.addr
		}
		delete(c.localMasters, old.addr)
		delete(c.localOpts, old.addr)
	}
	c.mu.Unlock()

	// Flight recorder: configuration flips this replica just mirrored.
	if old != nil && p.Epoch > old.epoch {
		c.jrn.Record(events.Event{
			Kind: events.KindEpochFlip, MasterID: p.ID, Epoch: p.Epoch,
			OldAddr: old.addr, NewAddr: p.MasterAddr,
		})
	}
	if old != nil && p.WLV > old.witnessListVersion {
		c.jrn.Record(events.Event{
			Kind: events.KindWitnessListChange, MasterID: p.ID,
			WitnessListVersion: p.WLV,
		})
	}
	if fencedZombie != "" {
		c.jrn.Record(events.Event{
			Kind: events.KindZombieFenced, MasterID: p.ID, Epoch: p.Epoch,
			OldAddr: fencedZombie, NewAddr: p.MasterAddr,
			Detail: "deposed in-process master frozen at deposition commit",
		})
	}

	// Health-table re-key: watch newly committed members, drop nodes that
	// left the membership. Nodes present in both old and new membership
	// keep their beat history — Register resets it.
	tracked := make(map[string]health.Role, 1+len(p.Backups)+len(p.Witnesses))
	tracked[p.MasterAddr] = health.RoleMaster
	for _, a := range p.Backups {
		tracked[a] = health.RoleBackup
	}
	for _, a := range p.Witnesses {
		tracked[a] = health.RoleWitness
	}
	prev := make(map[string]bool)
	if old != nil {
		for _, a := range append(append([]string{old.addr}, old.backupAddrs...), old.witnessAddrs...) {
			prev[a] = true
			if _, still := tracked[a]; !still {
				c.table.Forget(a)
			}
		}
	}
	for addr, role := range tracked {
		if !prev[addr] {
			c.table.Register(role, addr, p.ID)
		}
	}
}

// Addr returns the coordinator's address.
func (c *Coordinator) Addr() string { return c.addr }

// Metrics returns the coordinator's metric registry for /metrics
// exposition.
func (c *Coordinator) Metrics() *metrics.Registry { return c.metrics }

// Trace returns the coordinator's distributed-trace collector.
func (c *Coordinator) Trace() *metrics.Collector { return c.coll }

// Events returns the coordinator's flight-recorder journal.
func (c *Coordinator) Events() *events.Journal { return c.jrn }

// MasterEvents returns the partition's current in-process master's journal
// (nil for remote masters), tracking failovers the same way MasterRegistry
// does.
func (c *Coordinator) MasterEvents() *events.Journal {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, mi := range c.masters {
		if mi.server != nil {
			return mi.server.jrn
		}
	}
	return nil
}

// MasterHotKeys returns the partition's current in-process master's hot-key
// sketch (nil for remote masters), tracking failovers the same way
// MasterRegistry does.
func (c *Coordinator) MasterHotKeys() *events.TopK {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, mi := range c.masters {
		if mi.server != nil {
			return mi.server.hot
		}
	}
	return nil
}

// MasterRegistry returns the partition's current in-process master's
// metric registry (nil for remote masters). It tracks failovers: after the
// heal loop promotes a replacement, the next call returns the
// replacement's registry — the stable handle a per-partition /metrics
// endpoint re-fetches each scrape.
func (c *Coordinator) MasterRegistry() *metrics.Registry {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, mi := range c.masters {
		if mi.server != nil {
			return mi.server.metrics
		}
	}
	return nil
}

// MasterTrace returns the partition's current in-process master's
// distributed-trace collector (nil for remote masters), tracking failovers
// the same way MasterRegistry does.
func (c *Coordinator) MasterTrace() *metrics.Collector {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, mi := range c.masters {
		if mi.server != nil {
			return mi.server.coll
		}
	}
	return nil
}

// buildMetrics registers the coordinator-side series: heal-loop event
// counters (every kind pre-registered at 0), ring/partition gauges, and
// partition-level load read from the health table's piggybacked master
// beats — one scrape of the coordinator answers "how is this shard doing"
// without touching the data path.
func (c *Coordinator) buildMetrics() {
	r := metrics.NewRegistry()
	r.SetConstLabels(metrics.L("node", c.addr))
	c.metrics = r
	c.healEvents = make(map[FailoverKind]*metrics.Counter)
	for _, k := range []FailoverKind{
		EventMasterFailover, EventMasterFailoverFailed,
		EventWitnessReplaced, EventWitnessReplaceFailed,
		EventBackupReplaced, EventBackupReplaceFailed,
	} {
		c.healEvents[k] = r.Counter("curp_heal_events_total",
			"Heal-loop lifecycle events, by kind.", metrics.L("kind", k.String()))
	}
	// masterBeat snapshots the partition master's latest piggybacked beat.
	masterBeat := func() health.Beat {
		for _, n := range c.table.Snapshot(c.detectorConfig()) {
			if n.Role == health.RoleMaster {
				return n.Last
			}
		}
		return health.Beat{}
	}
	r.GaugeFunc("curp_partition_epoch",
		"Current recovery epoch of the partition's master.",
		func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			for _, mi := range c.masters {
				return float64(mi.epoch)
			}
			return 0
		})
	r.GaugeFunc("curp_partition_witness_list_version",
		"Current witness-list version of the partition.",
		func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			for _, mi := range c.masters {
				return float64(mi.witnessListVersion)
			}
			return 0
		})
	r.GaugeFunc("curp_partition_nodes_alive",
		"Registered nodes within their heartbeat deadline.",
		func() float64 {
			alive := 0
			for _, n := range c.table.Snapshot(c.detectorConfig()) {
				if n.Alive {
					alive++
				}
			}
			return float64(alive)
		})
	r.GaugeFunc("curp_partition_nodes_total",
		"Registered nodes (master + backups + witnesses).",
		func() float64 { return float64(len(c.table.Snapshot(c.detectorConfig()))) })
	r.GaugeFunc("curp_partition_self_healing",
		"1 when the heal loop is running.",
		func() float64 {
			if c.healMgr() != nil {
				return 1
			}
			return 0
		})
	// Control-plane quorum series: exactly one replica in a healthy
	// quorum reports curp_coord_leader 1 (the lease holder).
	r.GaugeFunc("curp_coord_leader",
		"1 when this coordinator replica holds the leader lease.",
		func() float64 {
			if c.cp.HoldingLease() {
				return 1
			}
			return 0
		})
	r.GaugeFunc("curp_coord_term",
		"Control-plane consensus term at this replica.",
		func() float64 { return float64(c.cp.Status().Term) })
	r.GaugeFunc("curp_coord_replicas",
		"Configured control-plane quorum size.",
		func() float64 { return float64(len(c.cpPeers)) })
	r.CounterFunc("curp_coord_log_committed_total",
		"Control-plane log entries applied at this replica.",
		func() uint64 { return c.cp.Status().Committed })
	r.CounterFunc("curp_coord_elections_total",
		"Control-plane elections won by this replica.",
		func() uint64 { return c.cp.Status().Elections })
	r.CounterFunc("curp_partition_speculative_ops_total",
		"Master fast-path executions, from the latest heartbeat.",
		func() uint64 { return masterBeat().SpeculativeOps })
	r.CounterFunc("curp_partition_conflict_syncs_total",
		"Master conflict-triggered syncs, from the latest heartbeat.",
		func() uint64 { return masterBeat().ConflictSyncs })
	r.GaugeFunc("curp_partition_sync_lag_ops",
		"Master unsynced-window size, from the latest heartbeat.",
		func() float64 { return float64(masterBeat().Unsynced) })
	r.GaugeFunc("curp_partition_head_lsn",
		"Master log head, from the latest heartbeat.",
		func() float64 { return float64(masterBeat().HeadLSN) })
	r.GaugeFunc("curp_partition_flush_threshold_ops",
		"Master background-flush threshold, from the latest heartbeat.",
		func() float64 { return float64(masterBeat().FlushThreshold) })
	// Anomaly counters: every detector kind pre-registered at 0, so a
	// scrape learns the full label set before the first incident.
	c.anomalyCtrs = make(map[string]*metrics.Counter)
	for _, k := range events.AnomalyKinds() {
		c.anomalyCtrs[k] = r.Counter("curp_anomaly_total",
			"Watchdog anomaly verdicts, by detector kind.", metrics.L("kind", k))
	}
	metrics.RegisterBuildInfo(r)
}

// watchLoop is the coordinator's resident anomaly sampler: one pass per
// detector interval over the health table's beats and the control-plane
// lease, feeding the watchdog. Lease transitions become journal events;
// every anomaly verdict becomes a journal event plus a
// curp_anomaly_total{kind} tick. The loop owns c.watch exclusively.
func (c *Coordinator) watchLoop() {
	defer close(c.watchDone)
	ticker := time.NewTicker(c.detectorConfig().Interval)
	defer ticker.Stop()
	for {
		select {
		case <-c.watchClosed:
			return
		case <-ticker.C:
			c.watchTick()
		}
	}
}

// watchTick runs one sampler pass.
func (c *Coordinator) watchTick() {
	cfg := c.detectorConfig()
	leased := c.cp.HoldingLease()
	changed, anomalies := c.watch.ObserveLease(leased)
	if changed {
		kind := events.KindLeaseLost
		if leased {
			kind = events.KindLeaseAcquired
		}
		c.jrn.Record(events.Event{Kind: kind, Term: c.cp.Status().Term})
	}
	for _, n := range c.table.Snapshot(cfg) {
		s := events.NodeSample{
			Node:     n.Addr,
			MeanGap:  n.MeanGap,
			Interval: cfg.Interval,
		}
		if n.Role == health.RoleMaster {
			s.Unsynced = n.Last.Unsynced
			s.FlushThreshold = n.Last.FlushThreshold
			s.SpeculativeOps = n.Last.SpeculativeOps
			s.ConflictSyncs = n.Last.ConflictSyncs
		}
		anomalies = append(anomalies, c.watch.ObserveNode(s)...)
	}
	for _, a := range anomalies {
		c.noteAnomaly(a)
	}
}

// noteAnomaly lands one watchdog verdict in the counters and the journal.
func (c *Coordinator) noteAnomaly(a events.Anomaly) {
	if ctr := c.anomalyCtrs[a.Kind]; ctr != nil {
		ctr.Inc()
	}
	detail := a.Kind
	if a.Node != "" {
		detail += " on " + a.Node
	}
	if a.Detail != "" {
		detail += ": " + a.Detail
	}
	c.jrn.Record(events.Event{Kind: events.KindAnomaly, Detail: detail})
}

// countHealEvent lands a heal-loop event in the coordinator's counters.
func (c *Coordinator) countHealEvent(k FailoverKind) {
	if ctr := c.healEvents[k]; ctr != nil {
		ctr.Inc()
	}
}

// recordHealEvent lands a heal-loop verdict in the flight recorder, under
// the FailoverKind's own name as the event kind.
func (c *Coordinator) recordHealEvent(ev FailoverEvent) {
	e := events.Event{
		Kind:               ev.Kind.String(),
		MasterID:           ev.MasterID,
		Epoch:              ev.Epoch,
		WitnessListVersion: ev.WitnessListVersion,
		OldAddr:            ev.OldAddr,
		NewAddr:            ev.NewAddr,
	}
	if ev.Err != nil {
		e.Err = ev.Err.Error()
	}
	if ev.Window > 0 {
		e.Detail = fmt.Sprintf("healed in %v", ev.Window.Round(time.Millisecond))
	}
	c.jrn.Record(e)
}

// Leases exposes the lease server (for lease-expiry tests).
func (c *Coordinator) Leases() *rifl.LeaseServer { return c.leases }

// SetClientIDNamespace offsets the coordinator's RIFL client-ID space (see
// Options.ClientIDNamespace). Call before any client registers, on every
// replica with the same base: the replicated log carries namespace-free
// sequence numbers and each replica adds the base.
func (c *Coordinator) SetClientIDNamespace(base uint64) {
	c.clientNS = base
	c.leases.SetIDNamespace(rifl.ClientID(base))
}

// ControlPlaneStatus reports this replica's view of the coordinator
// quorum.
func (c *Coordinator) ControlPlaneStatus() controlplane.Status { return c.cp.Status() }

// HoldingLease reports whether this replica is the control-plane leader
// AND holds the majority-acknowledged lease — the gate on heal actions.
func (c *Coordinator) HoldingLease() bool { return c.cp.HoldingLease() }

// healMgr returns the heal manager under the coordinator lock (nil when
// self-healing is off).
func (c *Coordinator) healMgr() *healManager {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.heal
}

// Close shuts the coordinator down (stopping the heal loop — and waiting
// out any in-flight heal action — if running), dumping the flight
// recorder when CURP_FLIGHT_DIR opts in.
func (c *Coordinator) Close() {
	if h := c.healMgr(); h != nil {
		h.stop()
	}
	c.watchOnce.Do(func() { close(c.watchClosed) })
	<-c.watchDone
	c.rpc.Close()
	c.cp.Close()
	events.FlightDump(c.jrn)
}

// handleHeartbeat folds one node's beat into the health table.
func (c *Coordinator) handleHeartbeat(ctx context.Context, payload []byte) ([]byte, error) {
	b, err := health.DecodeBeat(payload)
	if err != nil {
		return nil, err
	}
	c.table.Observe(b)
	return nil, nil
}

// handleHealthStatus serves the partition's membership and liveness.
func (c *Coordinator) handleHealthStatus(ctx context.Context, payload []byte) ([]byte, error) {
	return c.HealthStatus().encode(), nil
}

// HealthStatus returns the partition's membership and per-node liveness
// (in-process form of OpHealthStatus).
func (c *Coordinator) HealthStatus() *PartitionHealth {
	// Copy the partition scalars under the lock: recovery and witness
	// replacement mutate the masterInfo in place.
	c.mu.Lock()
	p := &PartitionHealth{SelfHealing: c.heal != nil}
	for _, mi := range c.masters {
		// Single-partition coordinators hold exactly one entry.
		p.MasterID, p.MasterAddr, p.Epoch, p.WitnessListVersion = mi.id, mi.addr, mi.epoch, mi.witnessListVersion
	}
	c.mu.Unlock()
	cs := c.cp.Status()
	p.CoordRank = cs.Rank
	p.CoordLeaderAddr = cs.LeaderAddr
	p.CoordTerm = cs.Term
	p.CoordCommit = cs.Commit
	p.CoordReplicas = cs.Replicas
	p.CoordLeased = cs.Leased
	p.Nodes = c.table.Snapshot(c.detectorConfig())
	if !p.SelfHealing {
		// Without self-healing nothing heartbeats: ages are just time
		// since registration, and classifying them against a deadline
		// would report every node of a healthy manual deployment dead.
		// Membership is known; liveness is not judged.
		for i := range p.Nodes {
			p.Nodes[i].Alive = true
		}
	}
	return p
}

// detectorConfig returns the active detector policy (defaults when
// self-healing is off, so status ages still classify liveness sensibly).
func (c *Coordinator) detectorConfig() health.Config {
	if h := c.healMgr(); h != nil {
		return h.cfg.Detector
	}
	return health.Config{}.WithDefaults()
}

// Healthy reports whether every registered node of the partition is
// within its heartbeat deadline. Meaningful only when servers heartbeat
// (self-healing deployments); without beats it reports false as soon as
// the registration grace expires.
func (c *Coordinator) Healthy() bool {
	return c.table.AllAlive(c.detectorConfig())
}

func (c *Coordinator) handleGetView(ctx context.Context, payload []byte) ([]byte, error) {
	d := rpc.NewDecoder(payload)
	masterID := d.U64()
	if err := d.Err(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	mi := c.masters[masterID]
	if mi == nil {
		return nil, fmt.Errorf("coordinator: unknown master %d", masterID)
	}
	v := &ViewInfo{
		MasterID:           mi.id,
		MasterAddr:         mi.addr,
		WitnessListVersion: mi.witnessListVersion,
		WitnessAddrs:       append([]string(nil), mi.witnessAddrs...),
		BackupAddrs:        append([]string(nil), mi.backupAddrs...),
	}
	return v.encode(), nil
}

func (c *Coordinator) handleRegisterClient(ctx context.Context, payload []byte) ([]byte, error) {
	// Client IDs are allocated through the replicated log so they stay
	// unique across coordinator failovers: any replica can serve the
	// registration, the sequence commits on a majority, and every
	// replica's lease table adopts the ID in applyCtrl.
	ctx, cancel := c.proposeCtx()
	defer cancel()
	seq, err := c.propose(ctx, &controlplane.Command{Kind: controlplane.CmdRegisterClient})
	if err != nil {
		return nil, err
	}
	id := rifl.ClientID(c.clientNS + seq)
	// The local adopt in applyCtrl already ran on the leader; on a
	// forwarding follower the apply may still be in flight, and the
	// client's first renewal must not race it.
	c.leases.AdoptID(id)
	e := rpc.NewEncoder(8)
	e.U64(uint64(id))
	return e.Bytes(), nil
}

func (c *Coordinator) handleRenewLease(ctx context.Context, payload []byte) ([]byte, error) {
	d := rpc.NewDecoder(payload)
	id := rifl.ClientID(d.U64())
	if err := d.Err(); err != nil {
		return nil, err
	}
	if !c.leases.Renew(id) {
		return nil, errors.New("coordinator: lease expired")
	}
	return nil, nil
}

// NoteMovedRanges records ring arcs that migrated away from a partition.
// It is the durability point of a migration's commit: from here on, any
// recovery of this partition drops the arcs' keys and skips their witness
// records, so a source crash cannot resurrect a handed-off range.
// destAddr, when non-empty, is the target master the arcs moved to; it is
// replayed into replacement masters as a decision-lookup forward.
func (c *Coordinator) NoteMovedRanges(masterID uint64, rs []witness.HashRange, destAddr string) error {
	ctx, cancel := c.proposeCtx()
	defer cancel()
	_, err := c.propose(ctx, &controlplane.Command{
		Kind: controlplane.CmdAddMoved, Partition: masterID, Ranges: rs, Addr: destAddr,
	})
	return err
}

// ForgetMovedRanges removes exactly-matching arcs from a partition's
// moved-away record (the undo path of an aborted multi-source rebalance
// step), along with any forwards recorded for exactly those arcs.
func (c *Coordinator) ForgetMovedRanges(masterID uint64, rs []witness.HashRange) error {
	ctx, cancel := c.proposeCtx()
	defer cancel()
	_, err := c.propose(ctx, &controlplane.Command{
		Kind: controlplane.CmdDelMoved, Partition: masterID, Ranges: rs,
	})
	return err
}

// MovedRanges returns a copy of a partition's moved-away arcs.
func (c *Coordinator) MovedRanges(masterID uint64) []witness.HashRange {
	c.mu.Lock()
	defer c.mu.Unlock()
	if mi := c.masters[masterID]; mi != nil {
		return append([]witness.HashRange(nil), mi.movedAway...)
	}
	return nil
}

// NoteFrozenRanges records arcs a migration step is transferring out of a
// partition, so a recovery during the step keeps them frozen.
func (c *Coordinator) NoteFrozenRanges(masterID uint64, rs []witness.HashRange) error {
	ctx, cancel := c.proposeCtx()
	defer cancel()
	_, err := c.propose(ctx, &controlplane.Command{
		Kind: controlplane.CmdAddFrozen, Partition: masterID, Ranges: rs,
	})
	return err
}

// ForgetFrozenRanges withdraws freeze records after a step aborts or
// commits.
func (c *Coordinator) ForgetFrozenRanges(masterID uint64, rs []witness.HashRange) error {
	ctx, cancel := c.proposeCtx()
	defer cancel()
	_, err := c.propose(ctx, &controlplane.Command{
		Kind: controlplane.CmdDelFrozen, Partition: masterID, Ranges: rs,
	})
	return err
}

// handleAddMoved decodes OpCoordAddMoved's (masterID, ranges, destAddr)
// payload — the one migration-record op that carries a forward address
// alongside the arcs.
func (c *Coordinator) handleAddMoved(ctx context.Context, payload []byte) ([]byte, error) {
	d := rpc.NewDecoder(payload)
	masterID, rs := rangesIn(d)
	destAddr := d.String()
	if err := d.Err(); err != nil {
		return nil, err
	}
	return nil, c.NoteMovedRanges(masterID, rs, destAddr)
}

// rangesHandler adapts a (masterID, ranges) method into an RPC handler —
// the shape every migration-record op shares.
func rangesHandler(fn func(uint64, []witness.HashRange) error) rpc.Handler {
	return func(ctx context.Context, payload []byte) ([]byte, error) {
		d := rpc.NewDecoder(payload)
		masterID, rs := rangesIn(d)
		if err := d.Err(); err != nil {
			return nil, err
		}
		return nil, fn(masterID, rs)
	}
}

// AddMaster registers a running master with its backups and witnesses: the
// coordinator starts witness instances for it, installs the witness list on
// the master (version 1), and publishes the view.
func (c *Coordinator) AddMaster(ms *MasterServer, backupAddrs, witnessAddrs []string) error {
	ms.SetBackups(backupAddrs)
	if err := c.startWitnesses(ms.ID(), witnessAddrs); err != nil {
		return err
	}
	if err := ms.SetWitnessList(1, witnessAddrs); err != nil {
		return err
	}
	// Register the in-process handle BEFORE proposing, so the apply
	// mirror attaches it the moment the command commits.
	c.mu.Lock()
	c.localMasters[ms.Addr()] = ms
	c.localOpts[ms.Addr()] = ms.Options()
	c.mu.Unlock()
	ctx, cancel := c.proposeCtx()
	defer cancel()
	_, err := c.propose(ctx, &controlplane.Command{
		Kind:      controlplane.CmdAddPartition,
		Partition: ms.ID(),
		Epoch:     ms.Epoch(),
		WLV:       1,
		Addr:      ms.Addr(),
		Witnesses: witnessAddrs,
		Backups:   backupAddrs,
	})
	return err
}

// startWitnesses sends start RPCs to the given witness servers.
func (c *Coordinator) startWitnesses(masterID uint64, addrs []string) error {
	payload := func() []byte {
		e := rpc.NewEncoder(8)
		e.U64(masterID)
		return e.Bytes()
	}()
	for _, addr := range addrs {
		p := rpc.NewPeer(c.nw, c.addr, addr)
		ctx, cancel := context.WithTimeout(context.Background(), c.RPCTimeout)
		_, err := p.Call(ctx, OpWitnessStart, payload)
		cancel()
		p.Close()
		if err != nil {
			return fmt.Errorf("coordinator: start witness %s: %w", addr, err)
		}
	}
	return nil
}

// endWitnesses decommissions witness instances, best effort.
func (c *Coordinator) endWitnesses(masterID uint64, addrs []string) {
	payload := func() []byte {
		e := rpc.NewEncoder(8)
		e.U64(masterID)
		return e.Bytes()
	}()
	for _, addr := range addrs {
		p := rpc.NewPeer(c.nw, c.addr, addr)
		ctx, cancel := context.WithTimeout(context.Background(), c.RPCTimeout)
		p.Call(ctx, OpWitnessEnd, payload)
		cancel()
		p.Close()
	}
}

// ReplaceWitness handles a crashed or decommissioned witness (§3.6): it
// starts an instance on newAddr, has the master sync and adopt the new
// witness list under an incremented WitnessListVersion, and publishes the
// new view. Clients using the old list get StatusStaleWitnessList from the
// master and refetch.
func (c *Coordinator) ReplaceWitness(masterID uint64, oldAddr, newAddr string) error {
	c.reconfMu.Lock()
	defer c.reconfMu.Unlock()
	c.mu.Lock()
	mi := c.masters[masterID]
	var wlv uint64
	var masterAddr string
	var server *MasterServer
	var witnessAddrs []string
	if mi != nil {
		wlv = mi.witnessListVersion
		masterAddr = mi.addr
		server = mi.server
		witnessAddrs = append(witnessAddrs, mi.witnessAddrs...)
	}
	c.mu.Unlock()
	if mi == nil {
		return fmt.Errorf("coordinator: unknown master %d", masterID)
	}
	newList := make([]string, 0, len(witnessAddrs))
	found := false
	for _, a := range witnessAddrs {
		if a == oldAddr {
			found = true
			newList = append(newList, newAddr)
		} else {
			newList = append(newList, a)
		}
	}
	if !found {
		return fmt.Errorf("coordinator: %s is not a witness of master %d", oldAddr, masterID)
	}
	if err := c.startWitnesses(masterID, []string{newAddr}); err != nil {
		return err
	}
	// The master syncs to backups before accepting the new list (§3.6),
	// inside SetWitnessList — via the in-process handle when this replica
	// has one, by RPC otherwise.
	if err := c.masterSetWitnessList(server, masterAddr, wlv+1, newList); err != nil {
		return err
	}
	// Publish through the log; applyCtrl re-keys the mirror and the
	// health table on every replica.
	ctx, cancel := c.proposeCtx()
	defer cancel()
	if _, err := c.propose(ctx, &controlplane.Command{
		Kind: controlplane.CmdSetWitnessList, Partition: masterID,
		WLV: wlv + 1, Witnesses: newList,
	}); err != nil {
		return err
	}
	// Best effort: free the old instance if the server is still up.
	c.endWitnesses(masterID, []string{oldAddr})
	return nil
}

// masterSetWitnessList installs a witness list on a partition's master:
// directly through the in-process handle when this replica booted the
// server, over OpMasterSetWitnessList when another replica did.
func (c *Coordinator) masterSetWitnessList(server *MasterServer, masterAddr string, version uint64, addrs []string) error {
	if server != nil {
		return server.SetWitnessList(version, addrs)
	}
	e := rpc.NewEncoder(32 + 16*len(addrs))
	e.U64(version)
	e.U32(uint32(len(addrs)))
	for _, a := range addrs {
		e.String(a)
	}
	p := rpc.NewPeer(c.nw, c.addr, masterAddr)
	defer p.Close()
	ctx, cancel := context.WithTimeout(context.Background(), c.RPCTimeout)
	defer cancel()
	_, err := p.Call(ctx, OpMasterSetWitnessList, e.Bytes())
	return err
}

// ReplaceBackup swaps a dead backup out of a partition's sync set for a
// fresh server: the master seeds the replacement with its full log image
// and swaps it into the sync set (MasterServer.ReplaceBackup), then the
// new set is published through the control log so every replica's mirror
// and health table re-key. The partition keeps serving throughout — no
// deposal, no epoch bump.
func (c *Coordinator) ReplaceBackup(masterID uint64, oldAddr, newAddr string) error {
	c.reconfMu.Lock()
	defer c.reconfMu.Unlock()
	c.mu.Lock()
	mi := c.masters[masterID]
	var masterAddr string
	var server *MasterServer
	var backupAddrs []string
	if mi != nil {
		masterAddr = mi.addr
		server = mi.server
		backupAddrs = append(backupAddrs, mi.backupAddrs...)
	}
	c.mu.Unlock()
	if mi == nil {
		return fmt.Errorf("coordinator: unknown master %d", masterID)
	}
	newSet := make([]string, 0, len(backupAddrs))
	found := false
	for _, a := range backupAddrs {
		if a == oldAddr {
			found = true
			newSet = append(newSet, newAddr)
		} else {
			newSet = append(newSet, a)
		}
	}
	if !found {
		return fmt.Errorf("coordinator: %s is not a backup of master %d", oldAddr, masterID)
	}
	if err := c.masterReplaceBackup(server, masterAddr, oldAddr, newAddr); err != nil {
		return err
	}
	ctx, cancel := c.proposeCtx()
	defer cancel()
	_, err := c.propose(ctx, &controlplane.Command{
		Kind: controlplane.CmdSetBackups, Partition: masterID, Backups: newSet,
	})
	return err
}

// masterReplaceBackup runs the seed-and-swap on a partition's master:
// directly through the in-process handle when this replica booted the
// server, over OpMasterReplaceBackup otherwise.
func (c *Coordinator) masterReplaceBackup(server *MasterServer, masterAddr, oldAddr, newAddr string) error {
	if server != nil {
		return server.ReplaceBackup(oldAddr, newAddr)
	}
	e := rpc.NewEncoder(16 + len(oldAddr) + len(newAddr))
	e.String(oldAddr)
	e.String(newAddr)
	p := rpc.NewPeer(c.nw, c.addr, masterAddr)
	defer p.Close()
	ctx, cancel := context.WithTimeout(context.Background(), c.RPCTimeout)
	defer cancel()
	_, err := p.Call(ctx, OpMasterReplaceBackup, e.Bytes())
	return err
}

// AddSpare registers a pre-provisioned spare node of the given role in
// the replicated inventory. The heal loop claims from this pool before
// asking the runtime's SpareProvider, so operators can stage replacement
// capacity ahead of failures.
func (c *Coordinator) AddSpare(role health.Role, addr string) error {
	ctx, cancel := c.proposeCtx()
	defer cancel()
	_, err := c.propose(ctx, &controlplane.Command{
		Kind: controlplane.CmdAddSpare, Role: uint8(role), Addr: addr,
	})
	return err
}

// Spares lists the unclaimed spare inventory for a role.
func (c *Coordinator) Spares(role health.Role) []string {
	var out []string
	c.cp.View(func(st *controlplane.State) {
		out = append(out, st.Spares[uint8(role)]...)
	})
	return out
}

// claimSpare takes one spare of the role from the replicated inventory
// ("" if the pool is empty). Two replicas racing for the same spare are
// serialized by the log: the loser's CmdTakeSpare applies as ErrStale and
// it moves on to the next pool entry.
func (c *Coordinator) claimSpare(role health.Role) string {
	for {
		pool := c.Spares(role)
		if len(pool) == 0 {
			return ""
		}
		ctx, cancel := c.proposeCtx()
		_, err := c.propose(ctx, &controlplane.Command{
			Kind: controlplane.CmdTakeSpare, Role: uint8(role), Addr: pool[0],
		})
		cancel()
		if err == nil {
			return pool[0]
		}
		if !isStaleErr(err) {
			return ""
		}
	}
}

// RecoverMaster replaces a crashed master (§3.3, §4.6): it fences the old
// epoch on the backups, rebuilds state on a fresh MasterServer from the
// backups plus one reachable witness, assigns a fresh witness set, and
// publishes the new view. newAddr must not collide with the crashed
// master's address. newWitnessAddrs may reuse the old witness servers.
func (c *Coordinator) RecoverMaster(masterID uint64, newAddr string, newWitnessAddrs []string, opts MasterOptions) (*MasterServer, error) {
	c.reconfMu.Lock()
	defer c.reconfMu.Unlock()
	return c.recoverMasterLocked(masterID, newAddr, newWitnessAddrs, opts)
}

// recoverMasterLocked is RecoverMaster's body; the caller holds reconfMu
// (Migrate shares it without re-locking).
func (c *Coordinator) recoverMasterLocked(masterID uint64, newAddr string, newWitnessAddrs []string, opts MasterOptions) (*MasterServer, error) {
	c.mu.Lock()
	mi := c.masters[masterID]
	var movedAway, frozen []witness.HashRange
	var forwards []MovedForward
	var reservedEpoch uint64
	if mi != nil {
		movedAway = append(movedAway, mi.movedAway...)
		frozen = append(frozen, mi.frozen...)
		forwards = append(forwards, mi.forwards...)
		reservedEpoch = mi.reservedEpoch
	}
	c.mu.Unlock()
	if mi == nil {
		return nil, fmt.Errorf("coordinator: unknown master %d", masterID)
	}

	// The whole recovery runs under one force-sampled trace; every stage
	// event below carries its ID, so `curpctl events` cross-links straight
	// into `curpctl trace` for the post-mortem.
	fctx, fsp := c.coll.StartTrace(context.Background(), "failover", metrics.TraceFlagForce)
	fsp.SetOp(fmt.Sprintf("recover master %d -> %s", masterID, newAddr))
	defer fsp.End()
	tc, _ := metrics.TraceFromContext(fctx)
	tid := tc.TraceID

	// Reserve the recovery epoch through the replicated log BEFORE
	// touching any backup. The reservation must be exactly
	// reservedEpoch+1: if another coordinator replica (a deposed leader
	// still running, a promoted one racing us) committed a reservation
	// first, this propose fails deterministically and we stand down —
	// dual-depose is impossible even across control-plane failovers.
	newEpoch := reservedEpoch + 1
	rctx, rcancel := c.proposeCtx()
	_, err := c.propose(rctx, &controlplane.Command{
		Kind: controlplane.CmdBeginRecovery, Partition: masterID,
		Epoch: newEpoch, Addr: newAddr,
	})
	rcancel()
	if err != nil {
		fsp.SetErr(err)
		return nil, fmt.Errorf("coordinator: reserve recovery epoch %d: %w", newEpoch, err)
	}
	c.jrn.RecordTrace(tid, events.Event{
		Kind: events.KindFailoverEpoch, MasterID: masterID, Epoch: newEpoch,
		NewAddr: newAddr,
	})

	// Fence: no stale-epoch master may sync to backups from here on
	// (§4.7 zombie neutralization).
	fencePayload := func() []byte {
		e := rpc.NewEncoder(16)
		e.U64(masterID)
		e.U64(newEpoch)
		return e.Bytes()
	}()
	for _, addr := range mi.backupAddrs {
		p := rpc.NewPeer(c.nw, c.addr, addr)
		ctx, cancel := context.WithTimeout(context.Background(), c.RPCTimeout)
		_, err := p.Call(ctx, OpBackupSetEpoch, fencePayload)
		cancel()
		p.Close()
		if err != nil {
			fsp.SetErr(err)
			return nil, fmt.Errorf("coordinator: fence backup %s: %w", addr, err)
		}
	}
	c.jrn.RecordTrace(tid, events.Event{
		Kind: events.KindFailoverFence, MasterID: masterID, Epoch: newEpoch,
		Detail: fmt.Sprintf("%d backups fenced", len(mi.backupAddrs)),
	})

	// Pick the first reachable witness for replay; freezing it via
	// getRecoveryData stops clients completing updates against the old
	// witness set (§3.3: "the new master must wait" if none is
	// reachable — we surface that as an error instead).
	newMaster, err := NewMasterServer(c.nw, masterID, newAddr, newEpoch, opts)
	if err != nil {
		return nil, err
	}
	newMaster.SetBackups(mi.backupAddrs)
	// Seed the replacement with the partition's handed-off arcs BEFORE
	// restore/replay: the drop of migrated keys and the witness-replay
	// filter both depend on it. Arcs a live migration step is still
	// transferring stay frozen (data kept, requests bounced) so the
	// replacement cannot split-brain with the step's target; a rebalance
	// re-run converges from that state.
	newMaster.SetMovedRanges(movedAway)
	newMaster.SetMovedForwards(forwards)
	newMaster.SetFrozenRanges(frozen)
	var recovered bool
	var lastErr error
	for _, wAddr := range mi.witnessAddrs {
		if err := newMaster.RecoverFrom(mi.backupAddrs, wAddr); err != nil {
			lastErr = err
			continue
		}
		recovered = true
		break
	}
	if !recovered && len(mi.witnessAddrs) > 0 {
		newMaster.Close()
		fsp.SetErr(lastErr)
		return nil, fmt.Errorf("coordinator: recovery failed on all witnesses: %w", lastErr)
	}
	c.jrn.RecordTrace(tid, events.Event{
		Kind: events.KindFailoverRestore, MasterID: masterID, Epoch: newEpoch,
		NewAddr: newAddr,
		Detail:  "backup image restored, witness replay done",
	})

	// Backups were reset and re-seeded from the restored log during
	// recovery, which wiped their moved-range marks and re-materialized
	// handed-off keys; re-apply the migration drop from the coordinator's
	// record.
	if len(movedAway) > 0 {
		dropPayload := encodeRangesPayload(masterID, movedAway)
		for _, addr := range mi.backupAddrs {
			p := rpc.NewPeer(c.nw, c.addr, addr)
			ctx, cancel := context.WithTimeout(context.Background(), c.RPCTimeout)
			_, err := p.Call(ctx, OpBackupDropRange, dropPayload)
			cancel()
			p.Close()
			if err != nil {
				newMaster.Close()
				return nil, fmt.Errorf("coordinator: re-mark moved ranges on backup %s: %w", addr, err)
			}
		}
	}

	// Fresh witness set for the new master under a bumped version.
	c.endWitnesses(masterID, mi.witnessAddrs)
	if err := c.startWitnesses(masterID, newWitnessAddrs); err != nil {
		newMaster.Close()
		return nil, err
	}
	newVersion := mi.witnessListVersion + 1
	if err := newMaster.SetWitnessList(newVersion, newWitnessAddrs); err != nil {
		newMaster.Close()
		return nil, err
	}

	// Publish through the log. CmdSetMaster commits only while our epoch
	// reservation is still the current one; if a rival recovery
	// superseded it mid-flight, the publish fails deterministically and
	// the half-built replacement is torn down. Migration records
	// (moved/frozen/forwards) are NOT carried by this command — they live
	// in the replicated state and any AddMoved/DelFrozen that landed
	// while recovery ran is already ordered in the log. The apply mirror
	// installs the new view and re-keys the health table on every
	// replica.
	c.mu.Lock()
	c.localMasters[newAddr] = newMaster
	c.localOpts[newAddr] = opts
	c.mu.Unlock()
	pctx, pcancel := c.proposeCtx()
	_, err = c.propose(pctx, &controlplane.Command{
		Kind: controlplane.CmdSetMaster, Partition: masterID,
		Epoch: newEpoch, WLV: newVersion, Addr: newAddr,
		Witnesses: newWitnessAddrs, Backups: mi.backupAddrs,
	})
	pcancel()
	if err != nil {
		newMaster.Close()
		c.mu.Lock()
		delete(c.localMasters, newAddr)
		delete(c.localOpts, newAddr)
		c.mu.Unlock()
		fsp.SetErr(err)
		return nil, fmt.Errorf("coordinator: publish recovered master: %w", err)
	}
	c.jrn.RecordTrace(tid, events.Event{
		Kind: events.KindFailoverPromote, MasterID: masterID, Epoch: newEpoch,
		WitnessListVersion: newVersion, NewAddr: newAddr,
	})

	// Under self-healing the replacement must heartbeat, or the detector
	// would immediately re-fail the partition it just healed.
	if h := c.healMgr(); h != nil {
		newMaster.StartHeartbeats(c.cpPeers, h.cfg.Detector.Interval)
		h.masterChanged(newMaster)
	}
	fsp.SetVerdict("recovered")
	c.jrn.RecordTrace(tid, events.Event{
		Kind: events.KindFailoverDone, MasterID: masterID, Epoch: newEpoch,
		WitnessListVersion: newVersion, NewAddr: newAddr,
	})
	return newMaster, nil
}

// ExpireStaleLeases drops completion records of clients whose leases
// lapsed, after the §4.8-mandated sync (MasterServer.ExpireClientLease
// syncs first).
func (c *Coordinator) ExpireStaleLeases() error {
	expired := c.leases.Expired()
	if len(expired) == 0 {
		return nil
	}
	c.mu.Lock()
	var servers []*MasterServer
	for _, mi := range c.masters {
		if mi.server != nil {
			servers = append(servers, mi.server)
		}
	}
	c.mu.Unlock()
	for _, cid := range expired {
		for _, ms := range servers {
			if err := ms.ExpireClientLease(cid); err != nil {
				return err
			}
		}
		c.leases.Remove(cid)
	}
	return nil
}

// View returns the current view for a master (in-process convenience).
func (c *Coordinator) View(masterID uint64) (*ViewInfo, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	mi := c.masters[masterID]
	if mi == nil {
		return nil, fmt.Errorf("coordinator: unknown master %d", masterID)
	}
	return &ViewInfo{
		MasterID:           mi.id,
		MasterAddr:         mi.addr,
		WitnessListVersion: mi.witnessListVersion,
		WitnessAddrs:       append([]string(nil), mi.witnessAddrs...),
		BackupAddrs:        append([]string(nil), mi.backupAddrs...),
	}, nil
}

// Migrate moves a partition to a new master (§3.6's load-balancing
// reconfiguration, at whole-partition granularity): the old master syncs
// and freezes, the new master restores from the backups, gets fresh
// witnesses, and the view flips. Requests reaching the old master
// afterwards get StatusWrongMaster and refetch the view; requests recorded
// in the old witnesses are never replayed (the old master retired
// cleanly), matching the paper's filtering argument.
func (c *Coordinator) Migrate(masterID uint64, newAddr string, newWitnessAddrs []string, opts MasterOptions) (*MasterServer, error) {
	c.reconfMu.Lock()
	defer c.reconfMu.Unlock()
	c.mu.Lock()
	mi := c.masters[masterID]
	c.mu.Unlock()
	if mi == nil || mi.server == nil {
		return nil, fmt.Errorf("coordinator: unknown master %d", masterID)
	}
	old := mi.server
	// Final step first: stop servicing, then drain the execution pipeline
	// and sync the complete partition to backups. Operations that slip
	// past the freeze are covered by the witness replay inside
	// RecoverMaster — migration is literally recovery of a frozen master.
	old.Freeze()
	old.eng.Lock()
	head := old.Head()
	old.eng.Unlock()
	if err := old.eng.SyncTo(context.Background(), head); err != nil {
		return nil, err
	}
	return c.recoverMasterLocked(masterID, newAddr, newWitnessAddrs, opts)
}
