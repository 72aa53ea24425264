package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
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

// Coordinator is the cluster configuration manager (the paper's "system
// configuration manager", §3.6): it owns the master → {backups, witnesses,
// WitnessListVersion} mapping, issues RIFL client IDs and leases, and
// orchestrates master crash recovery and witness reconfiguration. The
// paper assumes this role is replicated with consensus (§2); here it is:
// every Coordinator is one replica of a 2f+1 control-plane quorum
// (internal/controlplane), every configuration mutation is proposed to the
// quorum leader and committed by majority replication, and every
// configuration read is served from this replica's applied copy of the
// replicated state (partition / partitions) — there is no second table. A
// quorum of one (the default) degenerates to the old single-coordinator
// behavior through the exact same code path.
//
// Locking: the control-plane node's lock guards the configuration; c.mu
// guards only the in-process runtime handles (localMasters) and the heal
// pointer. applyCtrl runs under the node lock and takes c.mu to find a
// deposed master's handle, so no code path may call into the node
// (Propose/View/Status/HoldingLease) while holding c.mu — every c.mu
// section is a map or pointer access and nothing else.
type Coordinator struct {
	node

	// cp is this replica's control-plane consensus node — its applied
	// State is the configuration; cpPeers/cpRank its quorum membership.
	cp      *controlplane.Node
	cpPeers []string
	cpRank  int
	// clientNS is the RIFL client-ID namespace base added to replicated
	// registration sequence numbers.
	clientNS uint64

	mu sync.Mutex
	// localMasters holds in-process master handles by ADDRESS, registered
	// by whichever replica booted the server: "the partition's current
	// in-process master" is localMasters[p.MasterAddr], nil when another
	// replica or process runs it. An entry leaves when its deposition
	// commits (onPartitionChange). Guarded by mu.
	localMasters map[string]*MasterServer
	// heal is the resident detector + heal loop (nil until
	// EnableSelfHealing). Guarded by mu.
	heal *healManager

	leases *rifl.LeaseServer

	// reconfMu serializes reconfigurations (recovery, witness
	// replacement, migration) so the heal loop and an operator cannot
	// interleave two recoveries of one partition.
	reconfMu sync.Mutex

	// table tracks the liveness of every registered node (masters,
	// backups, witnesses). It is always maintained — heartbeats are cheap
	// and OpHealthStatus renders it — but only drives recovery when
	// EnableSelfHealing started the heal loop.
	table *health.Table

	// healEvents holds one pre-registered counter per FailoverKind, so a
	// scrape sees every curp_heal_events_total series at 0 before the
	// first incident.
	healEvents map[FailoverKind]*metrics.Counter

	// watch is the anomaly watchdog, owned by the resident sampler
	// goroutine (watchDone closes when it exits); anomalyCtrs the
	// pre-registered curp_anomaly_total{kind} counters.
	watch       *events.Watchdog
	anomalyCtrs map[string]*metrics.Counter
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
	// Node carries the deployment-wide node settings.
	Node NodeOptions
}

// NewCoordinator creates and starts a single-replica coordinator listening
// on addr — a control-plane quorum of one.
func NewCoordinator(nw transport.Network, addr string, leaseTTL time.Duration) (*Coordinator, error) {
	return NewCoordinatorReplica(nw, leaseTTL, QuorumOptions{Peers: []string{addr}})
}

// NewCoordinatorReplica creates and starts one replica of a coordinator
// quorum. Every replica serves reads (views, health, lease renewal) from
// its own applied copy of the replicated state and forwards mutations to
// the quorum leader; heal actions run only on the replica holding the
// leader lease.
func NewCoordinatorReplica(nw transport.Network, leaseTTL time.Duration, q QuorumOptions) (*Coordinator, error) {
	if len(q.Peers) == 0 {
		return nil, errors.New("coordinator: quorum needs at least one peer")
	}
	if q.Rank < 0 || q.Rank >= len(q.Peers) {
		return nil, fmt.Errorf("coordinator: rank %d outside %d peers", q.Rank, len(q.Peers))
	}
	c := &Coordinator{
		cpPeers:      append([]string(nil), q.Peers...),
		cpRank:       q.Rank,
		localMasters: make(map[string]*MasterServer),
		leases:       rifl.NewLeaseServer(leaseTTL, nil),
		table:        health.NewTable(),
		RPCTimeout:   2 * time.Second,
	}
	c.init(nw, q.Peers[q.Rank], "coordinator", q.Node)
	c.watch = events.NewWatchdog(events.WatchdogConfig{})
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
	if err := c.serve(); err != nil {
		c.cp.Close()
		return nil, err
	}
	go c.watchLoop()
	return c, nil
}

// call is the coordinator's one outbound RPC: a fresh dial per call —
// control traffic is a few small messages, and a fresh dial after a server
// restart beats holding a poisoned connection — bounded by RPCTimeout on
// top of whatever deadline ctx carries.
func (c *Coordinator) call(ctx context.Context, addr string, op uint16, payload []byte) ([]byte, error) {
	return dialCall(ctx, c.nw, c.addr, addr, c.RPCTimeout, op, payload)
}

// callEach sends one payload to every address at once and reports the
// first failure; what names the step for the error.
func (c *Coordinator) callEach(ctx context.Context, addrs []string, op uint16, payload []byte, what string) error {
	for i, leg := range scatter(ctx, c.nw, c.addr, addrs, c.RPCTimeout, op, payload) {
		if leg.err != nil {
			return fmt.Errorf("coordinator: %s %s: %w", what, addrs[i], leg.err)
		}
	}
	return nil
}

// u64Payload encodes a payload of fixed-width integers.
func u64Payload(vs ...uint64) []byte {
	e := rpc.NewEncoder(8 * len(vs))
	for _, v := range vs {
		e.U64(v)
	}
	return e.Bytes()
}

// ctrlSender carries control-plane consensus RPCs over the cluster's
// transport.
type ctrlSender struct{ c *Coordinator }

func (s *ctrlSender) AppendEntries(ctx context.Context, addr string, req *controlplane.AppendRequest) (*controlplane.AppendReply, error) {
	out, err := s.c.call(ctx, addr, OpCtrlAppend, req.Encode())
	if err != nil {
		return nil, err
	}
	return controlplane.DecodeAppendReply(out)
}

func (s *ctrlSender) RequestVote(ctx context.Context, addr string, req *controlplane.VoteRequest) (*controlplane.VoteReply, error) {
	out, err := s.c.call(ctx, addr, OpCtrlVote, req.Encode())
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
// The reply is (result, stale, message): a stale verdict is the leader's
// deterministic ANSWER, not a failure of the hop, so it travels as data
// and the proposer can tell it from a transport error whatever the
// message says.
func (c *Coordinator) handleCtrlPropose(ctx context.Context, payload []byte) ([]byte, error) {
	cmd, err := controlplane.DecodeCommand(payload)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, c.RPCTimeout)
	defer cancel()
	res, err := c.cp.Propose(ctx, cmd)
	stale := errors.Is(err, controlplane.ErrStale)
	if err != nil && !stale {
		return nil, err
	}
	var msg string
	if stale {
		msg = err.Error()
	}
	e := rpc.NewEncoder(16 + len(msg))
	e.U64(res)
	e.Bool(stale)
	e.String(msg)
	return e.Bytes(), nil
}

// staleVerdict is controlplane.ErrStale as it arrives over OpCtrlPropose:
// the flag carries the verdict, the text is the leader's for humans.
type staleVerdict string

func (e staleVerdict) Error() string        { return string(e) }
func (e staleVerdict) Is(target error) bool { return target == controlplane.ErrStale }

func (c *Coordinator) forwardPropose(ctx context.Context, leaderAddr string, cmd *controlplane.Command) (uint64, error) {
	out, err := c.call(ctx, leaderAddr, OpCtrlPropose, cmd.Encode())
	if err != nil {
		return 0, err
	}
	d := rpc.NewDecoder(out)
	res, stale, msg := d.U64(), d.Bool(), d.String()
	if err := d.Err(); err != nil {
		return 0, err
	}
	if stale {
		return 0, staleVerdict(msg)
	}
	return res, nil
}

// propose commits one control command: directly when this replica leads,
// else forwarded to the leader, retrying through elections under a
// deadline generous enough to ride out one of them.
func (c *Coordinator) propose(cmd *controlplane.Command) (uint64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 4*c.RPCTimeout)
	defer cancel()
	ctx, sp := c.coll.StartSpan(ctx, "ctrl-propose")
	sp.SetOp(cmd.Kind.String())
	res, err := c.proposeRetry(ctx, cmd)
	sp.SetErr(err)
	sp.End()
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
				// A stale verdict is a real answer from the leader, not a
				// transport failure — surface it like success.
				if ferr == nil || errors.Is(ferr, controlplane.ErrStale) {
					return res, ferr
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

// applyCtrl reacts to every committed control command. It runs on ALL
// replicas, in log order, under the control-plane node's lock, and acts
// only on what the node hands it — it never reads state back.
func (c *Coordinator) applyCtrl(cmd *controlplane.Command, prev, next *controlplane.Partition, res uint64, err error) {
	if err != nil {
		return // stale commands changed nothing
	}
	if cmd.Kind == controlplane.CmdRegisterClient {
		// Adopt the replicated ID so lease renewals and expiry work on
		// every replica, whichever one registered the client.
		c.leases.AdoptID(rifl.ClientID(c.clientNS + res))
	} else if next != nil {
		c.onPartitionChange(prev, next)
	}
}

// onPartitionChange is everything a committed configuration transition
// does on this replica besides changing the configuration (prev is nil
// when the command registered the partition).
func (c *Coordinator) onPartitionChange(prev, next *controlplane.Partition) {
	if prev != nil && prev.MasterAddr != next.MasterAddr {
		// PAPER §4.7: a deposed master must stop serving. The paper relies
		// on the epoch fence alone — the zombie finds out at its next
		// backup sync.
		// DEVIATION: when the deposed master runs in this process the
		// coordinator freezes it directly, the moment the deposition
		// commits. A false-positive failover leaves the old master alive;
		// without the freeze it keeps accepting requests until that next
		// sync trips over the fence, and the unlucky in-flight operations
		// see the discovery as an error instead of the retryable
		// StatusWrongMaster the healing contract promises. A genuinely
		// crashed master no-ops.
		c.mu.Lock()
		zombie := c.localMasters[prev.MasterAddr]
		delete(c.localMasters, prev.MasterAddr)
		c.mu.Unlock()
		if zombie != nil {
			zombie.Freeze()
			c.jrn.Record(events.Event{
				Kind: events.KindZombieFenced, MasterID: next.ID, Epoch: next.Epoch,
				OldAddr: prev.MasterAddr, NewAddr: next.MasterAddr,
				Detail: "deposed in-process master frozen at deposition commit",
			})
		}
	}
	// Flight recorder: a function of the committed log, so every replica
	// journals the same flips.
	if prev != nil && next.Epoch > prev.Epoch {
		c.jrn.Record(events.Event{
			Kind: events.KindEpochFlip, MasterID: next.ID, Epoch: next.Epoch,
			OldAddr: prev.MasterAddr, NewAddr: next.MasterAddr,
		})
	}
	if prev != nil && next.WLV > prev.WLV {
		c.jrn.Record(events.Event{
			Kind: events.KindWitnessListChange, MasterID: next.ID,
			WitnessListVersion: next.WLV,
		})
	}
	// Watch exactly the committed membership; members present before and
	// after keep their beat history.
	members := make(map[string]health.Role, 1+len(next.Backups)+len(next.Witnesses))
	for _, a := range next.Backups {
		members[a] = health.RoleBackup
	}
	for _, a := range next.Witnesses {
		members[a] = health.RoleWitness
	}
	members[next.MasterAddr] = health.RoleMaster
	c.table.SetMembers(next.ID, members)
}

// partition returns a deep copy of one partition's committed record. With
// partitions it is the only way configuration is read: callers own the
// copy, so nothing they do after this returns can race a later commit.
func (c *Coordinator) partition(masterID uint64) (*controlplane.Partition, error) {
	var p *controlplane.Partition
	c.cp.View(func(st *controlplane.State) { p = st.Partition(masterID) })
	if p == nil {
		return nil, fmt.Errorf("coordinator: unknown master %d", masterID)
	}
	return p, nil
}

// partitions returns a deep copy of every partition's committed record.
// The per-partition endpoints (status, gauges) serve the first: a deployed
// coordinator manages exactly one partition.
func (c *Coordinator) partitions() []*controlplane.Partition {
	var ps []*controlplane.Partition
	c.cp.View(func(st *controlplane.State) {
		for id := range st.Partitions {
			ps = append(ps, st.Partition(id))
		}
	})
	return ps
}

// localMaster returns the in-process handle of the master at addr, nil
// when another replica or process booted it.
func (c *Coordinator) localMaster(addr string) *MasterServer {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.localMasters[addr]
}

// servingMasters returns the in-process handles of the partitions' CURRENT
// masters. It tracks failovers: after a replacement is published the next
// call returns the replacement.
func (c *Coordinator) servingMasters() []*MasterServer {
	var out []*MasterServer
	for _, p := range c.partitions() {
		if ms := c.localMaster(p.MasterAddr); ms != nil {
			out = append(out, ms)
		}
	}
	return out
}

// buildMetrics registers the coordinator-side series: heal-loop event
// counters (every kind pre-registered at 0), ring/partition gauges, and
// partition-level load read from the health table's piggybacked master
// beats — one scrape of the coordinator answers "how is this shard doing"
// without touching the data path.
func (c *Coordinator) buildMetrics() {
	r := c.metrics
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
			for _, p := range c.partitions() {
				return float64(p.Epoch)
			}
			return 0
		})
	r.GaugeFunc("curp_partition_witness_list_version",
		"Current witness-list version of the partition.",
		func() float64 {
			for _, p := range c.partitions() {
				return float64(p.WLV)
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
		case <-c.closed:
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
	c.shutdown(func() {
		<-c.watchDone
		c.rpc.Close()
		c.cp.Close()
	})
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
	p := &PartitionHealth{SelfHealing: c.healMgr() != nil}
	for _, q := range c.partitions() {
		p.MasterID, p.MasterAddr, p.Epoch, p.WitnessListVersion = q.ID, q.MasterAddr, q.Epoch, q.WLV
	}
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
	v, err := c.View(masterID)
	if err != nil {
		return nil, err
	}
	return v.encode(), nil
}

func (c *Coordinator) handleRegisterClient(ctx context.Context, payload []byte) ([]byte, error) {
	// Client IDs are allocated through the replicated log so they stay
	// unique across coordinator failovers: any replica can serve the
	// registration, the sequence commits on a majority, and every
	// replica's lease table adopts the ID in applyCtrl.
	seq, err := c.propose(&controlplane.Command{Kind: controlplane.CmdRegisterClient})
	if err != nil {
		return nil, err
	}
	id := rifl.ClientID(c.clientNS + seq)
	// The local adopt in applyCtrl already ran on the leader; on a
	// forwarding follower the apply may still be in flight, and the
	// client's first renewal must not race it.
	c.leases.AdoptID(id)
	return u64Payload(uint64(id)), nil
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
	return c.proposeRanges(controlplane.CmdAddMoved, masterID, rs, destAddr)
}

// proposeRanges commits one migration-record command.
func (c *Coordinator) proposeRanges(kind controlplane.Kind, masterID uint64, rs []witness.HashRange, destAddr string) error {
	_, err := c.propose(&controlplane.Command{Kind: kind, Partition: masterID, Ranges: rs, Addr: destAddr})
	return err
}

// ForgetMovedRanges removes exactly-matching arcs from a partition's
// moved-away record (the undo path of an aborted multi-source rebalance
// step), along with any forwards recorded for exactly those arcs.
func (c *Coordinator) ForgetMovedRanges(masterID uint64, rs []witness.HashRange) error {
	return c.proposeRanges(controlplane.CmdDelMoved, masterID, rs, "")
}

// MovedRanges returns a copy of a partition's moved-away arcs.
func (c *Coordinator) MovedRanges(masterID uint64) []witness.HashRange {
	if p, err := c.partition(masterID); err == nil {
		return p.Moved
	}
	return nil
}

// NoteFrozenRanges records arcs a migration step is transferring out of a
// partition, so a recovery during the step keeps them frozen.
func (c *Coordinator) NoteFrozenRanges(masterID uint64, rs []witness.HashRange) error {
	return c.proposeRanges(controlplane.CmdAddFrozen, masterID, rs, "")
}

// ForgetFrozenRanges withdraws freeze records after a step aborts or
// commits.
func (c *Coordinator) ForgetFrozenRanges(masterID uint64, rs []witness.HashRange) error {
	return c.proposeRanges(controlplane.CmdDelFrozen, masterID, rs, "")
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
	if err := c.startWitnesses(ms.ID(), witnessAddrs, 1); err != nil {
		return err
	}
	if err := ms.SetWitnessList(1, witnessAddrs); err != nil {
		return err
	}
	// Register the in-process handle BEFORE proposing, so it is findable
	// the moment the command commits.
	c.mu.Lock()
	c.localMasters[ms.Addr()] = ms
	c.mu.Unlock()
	_, err := c.propose(&controlplane.Command{
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

// startWitnesses starts a witness instance for masterID on each of the
// given servers, bound to the witness-list version about to be published:
// the instances turn away records sent under an older view (see instance).
func (c *Coordinator) startWitnesses(masterID uint64, addrs []string, version uint64) error {
	return c.callEach(context.Background(), addrs, OpWitnessStart, u64Payload(masterID, version), "start witness")
}

// endWitnesses decommissions witness instances, best effort: a witness that
// cannot be reached holds an instance nobody will consult again.
func (c *Coordinator) endWitnesses(masterID uint64, addrs []string) {
	_ = c.callEach(context.Background(), addrs, OpWitnessEnd, u64Payload(masterID), "end witness")
}

// ReplaceWitness handles a crashed or decommissioned witness (§3.6): it
// starts an instance on newAddr, has the master sync and adopt the new
// witness list under an incremented WitnessListVersion, and publishes the
// new view. Clients using the old list get StatusStaleWitnessList from the
// master and refetch.
func (c *Coordinator) ReplaceWitness(masterID uint64, oldAddr, newAddr string) error {
	return c.replaceMember(masterID, health.RoleWitness, oldAddr, newAddr)
}

// ReplaceBackup swaps a dead backup out of a partition's sync set for a
// fresh server: the replacement pulls the master's state, the master swaps
// it into the sync set (MasterServer.ReplaceBackup), then the
// new set is published through the control log. The partition keeps
// serving throughout — no deposal, no epoch bump.
func (c *Coordinator) ReplaceBackup(masterID uint64, oldAddr, newAddr string) error {
	return c.replaceMember(masterID, health.RoleBackup, oldAddr, newAddr)
}

// replaceMember swaps oldAddr for newAddr in a partition's witness list or
// backup set: reconfigure the master first, then publish the new
// membership through the log, whose commit re-keys the health table on
// every replica.
//
// PAPER §3.6: the master syncs to backups BEFORE it accepts a new witness
// list (inside SetWitnessList), and the list's version is bumped so
// clients recording on the old list are told to refetch.
func (c *Coordinator) replaceMember(masterID uint64, role health.Role, oldAddr, newAddr string) error {
	c.reconfMu.Lock()
	defer c.reconfMu.Unlock()
	p, err := c.partition(masterID)
	if err != nil {
		return err
	}
	set := p.Backups
	if role == health.RoleWitness {
		set = p.Witnesses
	}
	i := slices.Index(set, oldAddr)
	if i < 0 {
		return fmt.Errorf("coordinator: %s is not a %v of master %d", oldAddr, role, masterID)
	}
	set[i] = newAddr // p is this call's own copy
	var cmd *controlplane.Command
	if role == health.RoleWitness {
		wlv := p.WLV + 1
		if err := c.startWitnesses(masterID, []string{newAddr}, wlv); err != nil {
			return err
		}
		e := rpc.NewEncoder(32 + 16*len(set))
		e.U64(wlv)
		e.Strings(set)
		err = c.onMaster(p.MasterAddr, func(ms *MasterServer) error {
			return ms.SetWitnessList(wlv, set)
		}, OpMasterSetWitnessList, e.Bytes())
		cmd = &controlplane.Command{Kind: controlplane.CmdSetWitnessList, Partition: masterID, WLV: wlv, Witnesses: set}
	} else {
		e := rpc.NewEncoder(16 + len(oldAddr) + len(newAddr))
		e.String(oldAddr)
		e.String(newAddr)
		err = c.onMaster(p.MasterAddr, func(ms *MasterServer) error {
			return ms.ReplaceBackup(oldAddr, newAddr)
		}, OpMasterReplaceBackup, e.Bytes())
		cmd = &controlplane.Command{Kind: controlplane.CmdSetBackups, Partition: masterID, Backups: set}
	}
	if err != nil {
		return err
	}
	if _, err := c.propose(cmd); err != nil {
		return err
	}
	if role == health.RoleWitness {
		// Best effort: free the old instance if the server is still up.
		c.endWitnesses(masterID, []string{oldAddr})
	}
	return nil
}

// onMaster runs one reconfiguration step on the master at addr: directly
// through the in-process handle when this replica booted the server, over
// the step's remote form (op, payload) when another replica did.
func (c *Coordinator) onMaster(addr string, local func(*MasterServer) error, op uint16, payload []byte) error {
	if ms := c.localMaster(addr); ms != nil {
		return local(ms)
	}
	_, err := c.call(context.Background(), addr, op, payload)
	return err
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
// (Migrate shares it without re-locking). p, read once here, is the
// configuration the whole recovery works from: a deep copy, so no commit
// that lands while recovery runs can change it underfoot.
func (c *Coordinator) recoverMasterLocked(masterID uint64, newAddr string, newWitnessAddrs []string, opts MasterOptions) (*MasterServer, error) {
	p, err := c.partition(masterID)
	if err != nil {
		return nil, err
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
	// ReservedEpoch+1: if another coordinator replica (a deposed leader
	// still running, a promoted one racing us) committed a reservation
	// first, this propose fails deterministically and we stand down —
	// dual-depose is impossible even across control-plane failovers.
	newEpoch := p.ReservedEpoch + 1
	if _, err := c.propose(&controlplane.Command{
		Kind: controlplane.CmdBeginRecovery, Partition: masterID,
		Epoch: newEpoch, Addr: newAddr,
	}); err != nil {
		fsp.SetErr(err)
		return nil, fmt.Errorf("coordinator: reserve recovery epoch %d: %w", newEpoch, err)
	}
	c.jrn.RecordTrace(tid, events.Event{
		Kind: events.KindFailoverEpoch, MasterID: masterID, Epoch: newEpoch,
		NewAddr: newAddr,
	})

	// PAPER §4.7 (zombie neutralization): fence the backups at the new
	// epoch, so no stale-epoch master may sync to them from here on.
	if err := c.callEach(fctx, p.Backups, OpBackupSetEpoch, u64Payload(masterID, newEpoch), "fence backup"); err != nil {
		fsp.SetErr(err)
		return nil, err
	}
	c.jrn.RecordTrace(tid, events.Event{
		Kind: events.KindFailoverFence, MasterID: masterID, Epoch: newEpoch,
		Detail: fmt.Sprintf("%d backups fenced", len(p.Backups)),
	})

	newMaster, err := NewMasterServer(c.nw, masterID, newAddr, newEpoch, opts)
	if err != nil {
		return nil, err
	}
	newMaster.SetBackups(p.Backups)
	// Seed the replacement with the partition's handed-off arcs BEFORE
	// restore/replay: the drop of migrated keys and the witness-replay
	// filter both depend on it. Arcs a live migration step is still
	// transferring stay frozen (data kept, requests bounced) so the
	// replacement cannot split-brain with the step's target; a rebalance
	// re-run converges from that state.
	newMaster.SetMovedRanges(p.Moved)
	newMaster.SetMovedForwards(p.Forwards)
	newMaster.SetFrozenRanges(p.Frozen)
	// PAPER §3.3/§4.6: restore from a backup, then replay the requests of
	// ONE witness — the first reachable one; freezing it via
	// getRecoveryData stops clients completing updates against the old
	// witness set ("the new master must wait" if none is reachable — we
	// surface that as an error instead). The new master then re-seeds every
	// backup with what it restored and replayed, dropped ranges and their
	// marks included, so nothing is left to re-apply on the backups here.
	restored, err := newMaster.RecoverFrom(fctx, p.Backups, p.Witnesses)
	if err != nil {
		newMaster.Close()
		fsp.SetErr(err)
		return nil, fmt.Errorf("coordinator: %w", err)
	}
	c.jrn.RecordTrace(tid, events.Event{
		Kind: events.KindFailoverRestore, MasterID: masterID, Epoch: newEpoch,
		NewAddr: newAddr,
		Detail:  restored,
	})

	// PAPER §3.6: fresh witness set for the new master under a bumped
	// version.
	newVersion := p.WLV + 1
	c.endWitnesses(masterID, p.Witnesses)
	if err := c.startWitnesses(masterID, newWitnessAddrs, newVersion); err != nil {
		newMaster.Close()
		return nil, err
	}
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
	// while recovery ran is already ordered in the log. The commit
	// installs the new view, freezes a still-running old master and
	// re-keys the health table on every replica (onPartitionChange).
	c.mu.Lock()
	c.localMasters[newAddr] = newMaster
	c.mu.Unlock()
	if _, err := c.propose(&controlplane.Command{
		Kind: controlplane.CmdSetMaster, Partition: masterID,
		Epoch: newEpoch, WLV: newVersion, Addr: newAddr,
		Witnesses: newWitnessAddrs, Backups: p.Backups,
	}); err != nil {
		newMaster.Close()
		c.mu.Lock()
		delete(c.localMasters, newAddr)
		c.mu.Unlock()
		fsp.SetErr(err)
		return nil, fmt.Errorf("coordinator: publish recovered master: %w", err)
	}
	c.jrn.RecordTrace(tid, events.Event{
		Kind: events.KindFailoverPromote, MasterID: masterID, Epoch: newEpoch,
		WitnessListVersion: newVersion, NewAddr: newAddr,
	})

	// The replacement has been heartbeating since it was constructed (its
	// options carry the deployment's NodeOptions), so the detector does not
	// re-fail the partition it just healed.
	if h := c.healMgr(); h != nil {
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
	servers := c.servingMasters()
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

// View returns the current view for a master — the in-process form of
// OpGetView.
//
// PAPER §3.6: clients fetch {master, witness list, WitnessListVersion} from
// the configuration manager and refetch when a master rejects their
// version.
func (c *Coordinator) View(masterID uint64) (*ViewInfo, error) {
	p, err := c.partition(masterID)
	if err != nil {
		return nil, err
	}
	return &ViewInfo{
		MasterID:           p.ID,
		MasterAddr:         p.MasterAddr,
		WitnessListVersion: p.WLV,
		WitnessAddrs:       p.Witnesses,
		BackupAddrs:        p.Backups,
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
	p, err := c.partition(masterID)
	if err != nil {
		return nil, err
	}
	old := c.localMaster(p.MasterAddr)
	if old == nil {
		return nil, fmt.Errorf("coordinator: master %d does not run in this process", masterID)
	}
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
