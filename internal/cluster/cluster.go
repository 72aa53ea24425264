package cluster

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"curp/internal/events"
	"curp/internal/health"
	"curp/internal/metrics"
	"curp/internal/transport"
	"curp/internal/witness"
)

// Options configures a whole cluster for one partition.
type Options struct {
	// F is the fault-tolerance level: F backups and F witnesses.
	F int
	// Master configures the master's sync policy and RPC timeouts.
	Master MasterOptions
	// Witness sizes each witness.
	Witness witness.Config
	// LeaseTTL is the RIFL client lease duration.
	LeaseTTL time.Duration
	// NamePrefix distinguishes multiple clusters on one network.
	NamePrefix string
	// ClientIDNamespace offsets the partition's RIFL client-ID space.
	// Sharded deployments give each partition a disjoint namespace (e.g.
	// shard index << 32) so completion records migrated between shards
	// during rebalancing can never collide with the target's own clients.
	ClientIDNamespace uint64
	// Health, when non-nil, makes the partition self-healing: every
	// server heartbeats the coordinator, whose resident detector declares
	// silent nodes dead and drives automatic master failover and witness
	// replacement — no CrashMaster+Recover choreography, no operator.
	Health *HealthOptions
	// ControlPlaneReplicas is the size of the coordinator quorum. 1 (or
	// 0, the default) boots a single coordinator; 2f+1 replicas tolerate
	// f coordinator failures — any surviving replica serves views, and
	// the consensus leader lease decides which one may heal.
	ControlPlaneReplicas int
	// ControlPlaneElectionTimeout tunes coordinator leader-failure
	// detection (controlplane's default when zero; tests shrink it).
	ControlPlaneElectionTimeout time.Duration
}

// HealthOptions tunes a self-healing partition.
type HealthOptions struct {
	// HeartbeatInterval is the beat cadence (health.DefaultInterval when
	// 0; tests and benchmarks shrink it to the low milliseconds).
	HeartbeatInterval time.Duration
	// FailAfter is the heartbeat silence after which a node is declared
	// dead (8× the interval when 0).
	FailAfter time.Duration
	// OnEvent observes failover lifecycle events. Called from the heal
	// goroutine; must not block. Optional.
	OnEvent func(FailoverEvent)
}

// ClientIDNamespaceFor returns the RIFL client-ID namespace base for a
// partition index: 2^32 IDs per partition, disjoint across partitions, so
// completion records migrating between shards can never collide.
func ClientIDNamespaceFor(shard int) uint64 { return uint64(shard) << 32 }

// DefaultOptions returns a 3-way replicated cluster with paper defaults.
func DefaultOptions() Options {
	return Options{
		F:        3,
		Master:   DefaultMasterOptions(),
		Witness:  witness.DefaultConfig(),
		LeaseTTL: time.Minute,
	}
}

// Cluster is a running CURP deployment for one partition: a coordinator,
// one master, F backups, and F witness servers, all reachable over the
// given network. It is the integration-test and example harness; cmd/curpd
// assembles the same pieces as separate processes.
//
// With Options.Health set, Master and Witnesses change under the
// cluster's own lock as the heal loop promotes replacements; concurrent
// readers must use CurrentMaster / WitnessServers instead of the fields.
type Cluster struct {
	Net   transport.Network
	Opts  Options
	Coord *Coordinator
	// CoordReplicas is the full coordinator quorum, rank order; Coord is
	// rank 0 (the seeded first leader). Length 1 without
	// Options.ControlPlaneReplicas.
	CoordReplicas []*Coordinator
	Master        *MasterServer
	Backups       []*BackupServer
	Witnesses     []*WitnessServer

	// mu guards Master and Witnesses once the heal loop may rebind them.
	mu sync.Mutex
	// spareSeq numbers the spare nodes this cluster booted for failover.
	spareSeq atomic.Uint64
	// traceThreshold is the tail-sampling promotion threshold, re-applied
	// to replacement masters promoted by the heal loop.
	traceThreshold atomic.Int64
	// hbInterval / failAfter are the resolved detector cadence and
	// deadline (self-healing only).
	hbInterval time.Duration
	failAfter  time.Duration
}

// Start boots a cluster on nw.
func Start(nw transport.Network, opts Options) (*Cluster, error) {
	if opts.F <= 0 {
		opts.F = 3
	}
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = time.Minute
	}
	if opts.Witness.Slots == 0 {
		opts.Witness = witness.DefaultConfig()
	}
	p := opts.NamePrefix
	c := &Cluster{Net: nw, Opts: opts}
	var err error
	replicas := opts.ControlPlaneReplicas
	if replicas <= 0 {
		replicas = 1
	}
	peerAddrs := make([]string, replicas)
	for i := range peerAddrs {
		if i == 0 {
			peerAddrs[i] = p + "coord"
		} else {
			peerAddrs[i] = fmt.Sprintf("%scoord%d", p, i+1)
		}
	}
	for i := 0; i < replicas; i++ {
		co, cerr := NewCoordinatorReplica(nw, opts.LeaseTTL, QuorumOptions{
			Peers:           peerAddrs,
			Rank:            i,
			ElectionTimeout: opts.ControlPlaneElectionTimeout,
		})
		if cerr != nil {
			c.Close()
			return nil, cerr
		}
		co.SetClientIDNamespace(opts.ClientIDNamespace)
		c.CoordReplicas = append(c.CoordReplicas, co)
	}
	c.Coord = c.CoordReplicas[0]
	var backupAddrs, witnessAddrs []string
	for i := 0; i < opts.F; i++ {
		b, err := NewBackupServer(nw, fmt.Sprintf("%sbackup%d", p, i+1))
		if err != nil {
			c.Close()
			return nil, err
		}
		c.Backups = append(c.Backups, b)
		backupAddrs = append(backupAddrs, b.Addr())
		w, err := NewWitnessServer(nw, fmt.Sprintf("%switness%d", p, i+1), opts.Witness)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.Witnesses = append(c.Witnesses, w)
		witnessAddrs = append(witnessAddrs, w.Addr())
	}
	if c.Master, err = NewMasterServer(nw, 1, p+"master1", 0, opts.Master); err != nil {
		c.Close()
		return nil, err
	}
	if err := c.Coord.AddMaster(c.Master, backupAddrs, witnessAddrs); err != nil {
		c.Close()
		return nil, err
	}
	if opts.Health != nil {
		if err := c.enableSelfHealing(*opts.Health); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// enableSelfHealing starts every server's heartbeat (to every coordinator
// replica, so whichever holds the lease has a live detector table) and
// each replica's heal loop, with this Cluster as the spare-node provider.
func (c *Cluster) enableSelfHealing(h HealthOptions) error {
	det := health.Config{Interval: h.HeartbeatInterval, FailAfter: h.FailAfter}.WithDefaults()
	c.hbInterval = det.Interval
	c.failAfter = det.FailAfter
	coordAddrs := c.coordAddrs()
	c.Master.StartHeartbeats(coordAddrs, det.Interval)
	for _, b := range c.Backups {
		b.StartHeartbeats(coordAddrs, det.Interval)
	}
	for _, w := range c.Witnesses {
		w.StartHeartbeats(coordAddrs, det.Interval)
	}
	// Intercept replacements to retire the dead server from the runtime's
	// list.
	userEvent := h.OnEvent
	onEvent := func(ev FailoverEvent) {
		switch ev.Kind {
		case EventWitnessReplaced:
			retire(c, &c.Witnesses, ev.OldAddr)
		case EventBackupReplaced:
			retire(c, &c.Backups, ev.OldAddr)
		}
		if userEvent != nil {
			userEvent(ev)
		}
	}
	// Every replica runs the detector and heal loop; the leader lease
	// decides which one acts, so a coordinator failover transparently
	// hands the healing duty to the new leader.
	for _, co := range c.CoordReplicas {
		err := co.EnableSelfHealing(HealthConfig{
			Detector:       det,
			Spares:         c,
			MasterOpts:     c.Opts.Master,
			OnEvent:        onEvent,
			onMasterChange: c.setMaster,
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// coordAddrs lists every coordinator replica's address, rank order.
func (c *Cluster) coordAddrs() []string {
	addrs := make([]string, 0, len(c.CoordReplicas))
	for _, co := range c.CoordReplicas {
		addrs = append(addrs, co.Addr())
	}
	return addrs
}

// CoordinatorLeader returns the replica currently holding the
// control-plane leader lease, or nil during an election.
func (c *Cluster) CoordinatorLeader() *Coordinator {
	for _, co := range c.CoordReplicas {
		if co.HoldingLease() {
			return co
		}
	}
	return nil
}

// CrashCoordinator simulates a crash of coordinator replica i: its
// connections reset, its listener disappears, and the survivors elect a
// new leader who takes over healing and proposal commits.
func (c *Cluster) CrashCoordinator(i int) {
	co := c.CoordReplicas[i]
	if mn, ok := c.Net.(*transport.MemNetwork); ok {
		mn.CrashHost(co.Addr())
	}
	co.Close()
}

// retire closes and drops the server at addr from one of the runtime's
// lists (it was replaced by a spare): a stale entry would poison a later
// manual Recover's witness set and misreport membership.
func retire[S interface {
	Addr() string
	Close()
}](c *Cluster, list *[]S, addr string) {
	c.mu.Lock()
	i := slices.IndexFunc(*list, func(s S) bool { return s.Addr() == addr })
	if i < 0 {
		c.mu.Unlock()
		return
	}
	retired := (*list)[i]
	*list = slices.Delete(*list, i, i+1)
	c.mu.Unlock()
	retired.Close() // idempotent; usually already crashed
}

// setMaster rebinds the in-process master handle after a recovery.
func (c *Cluster) setMaster(ms *MasterServer) {
	ms.Trace().SetThreshold(time.Duration(c.traceThreshold.Load()))
	c.mu.Lock()
	c.Master = ms
	c.mu.Unlock()
}

// CurrentMaster returns the partition's current master server (the heal
// loop may have replaced the one Start created).
func (c *Cluster) CurrentMaster() *MasterServer {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.Master
}

// WitnessServers returns a snapshot of the partition's witness servers,
// including spares booted by the heal loop.
func (c *Cluster) WitnessServers() []*WitnessServer {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*WitnessServer(nil), c.Witnesses...)
}

// BackupServers returns a snapshot of the partition's backup servers,
// including spares swapped in by the heal loop.
func (c *Cluster) BackupServers() []*BackupServer {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*BackupServer(nil), c.Backups...)
}

// Registries snapshots every server's metric registry — coordinator,
// current master (the heal loop may have promoted a replacement since the
// last call), backups, witnesses. Callers re-fetch per scrape so a
// failover never leaves them serving a deposed master's registry.
func (c *Cluster) Registries() []*metrics.Registry {
	regs := []*metrics.Registry{c.Coord.Metrics()}
	if m := c.CurrentMaster(); m != nil {
		regs = append(regs, m.Metrics())
	}
	for _, b := range c.BackupServers() {
		regs = append(regs, b.Metrics())
	}
	for _, w := range c.WitnessServers() {
		regs = append(regs, w.Metrics())
	}
	return regs
}

// TraceCollectors snapshots every server's distributed-trace collector —
// coordinator, current master, backups, witnesses. Like Registries,
// callers re-fetch per request so failovers are reflected immediately.
func (c *Cluster) TraceCollectors() []*metrics.Collector {
	colls := []*metrics.Collector{c.Coord.Trace()}
	if m := c.CurrentMaster(); m != nil {
		colls = append(colls, m.Trace())
	}
	for _, b := range c.BackupServers() {
		colls = append(colls, b.Trace())
	}
	for _, w := range c.WitnessServers() {
		colls = append(colls, w.Trace())
	}
	return colls
}

// EventJournals snapshots every server's flight-recorder journal —
// coordinator replicas, current master, backups, witnesses. Like
// Registries, callers re-fetch per request so a failover never leaves
// them reading a deposed master's (now idle) journal only.
func (c *Cluster) EventJournals() []*events.Journal {
	var js []*events.Journal
	for _, co := range c.CoordReplicas {
		js = append(js, co.Events())
	}
	if m := c.CurrentMaster(); m != nil {
		js = append(js, m.Events())
	}
	for _, b := range c.BackupServers() {
		js = append(js, b.Events())
	}
	for _, w := range c.WitnessServers() {
		js = append(js, w.Events())
	}
	return js
}

// HotKeySketches snapshots the partition's key-space sketches (the
// current master's — reads and updates both key there). Re-fetched per
// request, failover-safe.
func (c *Cluster) HotKeySketches() []*events.TopK {
	if m := c.CurrentMaster(); m != nil {
		return []*events.TopK{m.HotKeys()}
	}
	return nil
}

// SetTraceThreshold sets the tail-sampling promotion threshold on every
// server's trace collector: any trace containing a span at least this slow
// is promoted (kept for /trace) even when nothing else was interesting
// about it. Zero keeps the default rules (errors, conflict syncs, lock
// waits, redirects).
func (c *Cluster) SetTraceThreshold(d time.Duration) {
	c.traceThreshold.Store(int64(d))
	for _, coll := range c.TraceCollectors() {
		coll.SetThreshold(d)
	}
}

// SpareMasterAddr implements SpareProvider: a fresh address for a
// promoted replacement master.
func (c *Cluster) SpareMasterAddr(masterID uint64) (string, error) {
	return fmt.Sprintf("%smaster-f%d", c.Opts.NamePrefix, c.spareSeq.Add(1)), nil
}

// SpareWitness implements SpareProvider: boot a fresh witness server on
// the cluster's network, start its heartbeat, and hand its address to the
// heal loop.
func (c *Cluster) SpareWitness(masterID uint64) (string, error) {
	addr := fmt.Sprintf("%switness-r%d", c.Opts.NamePrefix, c.spareSeq.Add(1))
	w, err := NewWitnessServer(c.Net, addr, c.Opts.Witness)
	if err != nil {
		return "", err
	}
	w.StartHeartbeats(c.coordAddrs(), c.hbInterval)
	c.mu.Lock()
	c.Witnesses = append(c.Witnesses, w)
	c.mu.Unlock()
	return addr, nil
}

// SpareBackup implements SpareProvider: boot a fresh backup server on the
// cluster's network, start its heartbeat, and hand its address to the
// heal loop (the master seeds it with its full log image before swapping
// it into the sync set).
func (c *Cluster) SpareBackup(masterID uint64) (string, error) {
	addr := fmt.Sprintf("%sbackup-r%d", c.Opts.NamePrefix, c.spareSeq.Add(1))
	b, err := NewBackupServer(c.Net, addr)
	if err != nil {
		return "", err
	}
	b.StartHeartbeats(c.coordAddrs(), c.hbInterval)
	c.mu.Lock()
	c.Backups = append(c.Backups, b)
	c.mu.Unlock()
	return addr, nil
}

// WaitHealthy blocks until every registered node of the partition has
// been within its heartbeat deadline CONTINUOUSLY for one full detection
// window, or ctx ends. The stability window matters: a node that crashed
// just before the call still looks alive until its deadline lapses, so
// an instantaneous Healthy() check right after a CrashMaster would
// return before the failover even started. Holding healthy across
// FailAfter guarantees any pre-call crash was detected (and healed)
// first. Meaningful only with Options.Health set.
func (c *Cluster) WaitHealthy(ctx context.Context) error {
	tick := c.hbInterval
	if tick <= 0 {
		tick = 5 * time.Millisecond
	}
	stable := c.failAfter
	if stable <= 0 {
		stable = health.Config{}.WithDefaults().FailAfter
	}
	var healthySince time.Time
	for {
		// Consult the lease-holding replica: its detector table is the one
		// gating heal actions (a crashed rank-0 coordinator would otherwise
		// report stale verdicts forever).
		lead := c.CoordinatorLeader()
		if lead == nil || !lead.Healthy() {
			healthySince = time.Time{}
		} else {
			now := time.Now()
			if healthySince.IsZero() {
				healthySince = now
			} else if now.Sub(healthySince) >= stable {
				return nil
			}
		}
		t := time.NewTimer(tick)
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
	}
}

// NewClient opens a client bound to the cluster's partition, knowing
// every coordinator replica.
func (c *Cluster) NewClient(name string) (*Client, error) {
	return NewClientMulti(c.Net, name, c.coordAddrs(), 1)
}

// CrashMaster simulates a master crash: on in-memory networks all its
// connections reset and its listener disappears; then the server stops.
// With self-healing enabled the coordinator detects the silence and
// promotes a replacement on its own — no Recover call needed.
func (c *Cluster) CrashMaster() {
	m := c.CurrentMaster()
	if mn, ok := c.Net.(*transport.MemNetwork); ok {
		mn.CrashHost(m.Addr())
	}
	m.Close()
}

// CrashWitness simulates a crash of the i-th witness server (as indexed
// in the current WitnessServers snapshot). With self-healing enabled the
// coordinator installs a replacement under a bumped WitnessListVersion.
func (c *Cluster) CrashWitness(i int) {
	w := c.WitnessServers()[i]
	if mn, ok := c.Net.(*transport.MemNetwork); ok {
		mn.CrashHost(w.Addr())
	}
	w.Close()
}

// Recover replaces the crashed master with a fresh server at newAddr,
// reusing the partition's CURRENT witness set (the coordinator's view —
// which reflects any automatic replacements — rather than the raw list
// of servers this runtime ever booted).
func (c *Cluster) Recover(newAddr string) (*MasterServer, error) {
	view, err := c.Coord.View(1)
	if err != nil {
		return nil, err
	}
	nm, err := c.Coord.RecoverMaster(1, newAddr, view.WitnessAddrs, c.Opts.Master)
	if err != nil {
		return nil, err
	}
	c.setMaster(nm)
	return nm, nil
}

// Close shuts every server down.
func (c *Cluster) Close() {
	for _, co := range c.CoordReplicas {
		co.Close() // stops the heal loops before servers disappear
	}
	if m := c.CurrentMaster(); m != nil {
		m.Close()
	}
	for _, b := range c.BackupServers() {
		b.Close()
	}
	for _, w := range c.WitnessServers() {
		w.Close()
	}
}
