package cluster

import (
	"context"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"curp/internal/addrbook"
	"curp/internal/health"
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
	// Addrs places every node of the partition: it returns the address of
	// the i-th node in a slot of the deployment's layout, spares included
	// (the three spare slots are numbered from 1 by one shared sequence).
	// Nil means HostNames(""); several clusters on one network pass
	// HostNames with distinct prefixes, cmd/curpd its addrbook.Book's ports.
	Addrs func(slot addrbook.Role, i int) string
	// Shard is the partition's index in a sharded deployment, stamped on
	// every node's spans, events and hot-key dumps.
	Shard int
	// TraceThreshold is the tail-sampling promotion bound of every node's
	// trace collector (see NodeOptions).
	TraceThreshold time.Duration
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

// HostNames is the default Options.Addrs: in-memory host names under a
// prefix — "coord", "coord<i+1>", "master1", "backup<i+1>", "witness<i+1>"
// and, for spares, "master-f<n>", "backup-r<n>", "witness-r<n>".
func HostNames(prefix string) func(addrbook.Role, int) string {
	return func(slot addrbook.Role, i int) string {
		switch slot {
		case addrbook.Coordinator:
			if i == 0 {
				return prefix + "coord"
			}
			return fmt.Sprintf("%scoord%d", prefix, i+1)
		case addrbook.Master:
			return fmt.Sprintf("%smaster%d", prefix, i+1)
		case addrbook.Backup:
			return fmt.Sprintf("%sbackup%d", prefix, i+1)
		case addrbook.Witness:
			return fmt.Sprintf("%switness%d", prefix, i+1)
		case addrbook.Spare:
			return fmt.Sprintf("%smaster-f%d", prefix, i)
		case addrbook.SpareBackup:
			return fmt.Sprintf("%sbackup-r%d", prefix, i)
		case addrbook.SpareWitness:
			return fmt.Sprintf("%switness-r%d", prefix, i)
		}
		panic(fmt.Sprintf("cluster: no host name for slot %d", slot))
	}
}

// Cluster is a running CURP deployment for one partition: a coordinator
// quorum, one master, F backups, and F witness servers, all reachable over
// the given network. Start is the only code that assembles one — the
// tests' and examples' in-memory partitions and cmd/curpd's TCP partitions
// differ in Options.Addrs and nothing else — and Cluster is the partition's
// one SpareProvider.
//
// With Options.Health set, Master, Backups and Witnesses change under the
// cluster's own lock as the heal loop promotes replacements; concurrent
// readers must use CurrentMaster / BackupServers / WitnessServers instead
// of the fields.
type Cluster struct {
	Net transport.Network
	// Opts is the resolved configuration: defaults filled in, and
	// Opts.Master.Node holding the NodeOptions every node is built with.
	Opts  Options
	Coord *Coordinator
	// CoordReplicas is the full coordinator quorum, rank order; Coord is
	// rank 0 (the seeded first leader). Length 1 without
	// Options.ControlPlaneReplicas.
	CoordReplicas []*Coordinator
	Master        *MasterServer
	Backups       []*BackupServer
	Witnesses     []*WitnessServer

	// mu guards Master, Backups and Witnesses once the heal loop may rebind
	// them.
	mu sync.Mutex
	// spareSeq numbers the spare slots this cluster handed out.
	spareSeq atomic.Uint64
	// detector is the resolved failure-detector policy (self-healing only).
	detector health.Config
}

// Start boots a cluster on nw. On error every node already booted is closed
// again.
func Start(nw transport.Network, opts Options) (_ *Cluster, err error) {
	if opts.F <= 0 {
		opts.F = 3
	}
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = time.Minute
	}
	if opts.Witness.Slots == 0 {
		opts.Witness = witness.DefaultConfig()
	}
	if opts.Addrs == nil {
		opts.Addrs = HostNames("")
	}
	peerAddrs := make([]string, max(opts.ControlPlaneReplicas, 1))
	for i := range peerAddrs {
		peerAddrs[i] = opts.Addrs(addrbook.Coordinator, i)
	}
	opts.Master.Node = NodeOptions{Shard: opts.Shard, TraceThreshold: opts.TraceThreshold}
	c := &Cluster{Net: nw}
	if opts.Health != nil {
		// Every server beats every coordinator replica from the moment it
		// serves; beats for a node the control log has not registered yet
		// are dropped by the health table.
		c.detector = health.Config{Interval: opts.Health.HeartbeatInterval, FailAfter: opts.Health.FailAfter}.WithDefaults()
		opts.Master.Node.Coordinators = peerAddrs
		opts.Master.Node.HeartbeatInterval = c.detector.Interval
	}
	c.Opts = opts
	// c is a local the error returns below cannot overwrite: the deferred
	// cleanup still sees the partial cluster.
	defer func() {
		if err != nil {
			c.Close()
		}
	}()
	for i := range peerAddrs {
		co, err := NewCoordinatorReplica(nw, opts.LeaseTTL, QuorumOptions{
			Peers:           peerAddrs,
			Rank:            i,
			ElectionTimeout: opts.ControlPlaneElectionTimeout,
			Node:            opts.Master.Node,
		})
		if err != nil {
			return nil, err
		}
		co.SetClientIDNamespace(opts.ClientIDNamespace)
		c.CoordReplicas = append(c.CoordReplicas, co)
	}
	c.Coord = c.CoordReplicas[0]
	var backupAddrs, witnessAddrs []string
	for i := 0; i < opts.F; i++ {
		b, err := c.bootBackup(addrbook.Backup, i)
		if err != nil {
			return nil, err
		}
		backupAddrs = append(backupAddrs, b)
		w, err := c.bootWitness(addrbook.Witness, i)
		if err != nil {
			return nil, err
		}
		witnessAddrs = append(witnessAddrs, w)
	}
	if c.Master, err = NewMasterServer(nw, 1, opts.Addrs(addrbook.Master, 0), 0, opts.Master); err != nil {
		return nil, err
	}
	if err := c.Coord.AddMaster(c.Master, backupAddrs, witnessAddrs); err != nil {
		return nil, err
	}
	if opts.Health != nil {
		if err := c.enableSelfHealing(opts.Health.OnEvent); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// bootBackup boots the backup server of slot i and adds it to the
// partition's runtime list.
func (c *Cluster) bootBackup(slot addrbook.Role, i int) (string, error) {
	b, err := newBackupServer(c.Net, c.Opts.Addrs(slot, i), c.Opts.Master.Node)
	if err != nil {
		return "", err
	}
	c.mu.Lock()
	c.Backups = append(c.Backups, b)
	c.mu.Unlock()
	return b.Addr(), nil
}

// bootWitness boots the witness server of slot i and adds it to the
// partition's runtime list.
func (c *Cluster) bootWitness(slot addrbook.Role, i int) (string, error) {
	w, err := newWitnessServer(c.Net, c.Opts.Addrs(slot, i), c.Opts.Witness, c.Opts.Master.Node)
	if err != nil {
		return "", err
	}
	c.mu.Lock()
	c.Witnesses = append(c.Witnesses, w)
	c.mu.Unlock()
	return w.Addr(), nil
}

// enableSelfHealing starts each coordinator replica's heal loop, with this
// Cluster as the spare-node provider.
func (c *Cluster) enableSelfHealing(userEvent func(FailoverEvent)) error {
	// Intercept replacements to retire the dead server from the runtime's
	// list.
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
			Detector:       c.detector,
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

// Nodes snapshots the observability bundle of every server of the
// partition — coordinator replicas, current master, backups, witnesses,
// spares included. Callers re-fetch per scrape (Endpoints does), so a
// failover never leaves them serving a deposed master's instruments.
func (c *Cluster) Nodes() []Bundle {
	var bs []Bundle
	for _, co := range c.CoordReplicas {
		bs = append(bs, co.Bundle())
	}
	if m := c.CurrentMaster(); m != nil {
		bs = append(bs, m.Bundle())
	}
	for _, b := range c.BackupServers() {
		bs = append(bs, b.Bundle())
	}
	for _, w := range c.WitnessServers() {
		bs = append(bs, w.Bundle())
	}
	return bs
}

// WriteMetrics renders the bundles' registries to w in Prometheus text
// exposition format (the non-HTTP form of Endpoints.Metrics).
func WriteMetrics(w io.Writer, bundles []Bundle) error {
	for _, b := range bundles {
		if b.Metrics == nil {
			continue
		}
		if err := b.Metrics.WritePrometheus(w); err != nil {
			return err
		}
	}
	return nil
}

// SpareMasterAddr implements SpareProvider: a fresh address for a
// promoted replacement master. The three spare slots are numbered by one
// sequence, so no two spares ever collide (addrbook gives spare masters and
// backups the same ports).
func (c *Cluster) SpareMasterAddr(masterID uint64) (string, error) {
	return c.Opts.Addrs(addrbook.Spare, int(c.spareSeq.Add(1))), nil
}

// SpareWitness implements SpareProvider: boot a fresh witness server (it
// heartbeats from construction) and hand its address to the heal loop.
func (c *Cluster) SpareWitness(masterID uint64) (string, error) {
	return c.bootWitness(addrbook.SpareWitness, int(c.spareSeq.Add(1)))
}

// SpareBackup implements SpareProvider: boot a fresh backup server and
// hand its address to the heal loop (it pulls the master's state before the
// master swaps it into the sync set).
func (c *Cluster) SpareBackup(masterID uint64) (string, error) {
	return c.bootBackup(addrbook.SpareBackup, int(c.spareSeq.Add(1)))
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
	tick := c.detector.Interval
	if tick <= 0 {
		tick = 5 * time.Millisecond
	}
	stable := c.detector.FailAfter
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

// Recover replaces the crashed master with a fresh server at newAddr (""
// takes the partition's next Spare slot), reusing the partition's CURRENT
// witness set (the coordinator's view — which reflects any automatic
// replacements — rather than the raw list of servers this runtime ever
// booted).
func (c *Cluster) Recover(newAddr string) (*MasterServer, error) {
	if newAddr == "" {
		newAddr, _ = c.SpareMasterAddr(1)
	}
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
