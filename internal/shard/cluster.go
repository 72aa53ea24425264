package shard

import (
	"context"
	"fmt"
	"sync"

	"curp/internal/addrbook"
	"curp/internal/cluster"
	"curp/internal/transport"
)

// Options configures a sharded deployment.
type Options struct {
	// Shards is the number of independent CURP partitions. Default 1.
	Shards int
	// VirtualNodes is the per-shard virtual-node count of the routing ring
	// (DefaultVirtualNodes when 0).
	VirtualNodes int
	// Partition configures every partition identically (F, master policy,
	// witness geometry, lease TTL, trace threshold). Set Partition.Health
	// to make every partition self-healing. Shard, Addrs and
	// ClientIDNamespace are set per partition by StartCluster.
	Partition cluster.Options
	// Addrs places every node of every partition (see
	// cluster.Options.Addrs). Nil means cluster.HostNames under a per-shard
	// prefix: partition i's hosts are "s<i>-coord", "s<i>-master1", and so
	// on. cmd/curpd passes addrbook.Book.RPC.
	Addrs func(shard int, slot addrbook.Role, i int) string
	// OnFailover observes each partition's heal-loop events, tagged with
	// the shard index (Partition.Health.OnEvent, if also set, fires too).
	// Called from the partitions' heal goroutines; must not block.
	OnFailover func(shard int, ev cluster.FailoverEvent)
}

// DefaultOptions returns a 4-shard deployment with per-partition paper
// defaults.
func DefaultOptions() Options {
	return Options{Shards: 4, Partition: cluster.DefaultOptions()}
}

// MigrationHooks inject failure points into a handoff step (Rebalance and
// RemoveShard), for tests that crash servers at precise protocol stages.
// Each hook receives the pivot shard — the one joining or leaving the
// ring. All fields may be nil.
type MigrationHooks struct {
	// BeforeCollect runs before the sources are frozen and drained.
	BeforeCollect func(pivot int)
	// AfterCollect runs after every source exported its ranges, before
	// the targets install them.
	AfterCollect func(pivot int)
	// AfterFlip runs after the ring epoch flipped (the handoff is
	// committed and its sources cleaned up).
	AfterFlip func(pivot int)
}

// Cluster is a running sharded CURP deployment: N independent partitions —
// each a coordinator, one master, F backups, and F witnesses — on one
// shared network, plus the ring that routes keys to them. Partitions share
// nothing: a shard's conflicts, syncs, crashes, and recoveries never touch
// another shard's fast path.
//
// The ring is mutable: AddShard boots spare partitions and Rebalance
// migrates key ranges onto them live, bumping the ring epoch. Routing
// clients opened with NewClient observe the flip through the RingSource
// interface and re-route bounced operations.
type Cluster struct {
	Net transport.Network
	// Parts holds one entry per partition, in shard order; entries are
	// never replaced in place (Recover swaps the master inside a
	// partition, not the partition itself). AddShard appends and
	// RemoveShard truncates the drained tail, both under mu; concurrent
	// paths (client dialing, rebalancing) read through partsSnapshot,
	// while tests may index it directly between reconfigurations.
	Parts []*cluster.Cluster
	// Hooks inject migration failure points (tests only).
	Hooks MigrationHooks

	opts Options

	mu   sync.Mutex
	ring *Ring

	// reconfMu serializes reconfigurations (AddShard) so two concurrent
	// adds cannot claim the same partition index, name prefix, and RIFL
	// client-ID namespace.
	reconfMu sync.Mutex
}

// hostNames is the default Options.Addrs: cluster.HostNames under the
// per-shard prefix "s<shard>-", so any number of shards coexist on one
// network.
func hostNames(shard int, slot addrbook.Role, i int) string {
	return cluster.HostNames(hostPrefix(shard))(slot, i)
}

func hostPrefix(shard int) string { return fmt.Sprintf("s%d-", shard) }

// StartCluster boots opts.Shards partitions on nw.
func StartCluster(nw transport.Network, opts Options) (*Cluster, error) {
	if opts.Shards <= 0 {
		opts.Shards = 1
	}
	ring, err := NewRing(opts.Shards, opts.VirtualNodes)
	if err != nil {
		return nil, err
	}
	c := &Cluster{Net: nw, ring: ring, opts: opts}
	for i := 0; i < opts.Shards; i++ {
		if err := c.bootPartition(i); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

func (c *Cluster) bootPartition(i int) error {
	popts := c.opts.Partition
	popts.Shard = i
	place := c.opts.Addrs
	if place == nil {
		place = hostNames
	}
	popts.Addrs = func(slot addrbook.Role, n int) string { return place(i, slot, n) }
	// Disjoint RIFL client-ID namespaces per partition: rebalancing moves
	// completion records between partitions, and cross-partition ID
	// collisions would hand one client another client's saved results.
	popts.ClientIDNamespace = cluster.ClientIDNamespaceFor(i)
	if popts.Health != nil {
		// Per-partition copy so each heal loop reports its own shard.
		h := *popts.Health
		if inner, outer := h.OnEvent, c.opts.OnFailover; outer != nil {
			h.OnEvent = func(ev cluster.FailoverEvent) {
				outer(i, ev)
				if inner != nil {
					inner(ev)
				}
			}
		}
		popts.Health = &h
	}
	part, err := cluster.Start(c.Net, popts)
	if err != nil {
		return fmt.Errorf("shard: start partition %d: %w", i, err)
	}
	c.mu.Lock()
	c.Parts = append(c.Parts, part)
	c.mu.Unlock()
	return nil
}

// partsSnapshot returns the partition list under the lock, for paths that
// run concurrently with AddShard.
func (c *Cluster) partsSnapshot() []*cluster.Cluster {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*cluster.Cluster(nil), c.Parts...)
}

// CurrentRing returns the routing ring in force. Rings are immutable;
// Rebalance replaces the pointer with a higher-epoch ring.
func (c *Cluster) CurrentRing() *Ring {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring
}

func (c *Cluster) setRing(r *Ring) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ring = r
}

// NumShards returns the partition count (including spares not yet covered
// by the ring).
func (c *Cluster) NumShards() int { return len(c.partsSnapshot()) }

// Part returns shard s's partition, for introspection in tests and tools.
func (c *Cluster) Part(s int) *cluster.Cluster { return c.partsSnapshot()[s] }

// Partitions returns a stable snapshot of every partition, in shard order.
func (c *Cluster) Partitions() []*cluster.Cluster { return c.partsSnapshot() }

// Nodes snapshots the observability bundle of every server of every
// partition (see cluster.Cluster.Nodes).
func (c *Cluster) Nodes() []cluster.Bundle {
	var bs []cluster.Bundle
	for _, part := range c.partsSnapshot() {
		bs = append(bs, part.Nodes()...)
	}
	return bs
}

// AddShard boots one spare partition and returns its index. The ring does
// not change: the new shard serves no keys until Rebalance migrates ranges
// onto it.
func (c *Cluster) AddShard() (int, error) {
	c.reconfMu.Lock()
	defer c.reconfMu.Unlock()
	i := len(c.partsSnapshot())
	if err := c.bootPartition(i); err != nil {
		return -1, err
	}
	return i, nil
}

// migrationEndpoints returns the driver and the per-partition coordinator
// addresses (index = shard) a handoff step runs against.
func (c *Cluster) migrationEndpoints() (*cluster.MigrationDriver, []string) {
	parts := c.partsSnapshot()
	coords := make([]string, len(parts))
	for i, p := range parts {
		coords[i] = p.Coord.Addr()
	}
	return &cluster.MigrationDriver{NW: c.Net, Self: "rebalancer"}, coords
}

// Rebalance grows the routing ring one shard at a time until it covers
// every partition, live-migrating each grow step's key ranges onto the new
// shard (see migrate.go for the step protocol). Traffic on keys outside
// the moving ranges is never interrupted; operations on moving keys bounce
// with a redirect until the ring epoch flips, then land on the new owner.
func (c *Cluster) Rebalance(ctx context.Context) error {
	// One reconfiguration at a time: a concurrent rebalance's abort path
	// could otherwise Drop ranges on the target that another run already
	// committed and flipped — deleting live data.
	c.reconfMu.Lock()
	defer c.reconfMu.Unlock()
	md, coords := c.migrationEndpoints()
	for {
		cur := c.CurrentRing()
		if cur.Shards() >= len(coords) {
			return nil
		}
		// The step publishes the grown ring itself, through setRing — the
		// only publish point, ordered after commit and backup fencing.
		if err := handoffStep(ctx, md, coords, cur, cur.Grow(), &c.Hooks, c.setRing); err != nil {
			return err
		}
	}
}

// RemoveShard drains the deployment's highest shard and retires it: the
// ring shrinks by one (restoring the pre-grow mapping exactly), the
// leaving shard's key ranges live-migrate back to the survivors through
// the same handoff step Rebalance runs — its moves fanning out to many
// targets instead of in from many sources — and once the shrunk ring is
// published the drained partition is shut down and dropped from the
// deployment. Traffic on keys outside the moving ranges is never
// interrupted.
func (c *Cluster) RemoveShard(ctx context.Context) error {
	c.reconfMu.Lock()
	defer c.reconfMu.Unlock()
	cur := c.CurrentRing()
	md, coords := c.migrationEndpoints()
	if cur.Shards() < len(coords) {
		return fmt.Errorf("shard: %d spare partition(s) not covered by the ring; Rebalance or remove them first", len(coords)-cur.Shards())
	}
	next, err := cur.Shrink()
	if err != nil {
		return err
	}
	if err := handoffStep(ctx, md, coords, cur, next, &c.Hooks, c.setRing); err != nil {
		return err
	}
	// The shrunk ring is published: no key routes to the drained
	// partition any more, so shutting it down is invisible to clients
	// (their redirect machinery already steered in-flight operations to
	// the survivors).
	c.mu.Lock()
	leaving := c.Parts[len(c.Parts)-1]
	c.Parts = c.Parts[:len(c.Parts)-1]
	c.mu.Unlock()
	leaving.Close()
	return nil
}

// NewClient opens a client routed across every shard. name is the client's
// network identity (shared by its per-shard connections). The client
// tracks ring changes: after a Rebalance it re-routes bounced operations
// and dials new shards on demand.
func (c *Cluster) NewClient(name string) (*Client, error) {
	ring := c.CurrentRing()
	cl := newClient(ring, nil)
	cl.src = c
	cl.dial = func(s int) (*cluster.Client, error) {
		parts := c.partsSnapshot()
		if s >= len(parts) {
			return nil, fmt.Errorf("shard: no partition %d", s)
		}
		return parts[s].NewClient(name)
	}
	parts := c.partsSnapshot()
	for i := 0; i < ring.Shards(); i++ {
		sc, err := parts[i].NewClient(name)
		if err != nil {
			cl.Close()
			return nil, fmt.Errorf("shard: client for partition %d: %w", i, err)
		}
		cl.shards = append(cl.shards, sc)
	}
	return cl, nil
}

// CrashMaster crashes shard s's master. The other shards keep serving;
// with self-healing enabled, shard s's coordinator promotes a
// replacement on its own.
func (c *Cluster) CrashMaster(s int) { c.Part(s).CrashMaster() }

// CrashWitness crashes shard s's i-th witness server. With self-healing
// enabled, the shard's coordinator installs a replacement.
func (c *Cluster) CrashWitness(s, i int) { c.Part(s).CrashWitness(i) }

// CrashCoordinatorLeader crashes the coordinator replica of shard s that
// holds the control-plane leader lease (rank 0 when no replica does, e.g.
// mid-election) and returns its index. With a replicated control plane
// the surviving replicas elect a new leader that resumes healing; with a
// single replica the shard's control plane is gone.
func (c *Cluster) CrashCoordinatorLeader(s int) int {
	part := c.Part(s)
	idx := 0
	for i, co := range part.CoordReplicas {
		if co.HoldingLease() {
			idx = i
			break
		}
	}
	part.CrashCoordinator(idx)
	return idx
}

// WaitHealthy blocks until every partition's health table reports all
// nodes alive (self-healing deployments), or ctx ends.
func (c *Cluster) WaitHealthy(ctx context.Context) error {
	for _, part := range c.partsSnapshot() {
		if err := part.WaitHealthy(ctx); err != nil {
			return err
		}
	}
	return nil
}

// Recover replaces shard s's crashed master with a fresh server. Under the
// default host names newAddr is a host name scoped to the shard, so the same
// logical name (e.g. "master2") may be reused across shards; a deployment
// placed by Options.Addrs has no such names, and the replacement takes the
// partition's next Spare slot.
func (c *Cluster) Recover(s int, newAddr string) error {
	if c.opts.Addrs == nil {
		newAddr = hostPrefix(s) + newAddr
	} else {
		newAddr = ""
	}
	_, err := c.Part(s).Recover(newAddr)
	return err
}

// Close shuts every partition down.
func (c *Cluster) Close() {
	for _, part := range c.partsSnapshot() {
		part.Close()
	}
}
