package curp

import (
	"context"
	"io"
	"net/http"

	"curp/internal/cluster"
	"curp/internal/metrics"
	"curp/internal/shard"
	"curp/internal/transport"
)

// Migration protocol (live rebalancing) in one paragraph: AddShard boots a
// spare partition that owns no keys; Rebalance grows the consistent-hash
// ring one shard per step, and for each step freezes the moving key ranges
// on their source shards (operations on them bounce internally and retry),
// drains and copies the ranges' data plus RIFL completion records to the
// new shard, records the handoff for crash recovery, flips the ring epoch
// — at which point clients re-route — and finally drops the moved keys at
// the sources. Keys outside the moving ranges (≈N/(N+1) of them) never
// notice. See README.md for the full state machine and atomicity notes.

// ShardedCluster is a running multi-partition CURP deployment: N
// independent partitions (each a coordinator, one master, F backups, and F
// witnesses — the paper's unit of replication) on one in-memory network,
// with a consistent-hash ring routing each key to its owning partition.
// Shards share nothing, so conflicts, syncs, and crashes on one shard never
// slow another shard's 1-RTT fast path — the way the paper's RAMCloud
// evaluation scales out.
type ShardedCluster struct {
	inner *shard.Cluster
	net   *transport.MemNetwork
	// ring holds the deployment's routing-ring gauges; obs serves them and
	// every node's instruments, re-fetched per request (pprof too when
	// Options.Profiling was set).
	ring      *metrics.Registry
	obs       cluster.Endpoints
	profiling bool
}

// StartSharded boots opts.Shards independent partitions (at least one),
// each configured like Start configures its single partition. With
// Options.SelfHealing every partition heals itself: each coordinator
// watches its own master, backups, and witnesses.
func StartSharded(opts Options) (*ShardedCluster, error) {
	nw := memNetwork(opts)
	sopts := shard.Options{Shards: opts.Shards, Partition: clusterOptions(opts)}
	if opts.OnFailover != nil {
		cb := opts.OnFailover
		sopts.OnFailover = func(s int, ev cluster.FailoverEvent) { cb(toFailoverEvent(s, ev)) }
	}
	inner, err := shard.StartCluster(nw, sopts)
	if err != nil {
		return nil, err
	}
	c := &ShardedCluster{inner: inner, net: nw, ring: metrics.NewRegistry(), profiling: opts.Profiling}
	c.ring.GaugeFunc("curp_ring_epoch",
		"Routing-ring configuration epoch (one bump per rebalance step).",
		func() float64 { return float64(inner.CurrentRing().Epoch()) })
	c.ring.GaugeFunc("curp_ring_shards",
		"Partitions the routing ring covers.",
		func() float64 { return float64(inner.CurrentRing().Shards()) })
	c.obs = cluster.EndpointsOver(c.nodes)
	return c, nil
}

// NumShards returns the partition count, including spares added with
// AddShard that the ring does not cover yet.
func (c *ShardedCluster) NumShards() int { return c.inner.NumShards() }

// RingShards returns how many partitions the routing ring covers.
func (c *ShardedCluster) RingShards() int { return c.inner.CurrentRing().Shards() }

// RingEpoch returns the routing ring's configuration epoch; it increases
// by one per completed Rebalance grow step.
func (c *ShardedCluster) RingEpoch() uint64 { return c.inner.CurrentRing().Epoch() }

// ShardFor returns the index of the partition owning key.
func (c *ShardedCluster) ShardFor(key []byte) int { return c.inner.CurrentRing().Shard(key) }

// AddShard boots one spare partition (a full coordinator + master + F
// backups + F witnesses) and returns its index. It owns no keys until
// Rebalance migrates ranges onto it.
func (c *ShardedCluster) AddShard() (int, error) { return c.inner.AddShard() }

// Rebalance live-migrates key ranges onto every spare partition, one ring
// grow step at a time, without stopping traffic: only the moving ranges
// (≈1/(N+1) of keys per step) briefly bounce-and-retry inside the client
// while their data and exactly-once state transfer; everything else keeps
// its 1-RTT fast path. Clients opened with NewClient re-route
// automatically when the ring epoch flips.
func (c *ShardedCluster) Rebalance(ctx context.Context) error { return c.inner.Rebalance(ctx) }

// RemoveShard drains the highest shard and retires it: the ring shrinks
// one step (restoring the exact mapping from before that shard was
// added), the shard's key ranges live-migrate back onto the survivors —
// same freeze→drain→export→commit handoff as Rebalance, fanning out to
// many targets — and the drained partition shuts down once the shrunk
// ring is published. Clients re-route automatically.
func (c *ShardedCluster) RemoveShard(ctx context.Context) error { return c.inner.RemoveShard(ctx) }

// NewClient opens a client that routes operations across every shard.
func (c *ShardedCluster) NewClient(name string) (*ShardedClient, error) {
	cl, err := c.inner.NewClient(name)
	if err != nil {
		return nil, err
	}
	return &ShardedClient{verbs: cl.Verbs, inner: cl}, nil
}

// CrashMaster simulates a crash of shard s's master; the remaining shards
// keep serving. With SelfHealing set, shard s's coordinator promotes a
// replacement on its own — no Recover call needed.
func (c *ShardedCluster) CrashMaster(s int) { c.inner.CrashMaster(s) }

// CrashWitness simulates a crash of shard s's i-th witness server. With
// SelfHealing set, the shard's coordinator installs a replacement under a
// bumped witness-list version.
func (c *ShardedCluster) CrashWitness(s, i int) { c.inner.CrashWitness(s, i) }

// CrashCoordinatorLeader simulates a crash of the coordinator replica of
// shard s that holds the control-plane leader lease, returning its index.
// With ControlPlaneReplicas ≥ 3 the surviving replicas elect a new leader
// that takes over healing and configuration commits; with a single
// replica the shard keeps serving data but loses reconfiguration until an
// operator intervenes.
func (c *ShardedCluster) CrashCoordinatorLeader(s int) int {
	return c.inner.CrashCoordinatorLeader(s)
}

// WaitHealthy blocks until every partition's nodes are back within their
// heartbeat deadlines — all in-flight automatic failovers have finished —
// or ctx ends. Meaningful only with SelfHealing set.
func (c *ShardedCluster) WaitHealthy(ctx context.Context) error { return c.inner.WaitHealthy(ctx) }

// Recover replaces shard s's crashed master with a fresh server at newAddr
// (any name unused within that shard; it is scoped to the shard, so the
// same name may recover different shards). Completed writes survive.
func (c *ShardedCluster) Recover(s int, newAddr string) error {
	return c.inner.Recover(s, newAddr)
}

// MasterAddrs returns each shard's current master host name, indexed by
// shard.
func (c *ShardedCluster) MasterAddrs() []string {
	parts := c.inner.Partitions()
	addrs := make([]string, 0, len(parts))
	for _, part := range parts {
		addrs = append(addrs, part.CurrentMaster().Addr())
	}
	return addrs
}

// Close shuts every partition down.
func (c *ShardedCluster) Close() { c.inner.Close() }

// nodes snapshots the deployment's ring gauges plus every partition's
// observability bundles, re-fetched per call so failovers and added shards
// appear on the next scrape.
func (c *ShardedCluster) nodes() []cluster.Bundle {
	return append([]cluster.Bundle{{Role: "ring", Metrics: c.ring}}, c.inner.Nodes()...)
}

// MetricsHandler returns an http.Handler serving the whole deployment's
// metrics — ring state plus every partition's coordinator, master,
// backups, and witnesses — in Prometheus text exposition format.
func (c *ShardedCluster) MetricsHandler() http.Handler { return c.obs.Metrics }

// TraceHandler serves every partition's distributed traces (the /trace
// endpoint of Cluster.TraceHandler), each document stamped with its shard.
func (c *ShardedCluster) TraceHandler() http.Handler { return c.obs.Trace }

// EventsHandler serves every partition's flight-recorder journals (the
// /events endpoint of Cluster.EventsHandler).
func (c *ShardedCluster) EventsHandler() http.Handler { return c.obs.Events }

// HotKeysHandler serves every partition master's hot-key sketch (the
// /hotkeys endpoint of Cluster.HotKeysHandler).
func (c *ShardedCluster) HotKeysHandler() http.Handler { return c.obs.HotKeys }

// NodeHandler returns the full observability mux: /metrics, /trace,
// /events, /hotkeys, and (with Options.Profiling) net/http/pprof.
func (c *ShardedCluster) NodeHandler() http.Handler { return c.obs.Mux(c.profiling) }

// WriteMetrics renders the deployment's current metrics to w in
// Prometheus text exposition format.
func (c *ShardedCluster) WriteMetrics(w io.Writer) error {
	return cluster.WriteMetrics(w, c.nodes())
}

// ShardedClient routes key-value operations across a ShardedCluster.
// Single-key operations keep the full single-partition guarantees
// (linearizable, exactly-once, 1-RTT fast path when commutative).
// MultiPut and MultiIncrement are atomic and exactly-once per shard but
// NOT atomic across shards: sub-operations land independently, and a
// failed shard's legs are not rolled back elsewhere — see
// internal/shard.Client for the full contract.
//
// The operations are the promoted verb set shared with Client (listed
// there), each routed to the shard owning its key. Every update verb also
// has a Future-returning async form (PutAsync, ...), and NewPipeline
// batches updates into per-shard coalesced RPCs with automatic re-routing
// across live rebalances; see Pipeline.
type ShardedClient struct {
	verbs
	inner *shard.Client
}

// Close releases the client's connections to every shard.
func (c *ShardedClient) Close() { c.inner.Close() }

// ShardFor returns the index of the shard an operation on key routes to.
func (c *ShardedClient) ShardFor(key []byte) int { return c.inner.ShardOf(key) }

// Stats returns protocol counters summed over every shard's client.
func (c *ShardedClient) Stats() Stats {
	return toStats(c.inner.Stats())
}
