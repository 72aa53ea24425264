// Package curp is a Go implementation of CURP — the Consistent Unordered
// Replication Protocol (Park & Ousterhout, NSDI 2019) — together with the
// storage substrates the paper evaluates it on.
//
// CURP completes strongly consistent (linearizable) updates in one round
// trip by separating durability from ordering: clients record each update
// on f witnesses in parallel with sending it to the master, and the master
// replies before replicating to its backups as long as the update commutes
// with every other speculative update. Non-commutative updates fall back
// to a synchronous backup sync (two round trips). After a master crash,
// the new master restores from a backup and replays one witness; RIFL
// exactly-once semantics filter duplicates.
//
// The package exposes:
//
//   - Start: boot a complete single-partition cluster (coordinator, one
//     master, f backups, f witnesses) on an in-memory network with
//     optional latency injection — the quickest way to use and test the
//     protocol. The same servers run over TCP via cmd/curpd.
//   - Client: a key-value client with 1-RTT Put/Delete/Increment/CondPut/
//     MultiPut/MultiIncrement, linearizable Get, GetNearby (consistent
//     reads from a backup guarded by a witness commutativity probe, paper
//     §A.1), and GetStale (non-blocking reads of the latest durable value,
//     paper §A.3). Every update verb also has a Future-returning async
//     form (PutAsync, ...), and Pipeline batches updates into coalesced
//     RPCs — one UpdateBatch per master, one RecordBatch per witness —
//     while each operation keeps its own 1-RTT completion rule. The
//     blocking verbs are thin wrappers over the same async engine.
//   - DurableCache: a Redis-like data-structure store (strings, hashes,
//     counters, lists, sets) made durable at cache speed by CURP
//     (paper §5.4).
//
// Deeper layers live in internal/: the protocol core, the witness and
// RIFL components, the cluster runtime, a consensus (§A.2) extension, and
// the discrete-event simulator that regenerates the paper's figures (see
// cmd/curpbench).
package curp

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"curp/internal/cluster"
	"curp/internal/commute"
	"curp/internal/core"
	"curp/internal/dstore"
	"curp/internal/kv"
	"curp/internal/metrics"
	"curp/internal/rifl"
	"curp/internal/transport"
	"curp/internal/witness"
)

// Options configures a cluster started with Start or StartSharded.
type Options struct {
	// F is the fault-tolerance level: the cluster runs F backups and F
	// witnesses and stays available with F failures. Default 3 (the
	// paper's standard configuration).
	F int
	// Shards is the number of independent CURP partitions booted by
	// StartSharded (ignored by Start). Default 1.
	Shards int
	// SyncBatchSize is the number of speculative operations that triggers
	// a background backup sync (default 50, the paper's ceiling).
	SyncBatchSize int
	// WitnessSlots and WitnessWays size each witness (defaults 4096 and
	// 4, the paper's geometry).
	WitnessSlots, WitnessWays int
	// MaxPipelineDepth, when set, autosizes the witness capacity to the
	// client pipelining the deployment expects: WitnessWays is raised (if
	// not set explicitly) to the next power of two holding that many
	// concurrent same-key records, and the master preemptively syncs when
	// one key's run of commuting speculative updates approaches that
	// capacity — so a pipelined hot counter never stalls on witness-full
	// rejections.
	MaxPipelineDepth int
	// Latency optionally injects a one-way network delay between every
	// pair of distinct simulated hosts (e.g. to emulate geo-replication).
	Latency func(from, to string) time.Duration
	// AdaptiveFlush replaces the master's fixed unsynced-count flush
	// threshold with a load-adaptive one: short batches under light load
	// (low durability lag), batches toward SyncBatchSize under burst
	// (amortized backup RPCs). Reported in master stats and on
	// heartbeats.
	AdaptiveFlush bool
	// SelfHealing makes the cluster heal itself: masters, backups, and
	// witnesses heartbeat their coordinator, which detects failures and
	// drives automatic master failover and witness replacement — a
	// CrashMaster no longer needs a Recover call. See the FailoverEvent
	// stream (OnFailover) and WaitHealthy.
	SelfHealing bool
	// HeartbeatInterval is the self-healing beat cadence (default 25ms).
	HeartbeatInterval time.Duration
	// FailoverAfter is the heartbeat silence after which a node is
	// declared dead (default 8× HeartbeatInterval).
	FailoverAfter time.Duration
	// OnFailover observes self-healing events (detection, promotion,
	// witness replacement), tagged with the shard index (0 for Start).
	// Called from coordinator goroutines; must not block.
	OnFailover func(FailoverEvent)
	// ControlPlaneReplicas replicates the coordinator itself: a 2f+1
	// quorum drives all configuration state (membership, epochs, witness
	// lists, heal verdicts) through a consensus log, any replica serves
	// views, and only the leader-lease holder may heal — so the control
	// plane survives f coordinator failures with no operator input.
	// 0 or 1 boots the classic single coordinator.
	ControlPlaneReplicas int
	// ControlPlaneElectionTimeout tunes coordinator leader-failure
	// detection (library default when zero; tests shrink it).
	ControlPlaneElectionTimeout time.Duration
	// TraceThreshold tunes tail-based trace sampling: any distributed
	// trace containing a span at least this slow is promoted (kept for
	// /trace and curpctl trace). Zero keeps only the default promotion
	// rules — errors, conflict syncs, lock waits, and redirects.
	TraceThreshold time.Duration
	// Profiling mounts net/http/pprof on NodeHandler (and, through
	// cmd/curpd's -pprof flag, on every node's metrics endpoint).
	Profiling bool
}

// FailoverEvent describes one self-healing action (Options.OnFailover).
type FailoverEvent struct {
	// Shard is the partition index (always 0 for single-partition
	// clusters).
	Shard int
	// Kind names the action: "master-failover", "witness-replaced",
	// "backup-replaced", or a "-failed" variant that will be retried.
	Kind string
	// OldAddr is the dead node; NewAddr its replacement (success events).
	OldAddr, NewAddr string
	// Epoch and WitnessListVersion are the partition's post-heal values.
	Epoch, WitnessListVersion uint64
	// Window is detection → published replacement.
	Window time.Duration
	// Err is the failure cause on "-failed" events.
	Err error
}

// toFailoverEvent converts the internal event form.
func toFailoverEvent(shard int, ev cluster.FailoverEvent) FailoverEvent {
	return FailoverEvent{
		Shard:              shard,
		Kind:               ev.Kind.String(),
		OldAddr:            ev.OldAddr,
		NewAddr:            ev.NewAddr,
		Epoch:              ev.Epoch,
		WitnessListVersion: ev.WitnessListVersion,
		Window:             ev.Window,
		Err:                ev.Err,
	}
}

// Stats summarizes a client's protocol outcomes.
type Stats struct {
	// FastPath is the number of updates completed in 1 RTT.
	FastPath uint64
	// SyncedByMaster is the number completed in 2 RTTs because the master
	// synced before replying (commutativity conflict).
	SyncedByMaster uint64
	// SlowPath is the number that needed an explicit sync RPC.
	SlowPath uint64
	// Retries counts operation restarts after crashes or stale views.
	Retries uint64
	// BackupReads and MasterReads split GetNearby outcomes.
	BackupReads, MasterReads uint64
	// Redirects counts operations bounced to another shard by a ring
	// change (rebalancing); the routing layer retried them transparently.
	Redirects uint64
	// TxnCommits and TxnAborts count transaction outcomes through this
	// client; TxnOrphanResolutions are aborts recorded by a lock-timeout
	// resolver after the coordinator went silent (presumed abort).
	TxnCommits, TxnAborts, TxnOrphanResolutions uint64
	// PipelineDepth is the number of async operations currently in flight
	// (futures issued and not yet completed).
	PipelineDepth uint64
}

// Cluster is a running CURP deployment for one data partition.
type Cluster struct {
	inner *cluster.Cluster
	net   *transport.MemNetwork
	opts  Options
	// obs serves every node's instruments, re-fetched per request.
	obs cluster.Endpoints
}

// memNetwork builds the in-memory network for Start/StartSharded, wiring
// the optional latency model.
func memNetwork(opts Options) *transport.MemNetwork {
	var lat transport.LatencyModel
	if opts.Latency != nil {
		fn := opts.Latency
		lat = transport.LatencyFunc(func(from, to string, _ int) time.Duration {
			if from == to {
				return 0
			}
			return fn(from, to)
		})
	}
	return transport.NewMemNetwork(lat)
}

// clusterOptions translates the public Options into one partition's
// cluster.Options.
func clusterOptions(opts Options) cluster.Options {
	copts := cluster.DefaultOptions()
	if opts.F > 0 {
		copts.F = opts.F
	}
	if opts.SyncBatchSize > 0 {
		copts.Master.Core.SyncBatchSize = opts.SyncBatchSize
	}
	if opts.WitnessSlots > 0 {
		copts.Witness.Slots = opts.WitnessSlots
	}
	if opts.WitnessWays > 0 {
		copts.Witness.Ways = opts.WitnessWays
	} else if opts.MaxPipelineDepth > 0 {
		// Autosize the associativity to the expected pipelining: a client
		// keeping depth operations in flight on one hot key needs that many
		// concurrent same-key records per witness set. Powers of two keep
		// Slots divisible by Ways; 64 caps the per-set scan cost.
		ways := copts.Witness.Ways
		for ways < opts.MaxPipelineDepth && ways < 64 {
			ways *= 2
		}
		copts.Witness.Ways = ways
	}
	if copts.Witness.Slots < copts.Witness.Ways {
		copts.Witness.Slots = copts.Witness.Ways
	}
	if opts.MaxPipelineDepth > 0 {
		// Sync one step before the set fills, so the slot freed by the GC
		// that follows the sync absorbs the burst's next record.
		copts.Master.Core.WitnessBurstLimit = copts.Witness.Ways
	}
	copts.Master.Core.AdaptiveFlush = opts.AdaptiveFlush
	if opts.SelfHealing {
		copts.Health = &cluster.HealthOptions{
			HeartbeatInterval: opts.HeartbeatInterval,
			FailAfter:         opts.FailoverAfter,
		}
	}
	copts.ControlPlaneReplicas = opts.ControlPlaneReplicas
	copts.ControlPlaneElectionTimeout = opts.ControlPlaneElectionTimeout
	copts.TraceThreshold = opts.TraceThreshold
	return copts
}

// Start boots a cluster on an in-memory network: a coordinator, one
// master, F backups, and F witness servers.
func Start(opts Options) (*Cluster, error) {
	nw := memNetwork(opts)
	copts := clusterOptions(opts)
	if copts.Health != nil && opts.OnFailover != nil {
		cb := opts.OnFailover
		copts.Health.OnEvent = func(ev cluster.FailoverEvent) { cb(toFailoverEvent(0, ev)) }
	}
	inner, err := cluster.Start(nw, copts)
	if err != nil {
		return nil, err
	}
	return &Cluster{inner: inner, net: nw, opts: opts, obs: cluster.EndpointsOver(inner.Nodes)}, nil
}

// NewClient opens a client. name identifies the client host on the
// simulated network (it matters when Latency is configured).
func (c *Cluster) NewClient(name string) (*Client, error) {
	cl, err := c.inner.NewClient(name)
	if err != nil {
		return nil, err
	}
	cl.Trace().SetThreshold(c.opts.TraceThreshold)
	return &Client{verbs: cl.Verbs, inner: cl}, nil
}

// CrashMaster simulates a master crash: its connections reset and the
// process stops. Completed updates remain recoverable. With SelfHealing
// set, the coordinator detects the crash and promotes a replacement on
// its own — no Recover call needed.
func (c *Cluster) CrashMaster() { c.inner.CrashMaster() }

// CrashWitness simulates a crash of the i-th witness server. With
// SelfHealing set, the coordinator installs a replacement under a bumped
// witness-list version; updates keep completing throughout (the slow
// path covers the gap).
func (c *Cluster) CrashWitness(i int) { c.inner.CrashWitness(i) }

// WaitHealthy blocks until every node of the cluster is back within its
// heartbeat deadline — any in-flight automatic failover has finished —
// or ctx ends. Meaningful only with SelfHealing set.
func (c *Cluster) WaitHealthy(ctx context.Context) error { return c.inner.WaitHealthy(ctx) }

// Recover replaces the crashed master with a fresh server at newAddr
// (any previously unused host name), restoring from backups and replaying
// a witness (paper §3.3).
func (c *Cluster) Recover(newAddr string) error {
	_, err := c.inner.Recover(newAddr)
	return err
}

// MasterAddr returns the current master's host name (under SelfHealing
// the heal loop may have promoted a replacement).
func (c *Cluster) MasterAddr() string { return c.inner.CurrentMaster().Addr() }

// WitnessAddrs returns the witness servers' host names, including spares
// booted by the heal loop.
func (c *Cluster) WitnessAddrs() []string {
	ws := c.inner.WitnessServers()
	addrs := make([]string, 0, len(ws))
	for _, w := range ws {
		addrs = append(addrs, w.Addr())
	}
	return addrs
}

// BackupAddrs returns the backup servers' host names.
func (c *Cluster) BackupAddrs() []string {
	addrs := make([]string, 0, len(c.inner.Backups))
	for _, b := range c.inner.Backups {
		addrs = append(addrs, b.Addr())
	}
	return addrs
}

// Close shuts every server down.
func (c *Cluster) Close() { c.inner.Close() }

// MetricsHandler returns an http.Handler serving the whole partition's
// metrics — coordinator, master, backups, witnesses — in Prometheus text
// exposition format. Embedded deployments mount it wherever they like:
//
//	http.Handle("/metrics", cl.MetricsHandler())
//
// Registries are re-fetched per request, so a self-healing failover that
// promotes a replacement master is reflected on the next scrape.
func (c *Cluster) MetricsHandler() http.Handler { return c.obs.Metrics }

// TraceHandler returns an http.Handler serving the partition's distributed
// traces (the /trace endpoint): GET lists every node's promoted traces,
// GET ?id=<trace id> merges one trace's spans across all nodes. Traces are
// tail-sampled — see Options.TraceThreshold.
func (c *Cluster) TraceHandler() http.Handler { return c.obs.Trace }

// EventsHandler returns an http.Handler serving the partition's flight
// recorder (the /events endpoint): the structured event journal of every
// node — elections, lease transitions, failover stages, migrations, epoch
// flips, fencings, anomaly verdicts — merged and causally ordered.
// Journals are re-fetched per request, so a failover's replacement master
// appears on the next read. GET ?after=<seq>&node=<addr> resumes an
// incremental tail (curpctl events --follow).
func (c *Cluster) EventsHandler() http.Handler { return c.obs.Events }

// HotKeysHandler returns an http.Handler serving the partition's key-space
// analytics (the /hotkeys endpoint): the master's space-saving top-K
// sketch of the hottest key hashes, with per-key count and error bounds.
func (c *Cluster) HotKeysHandler() http.Handler { return c.obs.HotKeys }

// NodeHandler returns the full observability mux for an embedded
// deployment: /metrics, /trace, /events, /hotkeys, and (with
// Options.Profiling) the net/http/pprof suite — the same endpoint layout
// every curpd node serves.
func (c *Cluster) NodeHandler() http.Handler { return c.obs.Mux(c.opts.Profiling) }

// WriteMetrics renders the partition's current metrics to w in Prometheus
// text exposition format (the non-HTTP form of MetricsHandler — benchmark
// snapshots, debugging).
func (c *Cluster) WriteMetrics(w io.Writer) error {
	return cluster.WriteMetrics(w, c.inner.Nodes())
}

// Client is a CURP key-value client for one partition.
//
// Its operations are the promoted verb set shared with ShardedClient (one
// definition each, in internal/kv): the 1-RTT updates Put, PutTTL, Delete,
// Increment, CondPut, Append, SetAdd, SetRemove, BucketTake, MultiPut and
// MultiIncrement; the reads Get (linearizable), GetNearby (paper §A.1),
// GetStale (paper §A.3) and SetMembers; a Future-returning ...Async form
// of every update; and NewPipeline.
type Client struct {
	verbs
	inner *cluster.Client
}

// verbs is the typed operation set both clients embed.
type verbs = kv.Verbs

// Close releases the client's connections.
func (c *Client) Close() { c.inner.Close() }

// toStats converts the internal counters to the public Stats type.
func toStats(s core.ClientStats) Stats {
	return Stats{
		FastPath:             s.FastPath,
		SyncedByMaster:       s.SyncedByMaster,
		SlowPath:             s.SlowPath,
		Retries:              s.Retries,
		BackupReads:          s.BackupReads,
		MasterReads:          s.MasterReads,
		Redirects:            s.Redirects,
		TxnCommits:           s.TxnCommits,
		TxnAborts:            s.TxnAborts,
		TxnOrphanResolutions: s.TxnOrphanResolves,
		PipelineDepth:        s.InFlight,
	}
}

// Stats returns the client's protocol counters.
func (c *Client) Stats() Stats {
	return toStats(c.inner.Stats())
}

// TraceAll switches this client to 100% trace sampling: every operation's
// trace is promoted regardless of outcome or latency. For debugging and
// overhead measurement — the default tail sampling keeps only interesting
// traces.
func (c *Client) TraceAll() { c.inner.SetTraceFlags(metrics.TraceFlagForce) }

// DurableCache is a Redis-like in-memory data-structure store made durable
// and consistent by CURP (paper §5.4): commands complete without waiting
// for the append-only file to fsync, because each command is recorded on
// witnesses in parallel; the AOF is flushed in the background.
type DurableCache struct {
	engine    *dstore.Engine
	witnesses []*witness.Witness
	client    *core.Client
	dev       *dstore.MemDevice
	copts     cluster.Options // resolved configuration, reused by RecoverCache
}

// NewDurableCache creates a cache configured exactly like Start configures
// a cluster: opts.F witnesses (default 3), opts.SyncBatchSize as the
// fsync batching ceiling, the §4.4 hot-key heuristic, and
// opts.WitnessSlots/WitnessWays for witness geometry. The zero Options
// value gives the paper's defaults.
func NewDurableCache(opts Options) (*DurableCache, error) {
	return newCache(clusterOptions(opts), nil, nil, 1)
}

// newCache assembles a cache from resolved options, optionally replaying a
// durable log and a witness (the RecoverCache path).
func newCache(copts cluster.Options, durableLog []byte, replayWitness *witness.Witness, session rifl.ClientID) (*DurableCache, error) {
	dev := &dstore.MemDevice{}
	var engine *dstore.Engine
	if durableLog == nil && replayWitness == nil {
		engine = dstore.NewEngine(1, dstore.NewAOF(dev, dstore.FsyncOnDemand), copts.Master.Core)
	} else {
		var err error
		engine, err = dstore.Recover(1, durableLog, replayWitness, dstore.NewAOF(dev, dstore.FsyncOnDemand), copts.Master.Core)
		if err != nil {
			return nil, err
		}
	}
	view := &core.View{MasterID: 1, WitnessListVersion: 1, Master: engine}
	var ws []*witness.Witness
	for i := 0; i < copts.F; i++ {
		w, err := witness.New(1, copts.Witness)
		if err != nil {
			engine.Close()
			return nil, fmt.Errorf("curp: durable cache witness: %w", err)
		}
		ws = append(ws, w)
		view.Witnesses = append(view.Witnesses, core.WitnessAdapter{W: w})
	}
	engine.AttachWitnesses(ws)
	client := core.NewClient(rifl.NewSession(session), core.StaticView{V: view}, core.DefaultClientConfig())
	return &DurableCache{engine: engine, witnesses: ws, client: client, dev: dev, copts: copts}, nil
}

func (d *DurableCache) do(ctx context.Context, cmd *dstore.Command) (*dstore.Result, error) {
	var out []byte
	var err error
	if cmd.IsReadOnly() {
		out, err = d.client.Read(ctx, cmd.KeyHashes(), cmd.Encode())
	} else {
		out, err = d.client.Update(ctx, cmd.KeyHashes(), cmd.Encode(), commute.ClassWrite)
	}
	if err != nil {
		return nil, err
	}
	return dstore.DecodeResult(out)
}

// Set stores a string value.
func (d *DurableCache) Set(ctx context.Context, key, value []byte) error {
	_, err := d.do(ctx, &dstore.Command{Op: dstore.OpSet, Key: key, Value: value})
	return err
}

// Get reads a string value.
func (d *DurableCache) Get(ctx context.Context, key []byte) (value []byte, ok bool, err error) {
	res, err := d.do(ctx, &dstore.Command{Op: dstore.OpGet, Key: key})
	if err != nil {
		return nil, false, err
	}
	return res.Value, res.Found, nil
}

// Incr adds delta to the counter at key and returns the new value.
func (d *DurableCache) Incr(ctx context.Context, key []byte, delta int64) (int64, error) {
	res, err := d.do(ctx, &dstore.Command{Op: dstore.OpIncr, Key: key, Delta: delta})
	if err != nil {
		return 0, err
	}
	// strconv.ParseInt, not Sscanf: Sscanf accepts trailing garbage
	// ("12abc" parses as 12), hiding engine encoding bugs.
	return strconv.ParseInt(string(res.Value), 10, 64)
}

// HSet stores a hash field.
func (d *DurableCache) HSet(ctx context.Context, key, field, value []byte) error {
	_, err := d.do(ctx, &dstore.Command{Op: dstore.OpHMSet, Key: key, Field: field, Value: value})
	return err
}

// HGet reads a hash field.
func (d *DurableCache) HGet(ctx context.Context, key, field []byte) (value []byte, ok bool, err error) {
	res, err := d.do(ctx, &dstore.Command{Op: dstore.OpHGet, Key: key, Field: field})
	if err != nil {
		return nil, false, err
	}
	return res.Value, res.Found, nil
}

// RPush appends to the list at key and returns the new length.
func (d *DurableCache) RPush(ctx context.Context, key, value []byte) (int64, error) {
	res, err := d.do(ctx, &dstore.Command{Op: dstore.OpRPush, Key: key, Value: value})
	if err != nil {
		return 0, err
	}
	return res.N, nil
}

// LRange returns list elements in [start, stop] (negative = from tail).
func (d *DurableCache) LRange(ctx context.Context, key []byte, start, stop int64) ([][]byte, error) {
	res, err := d.do(ctx, &dstore.Command{Op: dstore.OpLRange, Key: key, Start: start, Stop: stop})
	if err != nil {
		return nil, err
	}
	return res.Values, nil
}

// Stats returns the cache client's protocol counters.
func (d *DurableCache) Stats() Stats {
	return toStats(d.client.Stats())
}

// Fsyncs returns how many times the AOF was flushed — the cost CURP moved
// off the critical path.
func (d *DurableCache) Fsyncs() int { return d.dev.SyncCount }

// Close stops the cache's resident background syncer. The cache must not
// be used afterwards.
func (d *DurableCache) Close() { d.engine.Close() }

// Crash simulates a process crash, returning the durable AOF prefix: the
// un-fsynced tail is lost, exactly what CURP's witnesses protect against.
func (d *DurableCache) Crash() (durableLog []byte) { return d.dev.DurableBytes() }

// RecoverCache rebuilds a cache after Crash: replay the durable log, then
// replay the witness (exactly-once via RIFL). The witness freezes, so
// clients of the old instance can no longer complete updates. The new
// cache inherits the crashed cache's full configuration — fault
// tolerance, sync policy (including the hot-key heuristic), and witness
// geometry — instead of silently reverting to defaults.
func RecoverCache(durableLog []byte, from *DurableCache) (*DurableCache, error) {
	return newCache(from.copts, durableLog, from.witnesses[0], 2)
}
