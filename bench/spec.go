package main

// This file is the single declaration of what the benchmark runs and what it
// reports. BENCHMARK.json at the repository root repeats the workload and
// metric tables for the driver; spec_test.go fails if the two disagree.

// runSeconds is the measuring time one invocation is sized for: workload op
// counts below are per round at this value, three rounds per invocation,
// and --seconds scales them linearly. Rounds are defined by op count, not
// by a deadline, because the store's log is never truncated: live heap
// grows with every put, so a time-boxed run measures a different heap on a
// fast machine than on a slow one.
const runSeconds = 10

// rounds is the number of timed rounds per invocation; timing metrics are
// the median of rounds, count metrics their mean.
const rounds = 3

// Warm-up is unrecorded and 10% of the round's ops, but never fewer than
// minWarmOps: every node allocates its span-ring stripes lazily (~90 KB
// each), and on geo-conflict, whose rounds are a few hundred ops, a 10%
// warm-up ended before the backups' stripes existed; the ones that appeared
// during the timed ops swung heap_retained_b_per_op by 5%.
const (
	warmPct    = 10
	minWarmOps = 240
)

// blocksPerRound is how many equal op-count blocks a round is cut into for
// the block-median throughput.
const blocksPerRound = 10

// Key and value sizes are the paper's (§5.1: 30 B keys, 100 B values).
const (
	keySize   = 30
	valueSize = 100
)

type mixKind int

const (
	mixPut      mixKind = iota // uniform Put over the preloaded keys
	mixYCSBA                   // 50/50 Get/Put, scrambled zipfian 0.99
	mixShardTxn                // 80% routed Put, 20% cross-shard transfer Txn
	mixGeo                     // Put fresh, Put again, Increment hot, Increment hot
)

// workloadSpec sizes one workload. Ops is the timed op count of one round
// at runSeconds.
type workloadSpec struct {
	Name string
	Why  string // one line; repeated in BENCHMARK.json

	F         int // backups and witnesses per partition
	Shards    int // 0 boots curp.Start, >0 curp.StartSharded
	LatencyMs int // injected one-way delay in whole milliseconds (the VM's timers fire on a ~1.1 ms grid)
	Depth     int // Pipeline depth; 1 is the blocking verb
	Mix       mixKind
	Preload   int // blob keys written before warm-up
	Accounts  int // counter keys preloaded at accountStart (shard-txn)
	Ops       int
}

const accountStart = 1000

var workloads = []workloadSpec{
	{
		Name: "put-seq",
		Why:  "One blocking Put at a time on an idle F=3 cluster: the fixed per-op cost (4 RPCs, frames, futures, wake-ups) is all of the latency, so hot-path work shows here.",
		F:    3, Depth: 1, Mix: mixPut, Preload: 20000, Ops: 50000,
	},
	{
		Name: "put-pipe16",
		Why:  "Same cluster and keys in depth-16 Pipeline flushes: per-RPC cost is amortised 16x, so the master's serial section, backup sync and GC dominate and RPC-framing work barely moves it.",
		F:    3, Depth: 16, Mix: mixPut, Preload: 20000, Ops: 128000,
	},
	{
		Name: "ycsb-a",
		Why:  "50% Get / 50% Put on scrambled-zipfian hot keys: writes conflict and reads of unsynced keys block on a sync, so sync policy, conflict detection and the read path do the work.",
		F:    3, Depth: 1, Mix: mixYCSBA, Preload: 50000, Ops: 50000,
	},
	{
		Name: "shard-txn",
		Why:  "Two F=1 shards, 80% routed Put and 20% cross-shard transfer Txn: the only workload through shard routing and txn 2PC, which the single-partition workloads bypass.",
		F:    1, Shards: 2, Depth: 1, Mix: mixShardTxn, Preload: 20000, Accounts: 2000, Ops: 40000,
	},
	{
		Name: "geo-conflict",
		Why:  "1 ms injected one-way delay; each 4-op cycle has one designed conflict and two commuting hot increments: delay dominates, so CPU work must not move it while protocol round trips do.",
		F:    3, LatencyMs: 1, Depth: 1, Mix: mixGeo, Preload: 2000, Ops: 800,
	},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// Latency classes a round records separately. A class a workload never
// issues has no samples there and no metric is derived from it.
type latClass int

const (
	classWrite    latClass = iota // Put, fast-path Increment, or one Pipeline flush
	classRead                     // Get
	classTxn                      // Txn build + Commit
	classConflict                 // the designed re-Put of geo-conflict
	numClasses
)

// performs reports whether workload w ever issues operations of class c.
func (w *workloadSpec) performs(c latClass) bool {
	switch c {
	case classWrite:
		return true
	case classRead:
		return w.Mix == mixYCSBA
	case classTxn:
		return w.Mix == mixShardTxn
	case classConflict:
		return w.Mix == mixGeo
	}
	return false
}

// metricSpec declares one reported metric.
type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: allowed worsening of the median, as a share
	Timing bool    // wall-clock metric: median of rounds; otherwise mean of rounds
	// Class, when set, restricts the metric to workloads that perform that
	// latency class; elsewhere the human report omits it and the JSON line
	// the driver reads carries 0, which the README defines as "not
	// performed on this workload".
	Class latClass
	// SinglePartition restricts the metric to workloads booted with
	// curp.Start: the sharded deployment has no public trace endpoint.
	SinglePartition bool
	Help            string
}

// appliesTo reports whether workload w can produce the metric.
func (m *metricSpec) appliesTo(w *workloadSpec) bool {
	return w.performs(m.Class) && !(m.SinglePartition && w.Shards > 0)
}

// endToEnd is what a user of the client library sees. Every one of these is
// defined, and never 0, on every workload (the driver requires each run to
// report all of them), so the latencies that exist on one workload only —
// read, transaction, designed conflict — are per-layer metrics (curp.*).
//
// Bounds are set from measurement on the 2-core reference box, not from
// hope. Count metrics repeat to 0.1-0.6% across ten seeds and carry the tight
// bounds; they are the sensitive guards. Wall-clock metrics spread 5-10% in
// the box's quiet phases and 15-20% in its noisy ones (a two-goroutine
// channel ping-pong alone swings 310-650 ns from second to second), so they
// carry the widest bound the driver accepts, and the 99th percentile, which
// swung 25%, is reported per layer (curp.write_p99_us) instead of gating.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Timing: true,
		Help: "boot + client registration + key-space preload + warm-up + forced GC, median of the rounds"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Timing: true,
		Help: "median throughput of the round's 10 equal op-count blocks, median of rounds; every op of the mix counts"},
	{Name: "write_p50_us", Unit: "us", Better: "lower", Bound: 0.25, Timing: true,
		Help: "median latency of a non-conflicting update call: Put/Increment, or one depth-16 Flush on put-pipe16 (flush start to flush return)"},
	{Name: "fastpath_ratio", Unit: "ratio", Better: "higher", Bound: 0.01,
		Help: "client Stats FastPath / (FastPath+SyncedByMaster+SlowPath) over the timed ops"},
	{Name: "allocs_per_op", Unit: "1/op", Better: "lower", Bound: 0.02,
		Help: "process Mallocs delta over the timed ops / ops (client and servers share the process)"},
	{Name: "alloc_b_per_op", Unit: "B/op", Better: "lower", Bound: 0.02,
		Help: "process TotalAlloc delta over the timed ops / ops"},
	{Name: "heap_retained_b_per_op", Unit: "B/op", Better: "lower", Bound: 0.02,
		Help: "HeapAlloc after a forced GC at the end of the timed ops minus the same before them, / ops: what the never-truncated logs keep"},
}

// perLayer metrics have no bound; they say where a change landed. The
// layer is the module name before the dot. Three sources: the layer loops
// of layers.go (workload-independent), the program's own counters read as
// deltas of the public Prometheus exposition over the traced round, and the
// traced round's spans. README.md maps each to the end-to-end metric it
// should move.
var perLayer = []metricSpec{
	// transport
	{Name: "transport.hop_ns", Unit: "ns", Better: "lower", Timing: true, Help: "one 256 B hop over a zero-delay memnet connection (half a ping-pong)"},
	{Name: "transport.hop_allocs", Unit: "1/op", Better: "lower", Help: "allocations per hop"},
	{Name: "transport.timer_floor_us", Unit: "us", Better: "lower", Timing: true, Help: "effective one-way hop with 1 ms injected delay: the machine's timer grid"},
	// rpc
	{Name: "rpc.echo_ns", Unit: "ns", Better: "lower", Timing: true, Help: "rpc.Client.Call echo of 256 B over memnet"},
	{Name: "rpc.echo_allocs", Unit: "1/op", Better: "lower", Help: "allocations per echo call (client and server)"},
	{Name: "rpc.echo_b", Unit: "B/op", Better: "lower", Help: "bytes allocated per echo call"},
	{Name: "rpc.echo_par8_ns", Unit: "ns", Better: "lower", Timing: true, Help: "wall time per echo call with 8 in flight on one connection"},
	// kv
	{Name: "kv.cmd_encode_ns", Unit: "ns", Better: "lower", Timing: true, Help: "kv.Command.Encode of a 30 B/100 B Put"},
	{Name: "kv.cmd_decode_ns", Unit: "ns", Better: "lower", Timing: true, Help: "kv.DecodeCommand of the same"},
	{Name: "kv.cmd_codec_allocs", Unit: "1/op", Better: "lower", Help: "allocations of one encode plus one decode"},
	{Name: "kv.apply_put_ns", Unit: "ns", Better: "lower", Timing: true, Help: "Store.Apply of a decoded Put over a 20 k-key working set"},
	{Name: "kv.apply_put_allocs", Unit: "1/op", Better: "lower", Help: "allocations per applied Put"},
	{Name: "kv.get_ns", Unit: "ns", Better: "lower", Timing: true, Help: "Store.Get"},
	{Name: "kv.backup_append_ns", Unit: "ns", Better: "lower", Timing: true, Help: "Backup.Append per entry, batches of 50"},
	{Name: "kv.retained_b_per_put", Unit: "B/op", Better: "lower", Help: "heap the store keeps per applied Put (object + never-truncated log entry)"},
	// witness
	{Name: "witness.record_gc_ns", Unit: "ns", Better: "lower", Timing: true, Help: "Witness.Record plus one GC per 50 records"},
	{Name: "witness.record_allocs", Unit: "1/op", Better: "lower", Help: "allocations per record"},
	{Name: "witness.recordbatch16_ns", Unit: "ns", Better: "lower", Timing: true, Help: "per record, RecordBatch of 16 plus their GC"},
	{Name: "witness.rejects_per_kop", Unit: "1/kop", Better: "lower", Help: "witness record rejections (all reasons, all witnesses) per 1000 ops of the traced round"},
	{Name: "witness.gc_drops_per_kop", Unit: "1/kop", Better: "higher", Help: "records the masters' GC dropped (all witnesses) per 1000 ops of the traced round"},
	// rifl
	{Name: "rifl.begin_record_ns", Unit: "ns", Better: "lower", Timing: true, Help: "Tracker.Begin + Record of a fresh RPC with a piggybacked ack"},
	{Name: "rifl.session_ns", Unit: "ns", Better: "lower", Timing: true, Help: "Session.NextID + Ack + Finish"},
	// core
	{Name: "core.conflict_check_ns", Unit: "ns", Better: "lower", Timing: true, Help: "MasterState.Conflicts + NoteMutation, NoteSync every 50"},
	{Name: "core.client_update_ns", Unit: "ns", Better: "lower", Timing: true, Help: "core.Client.Update against in-process stub master and 3 stub witnesses: the async engine alone"},
	{Name: "core.client_update_allocs", Unit: "1/op", Better: "lower", Help: "allocations of the same"},
	{Name: "core.client_batch16_ns", Unit: "ns", Better: "lower", Timing: true, Help: "per op, UpdateBatchAsync of 16 against the stubs"},
	// cluster
	{Name: "cluster.put_ns", Unit: "ns", Better: "lower", Timing: true, Help: "cluster.Client.Put on an F=3 partition (curp.Client.Put minus its wrapper)"},
	{Name: "cluster.put_allocs", Unit: "1/op", Better: "lower", Help: "allocations of the same"},
	{Name: "cluster.syncs_per_kop", Unit: "1/kop", Better: "lower", Help: "master backup syncs per 1000 ops of the traced round"},
	{Name: "cluster.sync_batch_entries_mean", Unit: "count", Better: "higher", Help: "log entries per backup sync"},
	{Name: "cluster.sync_mean_us", Unit: "us", Better: "lower", Timing: true, Help: "mean master sync duration"},
	{Name: "cluster.conflict_syncs_per_kop", Unit: "1/kop", Better: "lower", Help: "syncs forced by a commutativity conflict per 1000 ops"},
	{Name: "cluster.hotkey_syncs_per_kop", Unit: "1/kop", Better: "lower", Help: "preemptive hot-key syncs per 1000 ops"},
	{Name: "cluster.read_blocks_per_kop", Unit: "1/kop", Better: "lower", Help: "reads that waited for a sync per 1000 ops"},
	{Name: "cluster.backup_append_mean_us", Unit: "us", Better: "lower", Timing: true, Help: "mean backup append RPC handling time"},
	{Name: "cluster.master_update_mean_us", Unit: "us", Better: "lower", Timing: true, Help: "mean master-side update (or update batch) handling time"},
	// shard
	{Name: "shard.ring_lookup_ns", Unit: "ns", Better: "lower", Timing: true, Help: "Ring.Shard on a 2-shard ring"},
	{Name: "shard.route_overhead_ns", Unit: "ns", Better: "lower", Timing: true, Help: "median Put through StartSharded{Shards:1,F:1} minus median Put through Start{F:1}"},
	// txn
	{Name: "txn.single_shard_commit_us", Unit: "us", Better: "lower", Timing: true, Help: "median two-increment Txn build + Commit on one partition"},
	{Name: "txn.cross_shard_commit_us", Unit: "us", Better: "lower", Timing: true, Help: "the same across two shards (2PC)"},
	// dstore
	{Name: "dstore.set_ns", Unit: "ns", Better: "lower", Timing: true, Help: "DurableCache.Set"},
	{Name: "dstore.set_allocs", Unit: "1/op", Better: "lower", Help: "allocations of the same"},
	{Name: "dstore.fsyncs_per_kop", Unit: "1/kop", Better: "lower", Help: "AOF fsyncs per 1000 Sets"},
	{Name: "dstore.retained_b_per_op", Unit: "B/op", Better: "lower", Help: "heap kept per Set"},
	// metrics / events: the always-on observability share of a put
	{Name: "metrics.span_record_ns", Unit: "ns", Better: "lower", Timing: true, Help: "Collector.RecordSpan under a live trace"},
	{Name: "metrics.hist_observe_ns", Unit: "ns", Better: "lower", Timing: true, Help: "Histogram.Observe"},
	{Name: "events.journal_emit_ns", Unit: "ns", Better: "lower", Timing: true, Help: "Journal.Record"},
	{Name: "events.topk_observe_ns", Unit: "ns", Better: "lower", Timing: true, Help: "TopK.Observe"},
	// curp: the public client, from the untraced reference round
	{Name: "curp.ops_per_s_wall", Unit: "1/s", Better: "higher", Timing: true, Help: "timed ops / summed block time: the mean rate, GC phases included"},
	{Name: "curp.write_mean_us", Unit: "us", Better: "lower", Timing: true, Help: "mean of the write samples"},
	{Name: "curp.write_p99_us", Unit: "us", Better: "lower", Timing: true, Help: "99th percentile of the write samples (at least 10 samples beyond it on every workload but geo-conflict)"},
	{Name: "curp.write_p999_us", Unit: "us", Better: "lower", Timing: true, Help: "99.9th percentile of the write samples"},
	{Name: "curp.read_p50_us", Unit: "us", Better: "lower", Timing: true, Class: classRead, Help: "median Get (ycsb-a)"},
	{Name: "curp.read_p99_us", Unit: "us", Better: "lower", Timing: true, Class: classRead, Help: "99th percentile Get (ycsb-a)"},
	{Name: "curp.txn_p50_us", Unit: "us", Better: "lower", Timing: true, Class: classTxn, Help: "median cross-shard transfer Txn (shard-txn)"},
	{Name: "curp.txn_p99_us", Unit: "us", Better: "lower", Timing: true, Class: classTxn, Help: "99th percentile of the same"},
	{Name: "curp.conflict_p50_us", Unit: "us", Better: "lower", Timing: true, Class: classConflict, Help: "median designed re-Put (geo-conflict)"},
	{Name: "curp.fast_write_rtts", Unit: "rtt", Better: "lower", Timing: true, Help: "write p50 / RTT of an rpc echo under the workload's latency model"},
	{Name: "curp.conflict_write_rtts", Unit: "rtt", Better: "lower", Timing: true, Class: classConflict, Help: "conflict p50 / the same RTT (the paper's claim is 2)"},
	// runtime / host
	{Name: "runtime.cpu_us_per_op", Unit: "us", Better: "lower", Timing: true, Help: "process CPU time (rusage, user+system) per timed op"},
	{Name: "runtime.gc_cpu_fraction", Unit: "ratio", Better: "lower", Help: "share of the process's CPU spent in GC so far (MemStats.GCCPUFraction)"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower", Help: "GC cycles during the timed ops"},
	{Name: "runtime.heap_end_mb", Unit: "MB", Better: "lower", Help: "live heap after the timed ops and a forced GC"},
	{Name: "host.spin_ms", Unit: "ms", Better: "lower", Timing: true, Help: "fixed single-thread arithmetic kernel, timed before the round"},
	{Name: "host.nproc", Unit: "count", Better: "higher", Help: "CPUs the process may use"},
	// trace: the program's own PR 9 spans read through Cluster.TraceHandler
	{Name: "trace.client_span_us", Unit: "us", Better: "lower", Timing: true, Help: "the benchmark's own client span, mean over the median band of traced ops"},
	{Name: "trace.master_queue_us", Unit: "us", Better: "lower", Timing: true, SinglePartition: true, Help: "self time of master-queue (execMu wait) in those ops"},
	{Name: "trace.apply_us", Unit: "us", Better: "lower", Timing: true, SinglePartition: true, Help: "self time of apply"},
	{Name: "trace.witness_record_us", Unit: "us", Better: "lower", Timing: true, SinglePartition: true, Help: "self time of witness-record (not overlapped by a later-starting span)"},
	{Name: "trace.sync_wait_us", Unit: "us", Better: "lower", Timing: true, SinglePartition: true, Help: "self time of sync-wait"},
	{Name: "trace.backup_append_us", Unit: "us", Better: "lower", Timing: true, SinglePartition: true, Help: "self time of backup-append"},
	{Name: "trace.residual_ratio", Unit: "ratio", Better: "lower", SinglePartition: true, Help: "share of the client span no program span covers: framing, memnet hops, futures, wake-ups"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "higher", Help: "traced round ops_per_s / untraced reference round ops_per_s"},
}

func findMetric(list []metricSpec, name string) *metricSpec {
	for i := range list {
		if list[i].Name == name {
			return &list[i]
		}
	}
	return nil
}
