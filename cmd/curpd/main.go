// Command curpd runs CURP servers over TCP.
//
// All-in-one cluster (coordinator + master + f backups + f witnesses) on
// sequential ports:
//
//	curpd -mode cluster -host 127.0.0.1 -port 7000 -f 3
//
// Sharded deployment — N independent partitions, shard s occupying the
// port block base+s*1000 (so clients derive every shard's coordinator from
// the base port; see curpctl -shards):
//
//	curpd -mode cluster -host 127.0.0.1 -port 7000 -f 3 -shards 4
//
// Partitions beyond the routing ring clients use are spare capacity: boot
// -shards 4, route with curpctl -shards 3, then grow the ring live with
// `curpctl rebalance 3 4` — keys migrate onto shard 3 without downtime.
//
// Replicated control plane: -coordinators N (default 1) boots N
// coordinator replicas per partition — replica 0 on the base port,
// replica i on base+1+i (so 3 replicas occupy base, base+2, base+3). The
// replicas run a consensus-backed quorum: any replica answers view,
// health, and client-registration RPCs, mutations commit through the
// leader's replicated log, and heal actions run only on the replica
// holding the leader lease, so killing the leader never loses
// configuration state and never double-deposes a master. Size N as 2f+1
// to tolerate f coordinator failures:
//
//	curpd -mode cluster -host 127.0.0.1 -port 7000 -f 3 -coordinators 3
//
// SIGUSR1 is a failover drill: a running cluster-mode curpd crashes each
// shard's current coordinator leader replica, leaving the survivors to
// elect a replacement (scripts/controlplane_smoke.sh exercises this).
//
// Cluster mode is self-healing by default (-self-heal=true): every server
// heartbeats its shard's coordinator replicas, which detect a dead master
// or witness and replace it automatically — promoted masters take spare
// ports in the block (base+300+, replacement witnesses base+400+), and
// `curpctl status` shows the live membership, epochs, quorum leadership,
// and heartbeat ages.
// Masters also default to the load-adaptive flush policy
// (-adaptive-flush=true): short sync batches under light load, batches up
// to -batch under burst.
//
// Standalone component servers for spreading a deployment across machines:
//
//	curpd -mode backup  -addr 10.0.0.2:7101
//	curpd -mode witness -addr 10.0.0.3:7201
//	curpd -mode master -addr 10.0.0.1:7001 \
//	      -backups 10.0.0.2:7101 -witnesses 10.0.0.3:7201
//
// Standalone masters self-configure their witness list at version 1; use
// the all-in-one mode when you want coordinator-driven reconfiguration,
// recovery, and self-healing. Clients connect with cmd/curpctl or
// cluster.NewClient.
//
// Observability: every node serves Prometheus text exposition at
// GET /metrics on RPC port + 500 (-metrics=false disables). Within a shard
// block that means coordinator base+500 (coordinator series plus the
// current master's — the per-partition dashboard endpoint `curpctl top`
// scrapes), master base+501, backups base+600+i, witnesses base+700+i,
// replacement witnesses base+900+. The master endpoints re-resolve the
// live master per scrape, so they stay correct across failovers.
// Component modes take an explicit -metrics-addr instead.
//
// Every metrics endpoint also serves GET /trace: the node's promoted
// distributed traces as JSON (`curpctl trace` stitches them across nodes
// into one waterfall). -trace-threshold sets the tail-sampling promotion
// bound on EVERY role's collector — any trace with a span at least that
// slow is kept. -pprof mounts the net/http/pprof suite on the same
// endpoints.
//
// Every metrics endpoint further serves GET /events — the node's flight
// recorder: a bounded journal of control-flow transitions (elections,
// lease moves, failover stages, migrations, epoch flips, fencings,
// watchdog anomalies) that `curpctl events` stitches into one causally
// ordered cluster timeline. Master and dashboard endpoints add
// GET /hotkeys, the master's space-saving top-K sketch of the hottest key
// hashes (`curpctl hotkeys`). Setting CURP_FLIGHT_DIR makes every server
// dump its journal to that directory on Close or on a boot-path panic —
// the post-mortem artifact CI uploads on failure.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"curp/internal/addrbook"
	"curp/internal/cluster"
	"curp/internal/events"
	"curp/internal/health"
	"curp/internal/metrics"
	"curp/internal/transport"
	"curp/internal/witness"
)

func main() {
	mode := flag.String("mode", "cluster", "cluster | master | backup | witness")
	host := flag.String("host", "127.0.0.1", "cluster mode: bind host")
	port := flag.Int("port", 7000, "cluster mode: base port (coordinator; +1 master; +100+i backups; +200+i witnesses; +300/+400 failover spares; /metrics on RPC port +500)")
	shards := flag.Int("shards", 1, "cluster mode: number of independent partitions; shard s uses port block port+s*1000")
	coordinators := flag.Int("coordinators", 1, "cluster mode: coordinator replicas per partition (2f+1 tolerates f; replica 0 on the base port, replica i on base+1+i, /metrics on RPC port +500)")
	f := flag.Int("f", 3, "fault tolerance level (backups & witnesses)")
	addr := flag.String("addr", "", "component modes: listen address")
	backups := flag.String("backups", "", "master mode: comma-separated backup addresses")
	witnesses := flag.String("witnesses", "", "master mode: comma-separated witness addresses")
	batch := flag.Int("batch", 50, "master sync batch size (the ceiling under -adaptive-flush)")
	adaptive := flag.Bool("adaptive-flush", true, "load-adaptive background flush threshold instead of a fixed batch size")
	selfHeal := flag.Bool("self-heal", true, "cluster mode: heartbeat failure detection with automatic master failover & witness replacement")
	hbInterval := flag.Duration("heartbeat", health.DefaultInterval, "cluster mode: heartbeat interval (failure declared after 8×)")
	metricsOn := flag.Bool("metrics", true, "cluster mode: serve GET /metrics (+ /trace) on every node at RPC port + 500")
	metricsAddr := flag.String("metrics-addr", "", "component modes: serve this node's GET /metrics (+ /trace) on this address")
	trace := flag.Duration("trace-threshold", 0, "tail-sampling promotion bound of every role's trace collector: keep any distributed trace containing a span at least this slow (0: only errored/conflict-synced/locked traces are kept)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof on every metrics endpoint")
	flag.Parse()

	obs := obsConfig{metricsOn: *metricsOn, pprof: *pprofOn, trace: *trace}
	nw := transport.TCPNetwork{}
	switch *mode {
	case "cluster":
		runShardedCluster(nw, addrbook.Book{Host: *host, Port: *port}, *shards, *coordinators, *f, *batch, *adaptive, *selfHeal, *hbInterval, obs)
	case "backup":
		requireAddr(*addr)
		srv, err := cluster.NewBackupServer(nw, *addr)
		exitOn(err)
		srv.Trace().SetThreshold(*trace)
		serveMetricsAddr(*metricsAddr, srv.Trace(), obs,
			map[string]http.Handler{"/events": srv.Events().Handler()}, srv.Metrics())
		log.Printf("backup listening on %s", *addr)
		waitForSignal()
		srv.Close()
	case "witness":
		requireAddr(*addr)
		srv, err := cluster.NewWitnessServer(nw, *addr, witness.DefaultConfig())
		exitOn(err)
		srv.Trace().SetThreshold(*trace)
		serveMetricsAddr(*metricsAddr, srv.Trace(), obs,
			map[string]http.Handler{"/events": srv.Events().Handler()}, srv.Metrics())
		log.Printf("witness listening on %s", *addr)
		waitForSignal()
		srv.Close()
	case "master":
		requireAddr(*addr)
		opts := cluster.DefaultMasterOptions()
		opts.Core.SyncBatchSize = *batch
		opts.Core.AdaptiveFlush = *adaptive
		ms, err := cluster.NewMasterServer(nw, 1, *addr, 0, opts)
		exitOn(err)
		ms.SetBackups(split(*backups))
		// Standalone masters install their witness list directly at
		// version 1; witness instances must be started by the operator
		// (curpctl start-witness) or by an all-in-one coordinator.
		exitOn(ms.SetWitnessList(1, split(*witnesses)))
		ms.Trace().SetThreshold(*trace)
		serveMetricsAddr(*metricsAddr, ms.Trace(), obs, map[string]http.Handler{
			"/events":  ms.Events().Handler(),
			"/hotkeys": ms.HotKeys().Handler(),
		}, ms.Metrics())
		log.Printf("master listening on %s (backups=%s witnesses=%s)", *addr, *backups, *witnesses)
		waitForSignal()
		ms.Close()
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *mode)
		os.Exit(2)
	}
}

// obsConfig bundles the observability knobs threaded through every server
// boot path: metrics endpoints on/off, pprof mounting, and the trace
// promotion threshold.
type obsConfig struct {
	metricsOn bool
	pprof     bool
	trace     time.Duration
}

// runShardedCluster boots `shards` independent partitions at the addresses
// book assigns them, then waits for a shutdown signal.
func runShardedCluster(nw transport.Network, book addrbook.Book, shards, coordinators, f, batch int, adaptive, selfHeal bool, hb time.Duration, obs obsConfig) {
	if shards < 1 {
		shards = 1
	}
	if coordinators < 1 {
		coordinators = 1
	}
	var closers []interface{ Close() }
	var quorums [][]*cluster.Coordinator
	var recorders []func() []*events.Journal
	// Flight recorder: a panic on this goroutine dumps every node's event
	// journal to CURP_FLIGHT_DIR before the process dies (server Close
	// paths cover the orderly-shutdown case).
	defer func() {
		if r := recover(); r != nil {
			var all []*events.Journal
			for _, fetch := range recorders {
				all = append(all, fetch()...)
			}
			events.FlightDump(all...)
			panic(r)
		}
	}()
	for s := 0; s < shards; s++ {
		cs, reps, jf := startPartition(nw, book, s, coordinators, f, batch, adaptive, selfHeal, hb, obs)
		closers = append(closers, cs...)
		quorums = append(quorums, reps)
		recorders = append(recorders, jf)
	}
	// Failover drill hook (scripts/controlplane_smoke.sh): SIGUSR1 crashes
	// the coordinator replica holding each shard's leader lease, forcing
	// the survivors to elect a new leader and resume serving config RPCs
	// and heal actions.
	chaos := make(chan os.Signal, 1)
	signal.Notify(chaos, syscall.SIGUSR1)
	go func() {
		for range chaos {
			for s, reps := range quorums {
				idx := 0
				for i, co := range reps {
					if co.HoldingLease() {
						idx = i
						break
					}
				}
				log.Printf("shard %d: SIGUSR1 — crashing coordinator leader replica %d (%s)", s, idx, reps[idx].Addr())
				reps[idx].Close()
			}
		}
	}()
	waitForSignal()
	for _, c := range closers {
		c.Close()
	}
}

// tcpSpares provisions failover replacements inside a partition's port
// block: promoted masters and replacement backups in the Spare slots,
// replacement witnesses in the SpareWitness slots (one shared sequence, so
// addresses never collide).
type tcpSpares struct {
	nw         transport.Network
	book       addrbook.Book
	shard      int
	coordAddrs []string
	hb         time.Duration
	wcfg       witness.Config
	obs        obsConfig
	seq        atomic.Uint64
}

func (s *tcpSpares) SpareMasterAddr(uint64) (string, error) {
	return s.book.RPC(s.shard, addrbook.Spare, int(s.seq.Add(1))), nil
}

func (s *tcpSpares) SpareBackup(uint64) (string, error) {
	n := int(s.seq.Add(1))
	addr := s.book.RPC(s.shard, addrbook.Spare, n)
	b, err := cluster.NewBackupServer(s.nw, addr)
	if err != nil {
		return "", err
	}
	b.Trace().SetThreshold(s.obs.trace)
	b.StartHeartbeats(s.coordAddrs, s.hb)
	if s.obs.metricsOn {
		if _, err := metrics.ServeNodeExtras(s.book.Metrics(s.shard, addrbook.Spare, n),
			metrics.Handler(b.Metrics()), b.Trace().TraceHandler(), s.obs.pprof,
			map[string]http.Handler{"/events": b.Events().Handler()}); err != nil {
			log.Printf("metrics for replacement backup %s: %v", addr, err)
		}
	}
	return addr, nil
}

func (s *tcpSpares) SpareWitness(uint64) (string, error) {
	n := int(s.seq.Add(1))
	addr := s.book.RPC(s.shard, addrbook.SpareWitness, n)
	w, err := cluster.NewWitnessServer(s.nw, addr, s.wcfg)
	if err != nil {
		return "", err
	}
	w.Trace().SetThreshold(s.obs.trace)
	w.StartHeartbeats(s.coordAddrs, s.hb)
	if s.obs.metricsOn {
		if _, err := metrics.ServeNodeExtras(s.book.Metrics(s.shard, addrbook.SpareWitness, n),
			metrics.Handler(w.Metrics()), w.Trace().TraceHandler(), s.obs.pprof,
			map[string]http.Handler{"/events": w.Events().Handler()}); err != nil {
			log.Printf("metrics for replacement witness %s: %v", addr, err)
		}
	}
	return addr, nil
}

// startPartition boots one partition (coordinator quorum, master, f
// backups, f witnesses) at the addresses book assigns shard, returning
// everything to close, the coordinator replicas (for the SIGUSR1
// leader-kill drill), and a fetcher over the partition's event journals
// (for the panic-time flight dump; the master journal is re-resolved so
// failovers are reflected).
func startPartition(nw transport.Network, book addrbook.Book, shard, coordinators, f, batch int, adaptive, selfHeal bool, hb time.Duration, obs obsConfig) ([]interface{ Close() }, []*cluster.Coordinator, func() []*events.Journal) {
	coordAddrs := make([]string, coordinators)
	for i := range coordAddrs {
		coordAddrs[i] = book.RPC(shard, addrbook.Coordinator, i)
	}
	var closers []interface{ Close() }
	replicas := make([]*cluster.Coordinator, coordinators)
	for i := range replicas {
		co, err := cluster.NewCoordinatorReplica(nw, time.Minute, cluster.QuorumOptions{Peers: coordAddrs, Rank: i})
		exitOn(err)
		// Disjoint RIFL client-ID namespaces per shard: rebalancing
		// migrates completion records between partitions and must never
		// collide them.
		co.SetClientIDNamespace(cluster.ClientIDNamespaceFor(shard))
		co.Trace().SetThreshold(obs.trace)
		co.Trace().SetShard(shard)
		co.Events().SetShard(shard)
		replicas[i] = co
		closers = append(closers, co)
	}
	coord := replicas[0]
	serveMetrics := func(role addrbook.Role, i int, coll *metrics.Collector, jrn *events.Journal, regs ...*metrics.Registry) {
		if !obs.metricsOn {
			return
		}
		srv, err := metrics.ServeNodeExtras(book.Metrics(shard, role, i),
			metrics.Handler(regs...), coll.TraceHandler(), obs.pprof,
			map[string]http.Handler{"/events": jrn.Handler()})
		exitOn(err)
		closers = append(closers, errCloser{srv})
	}
	var backupAddrs, witnessAddrs []string
	var backupSrvs []*cluster.BackupServer
	var witnessSrvs []*cluster.WitnessServer
	for i := 0; i < f; i++ {
		ba := book.RPC(shard, addrbook.Backup, i)
		b, err := cluster.NewBackupServer(nw, ba)
		exitOn(err)
		closers = append(closers, b)
		backupSrvs = append(backupSrvs, b)
		backupAddrs = append(backupAddrs, ba)
		b.Trace().SetThreshold(obs.trace)
		b.Trace().SetShard(shard)
		b.Events().SetShard(shard)
		serveMetrics(addrbook.Backup, i, b.Trace(), b.Events(), b.Metrics())
		wa := book.RPC(shard, addrbook.Witness, i)
		w, err := cluster.NewWitnessServer(nw, wa, witness.DefaultConfig())
		exitOn(err)
		closers = append(closers, w)
		witnessSrvs = append(witnessSrvs, w)
		witnessAddrs = append(witnessAddrs, wa)
		w.Trace().SetThreshold(obs.trace)
		w.Trace().SetShard(shard)
		w.Events().SetShard(shard)
		serveMetrics(addrbook.Witness, i, w.Trace(), w.Events(), w.Metrics())
	}
	opts := cluster.DefaultMasterOptions()
	opts.Core.SyncBatchSize = batch
	opts.Core.AdaptiveFlush = adaptive
	masterAddr := book.RPC(shard, addrbook.Master, 0)
	ms, err := cluster.NewMasterServer(nw, 1, masterAddr, 0, opts)
	exitOn(err)
	ms.SetShardIndex(shard)
	ms.Trace().SetThreshold(obs.trace)
	closers = append(closers, ms)
	exitOn(coord.AddMaster(ms, backupAddrs, witnessAddrs))
	if obs.metricsOn {
		// The rank-0 coordinator's endpoint doubles as the per-partition
		// dashboard: coordinator series plus the live master's; its /trace
		// merges both nodes' spans. The dedicated master endpoint
		// re-resolves the registry and collector per request so a
		// heal-promoted replacement keeps the same URL.
		dash, err := metrics.ServeNodeExtras(book.Metrics(shard, addrbook.Coordinator, 0),
			metrics.DynamicHandler(func() []*metrics.Registry {
				return []*metrics.Registry{coord.Metrics(), coord.MasterRegistry()}
			}),
			metrics.MultiTraceHandler(func() []*metrics.Collector {
				return []*metrics.Collector{coord.Trace(), coord.MasterTrace()}
			}), obs.pprof,
			map[string]http.Handler{
				"/events": events.MultiHandler(func() []*events.Journal {
					return []*events.Journal{coord.Events(), coord.MasterEvents()}
				}),
				"/hotkeys": events.MultiHotKeysHandler(func() []*events.TopK {
					return []*events.TopK{coord.MasterHotKeys()}
				}),
			})
		exitOn(err)
		closers = append(closers, errCloser{dash})
		msrv, err := metrics.ServeNodeExtras(book.Metrics(shard, addrbook.Master, 0),
			metrics.DynamicHandler(func() []*metrics.Registry {
				return []*metrics.Registry{coord.MasterRegistry()}
			}),
			metrics.MultiTraceHandler(func() []*metrics.Collector {
				return []*metrics.Collector{coord.MasterTrace()}
			}), obs.pprof,
			map[string]http.Handler{
				"/events": events.MultiHandler(func() []*events.Journal {
					return []*events.Journal{coord.MasterEvents()}
				}),
				"/hotkeys": events.MultiHotKeysHandler(func() []*events.TopK {
					return []*events.TopK{coord.MasterHotKeys()}
				}),
			})
		exitOn(err)
		closers = append(closers, errCloser{msrv})
		// Follower replicas expose their own quorum series (leader gauge,
		// commit index, election count) on their own endpoints.
		for i := 1; i < coordinators; i++ {
			serveMetrics(addrbook.Coordinator, i, replicas[i].Trace(), replicas[i].Events(), replicas[i].Metrics())
		}
	}
	if selfHeal {
		det := health.Config{Interval: hb}.WithDefaults()
		// Every server beats every coordinator replica, so whichever
		// replica wins a leader election already has a live detector
		// table to heal from.
		ms.StartHeartbeats(coordAddrs, det.Interval)
		for _, b := range backupSrvs {
			b.StartHeartbeats(coordAddrs, det.Interval)
		}
		for _, w := range witnessSrvs {
			w.StartHeartbeats(coordAddrs, det.Interval)
		}
		spares := &tcpSpares{nw: nw, book: book, shard: shard, coordAddrs: coordAddrs, hb: det.Interval, wcfg: witness.DefaultConfig(), obs: obs}
		for _, co := range replicas {
			// Armed on every replica; only the leader-lease holder acts.
			exitOn(co.EnableSelfHealing(cluster.HealthConfig{
				Detector:   det,
				Spares:     spares,
				MasterOpts: opts,
				OnEvent:    func(ev cluster.FailoverEvent) { log.Printf("shard %d: %v", shard, ev) },
			}))
		}
	}
	log.Printf("shard %d up: coordinators=%v master=%s backups=%v witnesses=%v self-heal=%v adaptive-flush=%v",
		shard, coordAddrs, masterAddr, backupAddrs, witnessAddrs, selfHeal, adaptive)
	journals := func() []*events.Journal {
		js := make([]*events.Journal, 0, coordinators+2*f+1)
		for _, co := range replicas {
			js = append(js, co.Events())
		}
		js = append(js, coord.MasterEvents())
		for _, b := range backupSrvs {
			js = append(js, b.Events())
		}
		for _, w := range witnessSrvs {
			js = append(js, w.Events())
		}
		return js
	}
	return closers, replicas, journals
}

// errCloser adapts metrics.Server (whose Close returns error) to the
// closers list.
type errCloser struct{ srv *metrics.Server }

func (c errCloser) Close() { _ = c.srv.Close() }

// serveMetricsAddr starts a component-mode observability endpoint
// (/metrics, /trace, /events + role extras, optional pprof) when the
// operator passed -metrics-addr (standalone nodes have no port convention
// to derive one from).
func serveMetricsAddr(addr string, coll *metrics.Collector, obs obsConfig, extras map[string]http.Handler, regs ...*metrics.Registry) {
	if addr == "" {
		return
	}
	srv, err := metrics.ServeNodeExtras(addr, metrics.Handler(regs...), coll.TraceHandler(), obs.pprof, extras)
	exitOn(err)
	log.Printf("metrics on http://%s/metrics (traces at /trace, events at /events)", srv.Addr)
}

func split(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func requireAddr(addr string) {
	if addr == "" {
		fmt.Fprintln(os.Stderr, "-addr is required for component modes")
		os.Exit(2)
	}
}

func exitOn(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func waitForSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
	log.Print("shutting down")
}
