// Command curpd runs a CURP deployment over TCP: N independent partitions
// in one process, each a coordinator quorum, one master, f backups and f
// witnesses, assembled by the same cluster.Start that boots the in-memory
// partitions of the tests and examples — only the addresses differ, and
// those come from internal/addrbook.
//
//	curpd -mode cluster -host 127.0.0.1 -port 7000 -f 3 -shards 4 -coordinators 3
//
// Shard s occupies the port block base+s*1000, so clients derive every
// endpoint from the base port (see curpctl -shards). Partitions beyond the
// routing ring clients use are spare capacity: boot -shards 4, route with
// curpctl -shards 3, then grow the ring live with `curpctl rebalance 3 4`.
//
// -coordinators N boots N coordinator replicas per partition (replica 0 on
// the base port, replica i on base+1+i) running a consensus-backed quorum:
// any replica answers view, health and client-registration RPCs, mutations
// commit through the leader's replicated log, and only the leader-lease
// holder heals. Size N as 2f+1 to tolerate f coordinator failures. SIGUSR1
// is the failover drill: it crashes each shard's lease-holding replica and
// leaves the survivors to elect a successor (scripts/controlplane_smoke.sh).
//
// The deployment is self-healing by default (-self-heal): every server
// heartbeats its shard's coordinator replicas, which replace a dead master,
// backup or witness on their own — promoted masters and replacement backups
// take the spare slots base+300+n, replacement witnesses base+400+n — and
// `curpctl status` shows the live membership, epochs, quorum leadership and
// heartbeat ages. Masters default to the load-adaptive flush policy
// (-adaptive-flush): short sync batches under light load, up to -batch
// under burst.
//
// Observability: every node serves one endpoint on its RPC port + 500
// (-metrics=false serves nothing) — GET /metrics (Prometheus text), /trace
// (promoted distributed traces; -trace-threshold sets every node's
// tail-sampling bound), /events (the flight-recorder journal), /hotkeys
// (masters only: the hot-key sketch), each the node's one JSON document,
// plus net/http/pprof under -pprof. Two endpoints per shard aggregate and
// answer with a JSON array, one document per node behind them: the rank-0
// coordinator's (base+500) is the partition dashboard — its own instruments
// plus the live master's — and base+501 always answers for the partition's
// CURRENT master, so both stay correct across failovers. Setting CURP_FLIGHT_DIR makes every server dump its
// journal there on Close, and curpd dump all of them if it panics.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sync"
	"syscall"

	"curp/internal/addrbook"
	"curp/internal/cluster"
	"curp/internal/events"
	"curp/internal/health"
	"curp/internal/metrics"
	"curp/internal/shard"
	"curp/internal/transport"
)

func main() {
	mode := flag.String("mode", "cluster", "cluster (the only mode)")
	host := flag.String("host", "127.0.0.1", "bind host")
	port := flag.Int("port", 7000, "base port (coordinator; +1 master; +100+i backups; +200+i witnesses; +300/+400 failover spares; observability on RPC port +500)")
	shards := flag.Int("shards", 1, "number of independent partitions; shard s uses port block port+s*1000")
	coordinators := flag.Int("coordinators", 1, "coordinator replicas per partition (2f+1 tolerates f; replica 0 on the base port, replica i on base+1+i)")
	f := flag.Int("f", 3, "fault tolerance level (backups & witnesses)")
	batch := flag.Int("batch", 50, "master sync batch size (the ceiling under -adaptive-flush)")
	adaptive := flag.Bool("adaptive-flush", true, "load-adaptive background flush threshold instead of a fixed batch size")
	selfHeal := flag.Bool("self-heal", true, "heartbeat failure detection with automatic master failover & backup/witness replacement")
	hbInterval := flag.Duration("heartbeat", health.DefaultInterval, "heartbeat interval (failure declared after 8×)")
	metricsOn := flag.Bool("metrics", true, "serve GET /metrics, /trace, /events, /hotkeys on every node at RPC port + 500")
	trace := flag.Duration("trace-threshold", 0, "tail-sampling promotion bound of every node's trace collector: keep any distributed trace containing a span at least this slow (0: only errored/conflict-synced/locked traces are kept)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof on every observability endpoint")
	flag.Parse()
	if *mode != "cluster" {
		fmt.Fprintf(os.Stderr, "curpd: -mode %q was removed: the standalone master/backup/witness component modes (and their -addr, -backups, -witnesses, -metrics-addr flags) could never serve a client; only -mode cluster remains\n", *mode)
		os.Exit(2)
	}

	book := addrbook.Book{Host: *host, Port: *port}
	obs := &endpoints{book: book, pprof: *pprofOn, served: make(map[string]bool)}
	popts := cluster.DefaultOptions()
	popts.F = *f
	popts.Master.Core.SyncBatchSize = *batch
	popts.Master.Core.AdaptiveFlush = *adaptive
	popts.ControlPlaneReplicas = *coordinators
	popts.TraceThreshold = *trace
	if *selfHeal {
		popts.Health = &cluster.HealthOptions{HeartbeatInterval: *hbInterval}
	}
	sopts := shard.Options{Shards: *shards, Partition: popts, Addrs: book.RPC}
	sopts.OnFailover = func(s int, ev cluster.FailoverEvent) {
		log.Printf("shard %d: %v", s, ev)
		// Every heal action may have booted spares: give them endpoints
		// (a no-op under -metrics=false, where obs never learns of dep).
		if err := obs.sync(); err != nil {
			log.Printf("shard %d: observability endpoint: %v", s, err)
		}
	}

	var dep *shard.Cluster
	// Flight recorder: a panic on this goroutine dumps every node's event
	// journal to CURP_FLIGHT_DIR before the process dies (server Close paths
	// cover the orderly shutdown).
	defer func() {
		if r := recover(); r != nil {
			if dep != nil {
				for _, b := range dep.Nodes() {
					events.FlightDump(b.Events)
				}
			}
			panic(r)
		}
	}()
	dep, err := shard.StartCluster(transport.TCPNetwork{}, sopts)
	exitOn(err)
	if *metricsOn {
		obs.mu.Lock()
		obs.dep = dep
		obs.mu.Unlock()
		exitOn(obs.sync())
	}
	for s, part := range dep.Partitions() {
		view, err := part.Coord.View(1)
		exitOn(err)
		var coords []string
		for _, co := range part.CoordReplicas {
			coords = append(coords, co.Addr())
		}
		log.Printf("shard %d up: coordinators=%v master=%s backups=%v witnesses=%v self-heal=%v adaptive-flush=%v",
			s, coords, view.MasterAddr, view.BackupAddrs, view.WitnessAddrs, *selfHeal, *adaptive)
	}

	// Failover drill hook (scripts/controlplane_smoke.sh): SIGUSR1 crashes
	// the coordinator replica holding each shard's leader lease, forcing the
	// survivors to elect a new leader and resume serving config RPCs and
	// heal actions.
	chaos := make(chan os.Signal, 1)
	signal.Notify(chaos, syscall.SIGUSR1)
	go func() {
		for range chaos {
			for s := range dep.Partitions() {
				idx := dep.CrashCoordinatorLeader(s)
				log.Printf("shard %d: SIGUSR1 — crashed coordinator leader replica %d", s, idx)
			}
		}
	}()
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	log.Print("shutting down")
	dep.Close()
}

// endpoints serves every node's observability bundle at its RPC port + 500
// (addrbook.MetricsOf) for the life of the process.
type endpoints struct {
	book  addrbook.Book
	pprof bool

	mu  sync.Mutex
	dep *shard.Cluster
	// served holds the observability addresses already bound.
	served map[string]bool
}

// sync binds an endpoint for every node that has none yet. Per shard the
// two aggregating endpoints come first and shadow the rank-0 coordinator's
// and the first master's own: the dashboard (coordinator + live master) and
// the live-master alias, both re-resolved per request so a promoted
// replacement keeps the URL.
func (e *endpoints) sync() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dep == nil {
		return nil // still booting; main syncs once the deployment is up
	}
	for s, part := range e.dep.Partitions() {
		master := func() []cluster.Bundle { return []cluster.Bundle{part.CurrentMaster().Bundle()} }
		dashboard := func() []cluster.Bundle { return append([]cluster.Bundle{part.Coord.Bundle()}, master()...) }
		if err := e.serve(e.book.Metrics(s, addrbook.Coordinator, 0), cluster.EndpointsOver(dashboard)); err != nil {
			return err
		}
		if err := e.serve(e.book.Metrics(s, addrbook.Master, 0), cluster.EndpointsOver(master)); err != nil {
			return err
		}
		for _, b := range part.Nodes() {
			addr, err := addrbook.MetricsOf(b.Node)
			if err != nil {
				return err
			}
			if err := e.serve(addr, cluster.EndpointsOf(b)); err != nil {
				return err
			}
		}
	}
	return nil
}

// serve binds addr, once. The caller holds e.mu.
func (e *endpoints) serve(addr string, obs cluster.Endpoints) error {
	if e.served[addr] {
		return nil
	}
	e.served[addr] = true
	_, err := metrics.Serve(addr, obs.Mux(e.pprof))
	return err
}

func exitOn(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
