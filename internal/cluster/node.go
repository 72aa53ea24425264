package cluster

import (
	"context"
	"net/http"
	"sync"
	"time"

	"curp/internal/events"
	"curp/internal/health"
	"curp/internal/metrics"
	"curp/internal/rpc"
	"curp/internal/transport"
)

// NodeOptions are the deployment-wide settings every server is CONSTRUCTED
// with. They travel in the option struct a role's constructor already takes
// (MasterOptions.Node, QuorumOptions.Node), so a heal-promoted master
// inherits them with the rest of its predecessor's MasterOptions, and
// Cluster hands them to every backup and witness it boots, spares included:
// no node can come up unstamped or silent.
type NodeOptions struct {
	// Shard is the partition index stamped on the node's spans, events and
	// hot-key dumps (0 for a single-partition deployment).
	Shard int
	// TraceThreshold is the tail-sampling promotion bound of the node's
	// collector: any trace with a span at least this slow is kept (0: only
	// errored, conflict-synced, locked and redirected traces are).
	TraceThreshold time.Duration
	// Coordinators lists every coordinator replica the node heartbeats, on
	// the HeartbeatInterval cadence, from the moment it serves. Empty (a
	// partition without self-healing) means no beater.
	Coordinators      []string
	HeartbeatInterval time.Duration
}

// Bundle is one node's observability, created in one place (node.init):
// the registry behind /metrics, the span collector behind /trace, the
// flight-recorder journal behind /events and — masters only — the hot-key
// sketch behind /hotkeys.
type Bundle struct {
	Node, Role string
	Metrics    *metrics.Registry
	Trace      *metrics.Collector
	Events     *events.Journal
	HotKeys    *events.TopK
}

// node is the scaffold every server role embeds: the address and network,
// the RPC server, the close-once channel with the flight dump, the
// heartbeat loop, and the observability bundle. A role adds its handlers,
// its own series and its own state, then calls serve.
type node struct {
	addr, role string
	nw         transport.Network
	opts       NodeOptions
	rpc        *rpc.Server

	closeOnce sync.Once
	closed    chan struct{}

	// beat builds the node's heartbeat payload; nil (coordinators) never
	// beats.
	beat func() health.Beat

	metrics *metrics.Registry
	coll    *metrics.Collector
	jrn     *events.Journal
	hot     *events.TopK
}

// init creates the scaffold for the given role name ("coordinator",
// "master", "backup", "witness"). Nothing listens until serve.
func (n *node) init(nw transport.Network, addr, role string, o NodeOptions) {
	n.addr, n.role, n.nw, n.opts = addr, role, nw, o
	n.rpc = rpc.NewServer()
	n.closed = make(chan struct{})
	n.metrics = metrics.NewRegistry()
	n.metrics.SetConstLabels(metrics.L("node", addr))
	metrics.RegisterBuildInfo(n.metrics)
	n.coll = metrics.NewCollector(addr, role, o.TraceThreshold)
	n.coll.SetShard(o.Shard)
	n.jrn = events.NewJournal(addr, role)
	n.jrn.SetShard(o.Shard)
	if role == "master" {
		n.hot = events.NewTopK(addr, events.DefaultHotKeys)
		n.hot.SetShard(o.Shard)
	}
}

// serve binds the node's address, starts serving the handlers registered
// so far and, when the deployment heartbeats, starts the beater. It is the
// last step of a role's constructor: the beat payload may read any of the
// role's state.
func (n *node) serve() error {
	l, err := n.nw.Listen(n.addr)
	if err != nil {
		return err
	}
	n.rpc.Go(l)
	if n.beat != nil && len(n.opts.Coordinators) > 0 {
		go n.heartbeat()
	}
	return nil
}

// heartbeat is the resident beater: the beat payload to every coordinator
// replica on the detector cadence until the node closes. Every replica is
// beaten so that whichever wins a leader election already has a live
// detector table to heal from.
func (n *node) heartbeat() {
	peers := make([]*rpc.Peer, 0, len(n.opts.Coordinators))
	for _, a := range n.opts.Coordinators {
		peers = append(peers, rpc.NewPeer(n.nw, n.addr, a))
	}
	defer func() {
		for _, p := range peers {
			p.Close()
		}
	}()
	interval := n.opts.HeartbeatInterval
	// Long enough for a loaded coordinator, short enough that a dead link
	// never backlogs beats.
	timeout := max(2*interval, 50*time.Millisecond)
	health.Beater(n.closed, interval, func() {
		b := n.beat()
		payload := b.Encode()
		for _, p := range peers {
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			p.Call(ctx, OpHeartbeat, payload)
			cancel()
		}
	})
}

// shutdown closes the node exactly once — signal closed (the beater and
// the role's loops stop), run the role's own teardown, dump the flight
// recorder when CURP_FLIGHT_DIR opts in — and stops the RPC server.
func (n *node) shutdown(teardown func()) {
	n.closeOnce.Do(func() {
		close(n.closed)
		if teardown != nil {
			teardown()
		}
		events.FlightDump(n.jrn)
	})
	n.rpc.Close()
}

// whileOpen derives a context that also ends when the node closes, for a
// handler that drives a long exchange of its own: shutdown waits for
// handlers, and must not wait for one to time out against a dead peer.
func (n *node) whileOpen(ctx context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(ctx)
	go func() {
		select {
		case <-n.closed:
			cancel()
		case <-ctx.Done():
		}
	}()
	return ctx, cancel
}

// Addr returns the node's address.
func (n *node) Addr() string { return n.addr }

// Events returns the node's flight-recorder journal.
func (n *node) Events() *events.Journal { return n.jrn }

// HotKeys returns the node's hot-key sketch; nil unless it is a master.
func (n *node) HotKeys() *events.TopK { return n.hot }

// Bundle returns the node's observability bundle.
func (n *node) Bundle() Bundle {
	return Bundle{Node: n.addr, Role: n.role, Metrics: n.metrics, Trace: n.coll, Events: n.jrn, HotKeys: n.hot}
}

// Endpoints are the observability handlers over a set of bundles. fetch
// runs per request, so an endpoint over "the partition's current master"
// or "every node of the deployment" follows failovers, spares and added
// shards without being rebuilt. Nil instruments are skipped.
type Endpoints struct {
	Metrics, Trace, Events, HotKeys http.Handler
}

// pick projects one instrument out of every bundle.
func pick[T any](bundles []Bundle, field func(Bundle) *T) []*T {
	out := make([]*T, len(bundles))
	for i, b := range bundles {
		out[i] = field(b)
	}
	return out
}

// EndpointsOver builds the four handlers over whatever fetch returns.
func EndpointsOver(fetch func() []Bundle) Endpoints {
	return Endpoints{
		Metrics: http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			metrics.Handler(pick(fetch(), func(b Bundle) *metrics.Registry { return b.Metrics })...).ServeHTTP(w, req)
		}),
		Trace: metrics.MultiTraceHandler(func() []*metrics.Collector {
			return pick(fetch(), func(b Bundle) *metrics.Collector { return b.Trace })
		}),
		Events: events.MultiHandler(func() []*events.Journal {
			return pick(fetch(), func(b Bundle) *events.Journal { return b.Events })
		}),
		HotKeys: events.MultiHotKeysHandler(func() []*events.TopK {
			return pick(fetch(), func(b Bundle) *events.TopK { return b.HotKeys })
		}),
	}
}

// EndpointsOf serves one node's own bundle. /trace, /events and /hotkeys
// answer with the node's single JSON document where the aggregating
// EndpointsOver answers with an array; /hotkeys is a 404 unless the node is
// a master.
func EndpointsOf(b Bundle) Endpoints {
	return Endpoints{Metrics: metrics.Handler(b.Metrics), Trace: b.Trace.TraceHandler(),
		Events: b.Events.Handler(), HotKeys: b.HotKeys.Handler()}
}

// Mux is the one observability mux every endpoint of the system serves:
// /metrics (and / for curl convenience), /trace, /events, /hotkeys, plus
// the net/http/pprof suite when profiling is on.
func (e Endpoints) Mux(profiling bool) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", e.Metrics)
	mux.Handle("/", e.Metrics)
	mux.Handle("/trace", e.Trace)
	mux.Handle("/events", e.Events)
	mux.Handle("/hotkeys", e.HotKeys)
	if profiling {
		metrics.MountProfiling(mux)
	}
	return mux
}
