// Command curpctl is a small operator CLI for a running curpd cluster.
//
//	curpctl -coordinator 127.0.0.1:7000 put mykey myvalue
//	curpctl -coordinator 127.0.0.1:7000 get mykey
//	curpctl -coordinator 127.0.0.1:7000 incr counter 5
//	curpctl -coordinator 127.0.0.1:7000 del mykey
//	curpctl -coordinator 127.0.0.1:7000 bench 10000
//
// The commutativity-class vocabulary is exposed too: append
// (order-dependent byte append), sadd/srem/smembers (a set whose
// concurrent adds commute and stay 1-RTT), take (token-bucket rate
// limiter; exits 1 on a denial), and putttl (write with a relative TTL):
//
//	curpctl -coordinator 127.0.0.1:7000 sadd actives user-7
//	curpctl -coordinator 127.0.0.1:7000 take api-quota 1
//	curpctl -coordinator 127.0.0.1:7000 putttl session-42 token 30s
//
// Against a sharded deployment (curpd -shards N), pass the same -shards N:
// shard s's coordinator is derived from the base address by adding s*1000
// to the port, and each key routes to its owning partition:
//
//	curpctl -coordinator 127.0.0.1:7000 -shards 4 put mykey myvalue
//	curpctl -coordinator 127.0.0.1:7000 -shards 4 shard mykey
//
// -shard pins every operation to one partition (bypassing the ring), for
// inspecting a single shard:
//
//	curpctl -coordinator 127.0.0.1:7000 -shards 4 -shard 2 bench 1000
//
// bench issues sequential 100B puts on distinct keys and reports latency
// percentiles and the fraction of 1-RTT completions.
//
// status prints each shard's membership, recovery epoch, witness-list
// version, and per-node heartbeat ages from the coordinator's health
// table (self-healing deployments report load stats off master beats):
//
//	curpctl -coordinator 127.0.0.1:7000 -shards 4 status
//
// top is a live dashboard over the same deployment: it polls each shard's
// partition /metrics endpoint (coordinator RPC port + 500, the curpd
// -metrics layout) every second and redraws per-shard throughput,
// fast-path share, sync lag, recovery epoch, node liveness, heal-event
// counts, and the busiest commutativity class with its 1-RTT share (the
// CLASS column, from curp_master_class_verdicts_total). Optional arguments set the refresh interval and an iteration
// limit (0 = run until Ctrl-C):
//
//	curpctl -coordinator 127.0.0.1:7000 -shards 4 top
//	curpctl -coordinator 127.0.0.1:7000 -shards 4 top 500ms 10
//
// trace reads the distributed tracer: with no argument it lists every
// promoted trace still held by the cluster's /trace endpoints (tail-based
// sampling keeps only slow, errored, or fast-path-evicted ops); with a
// trace ID it fetches that trace's spans from every node, stitches the
// causal tree, and renders a waterfall with per-stage latency attribution
// (witness-record, master-queue, apply, sync-wait, backup-append,
// lock-wait) plus the verdict that evicted the op from the 1-RTT path.
// Pass the deployment's -f so the backup/witness endpoint scan matches,
// and -trace-endpoints for collectors outside the port convention:
//
//	curpctl -coordinator 127.0.0.1:7000 -shards 4 -f 3 trace
//	curpctl -coordinator 127.0.0.1:7000 -shards 4 -f 3 trace 9f8e7d6c5b4a3f2e
//
// rebalance grows the routing ring live: with partitions 0..M-1 already
// running (curpd -shards M provisions spares that own no keys), it
// migrates key ranges from an N-shard ring onto the new shards without
// stopping traffic, one handoff step (shard.RebalanceEndpoints) at a time:
//
//	curpd  -mode cluster -port 7000 -shards 4   # 4 partitions up
//	curpctl -coordinator 127.0.0.1:7000 rebalance 3 4
//
// After it reports success, address the deployment with -shards 4.
// Operations on moving ranges bounce-and-retry inside routing clients
// during the handoff; all other keys are served throughout.
//
// drain runs the same handoff step in the other direction: it shrinks the
// routing ring live, migrating the leaving shards' key ranges back onto
// the survivors so the emptied partitions can be decommissioned:
//
//	curpctl -coordinator 127.0.0.1:7000 drain 4 3
//
// Against a deployment with replicated coordinators (curpd -coordinators
// R), pass the same -coordinators R: clients register at whichever replica
// answers and fail over between them, and `status` reports the quorum
// (reachable replicas, leader, term, commit index) per shard — it keeps
// working when the leader is down, since any replica serves health and
// view reads from its mirror of the replicated log.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"curp/internal/addrbook"
	"curp/internal/cluster"
	"curp/internal/core"
	"curp/internal/health"
	"curp/internal/shard"
	"curp/internal/stats"
	"curp/internal/transport"
	"curp/internal/workload"
)

// kvClient is the op surface shared by a single partition's client and the
// sharded router.
type kvClient interface {
	Put(ctx context.Context, key, value []byte) (uint64, error)
	Get(ctx context.Context, key []byte) ([]byte, bool, error)
	Delete(ctx context.Context, key []byte) error
	Increment(ctx context.Context, key []byte, delta int64) (int64, error)
	Append(ctx context.Context, key, suffix []byte) (int64, error)
	PutTTL(ctx context.Context, key, value []byte, expireAt int64) (uint64, error)
	SetAdd(ctx context.Context, key, member []byte) error
	SetRemove(ctx context.Context, key, member []byte) error
	SetMembers(ctx context.Context, key []byte) ([][]byte, error)
	BucketTake(ctx context.Context, key []byte, n int64) (bool, int64, error)
	Stats() core.ClientStats
}

func main() {
	coord := flag.String("coordinator", "127.0.0.1:7000", "shard 0's coordinator address")
	coordinators := flag.Int("coordinators", 1, "coordinator replicas per partition (curpd -coordinators layout: replica 0 on the shard's base port, replica i at +1+i); clients and status fail over across them")
	shards := flag.Int("shards", 1, "total partitions; shard s's coordinator port = base port + s*1000")
	fTol := flag.Int("f", 3, "trace: the deployment's fault-tolerance level (curpd -f), sizing the backup/witness endpoint scan")
	traceEPs := flag.String("trace-endpoints", "", "trace: comma-separated extra /trace endpoints (host:port) beyond the port convention, e.g. a load generator's (scripts/traceload)")
	pin := flag.Int("shard", -1, "pin every operation to this partition instead of routing by key")
	timeout := flag.Duration("timeout", 5*time.Second, "per-operation timeout")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}
	if *shards < 1 || *pin >= *shards || *pin < -1 {
		fmt.Fprintf(os.Stderr, "bad -shards %d / -shard %d\n", *shards, *pin)
		os.Exit(2)
	}

	ring := shard.MustNewRing(*shards, 0)
	if args[0] == "shard" {
		// Pure routing query; no connections needed.
		need(args, 2)
		fmt.Println(ring.ShardString(args[1]))
		return
	}
	book, err := addrbook.Parse(*coord)
	exitOn(err)
	if args[0] == "status" {
		runStatus(book, *shards, *coordinators, *timeout)
		return
	}
	if args[0] == "top" {
		interval, iterations := topArgs(args)
		runTop(book, *shards, *coordinators, *timeout, interval, iterations)
		return
	}
	if args[0] == "events" {
		runEvents(book, *shards, *coordinators, *fTol, *timeout, args)
		return
	}
	if args[0] == "hotkeys" {
		runHotkeys(book, *shards, *timeout)
		return
	}
	if args[0] == "trace" {
		var extra []string
		if *traceEPs != "" {
			extra = strings.Split(*traceEPs, ",")
		}
		runTrace(book, *shards, *coordinators, *fTol, *timeout, extra, args)
		return
	}
	if args[0] == "rebalance" || args[0] == "drain" {
		need(args, 3)
		from, err := strconv.Atoi(args[1])
		exitOn(err)
		to, err := strconv.Atoi(args[2])
		exitOn(err)
		if args[0] == "rebalance" && (from < 1 || to < from) {
			fmt.Fprintf(os.Stderr, "rebalance: need 1 <= from <= to, got %d %d\n", from, to)
			os.Exit(2)
		}
		if args[0] == "drain" && (to < 1 || from < to) {
			fmt.Fprintf(os.Stderr, "drain: need 1 <= to <= from, got %d %d\n", from, to)
			os.Exit(2)
		}
		coords := make([]string, max(from, to))
		for s := range coords {
			coords[s] = book.RPC(s, addrbook.Coordinator, 0)
		}
		md := &cluster.MigrationDriver{NW: transport.TCPNetwork{}, Self: fmt.Sprintf("curpctl-%d", os.Getpid())}
		got, err := shard.RebalanceEndpoints(context.Background(), md, coords,
			shard.MustNewRing(from, 0), shard.MustNewRing(to, 0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s stopped at %d shards: %v\n", args[0], got.Shards(), err)
			os.Exit(1)
		}
		if args[0] == "drain" {
			fmt.Printf("OK ring now covers %d shards; shards %d..%d serve no keys and can be decommissioned (use -shards %d)\n",
				got.Shards(), got.Shards(), from-1, got.Shards())
			return
		}
		fmt.Printf("OK ring now covers %d shards (use -shards %d)\n", got.Shards(), got.Shards())
		return
	}

	// Dial lazily so a down shard only blocks commands that need it: a
	// single-key op dials just the owning (or pinned) partition; only an
	// unpinned bench needs every shard.
	name := fmt.Sprintf("curpctl-%d", os.Getpid())
	nw := transport.TCPNetwork{}
	perShard := make([]*cluster.Client, *shards)
	dial := func(s int) *cluster.Client {
		if perShard[s] == nil {
			cl, err := cluster.NewClientMulti(nw, name, shardCoordAddrs(book, s, *coordinators), 1)
			exitOn(err)
			perShard[s] = cl
		}
		return perShard[s]
	}
	defer func() {
		for _, cl := range perShard {
			if cl != nil {
				cl.Close()
			}
		}
	}()
	// forKey picks the client for one key: the pinned shard or the owner.
	forKey := func(key string) kvClient {
		if *pin >= 0 {
			return dial(*pin)
		}
		return dial(ring.ShardString(key))
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	switch args[0] {
	case "put":
		need(args, 3)
		ver, err := forKey(args[1]).Put(ctx, []byte(args[1]), []byte(args[2]))
		exitOn(err)
		fmt.Printf("OK version=%d\n", ver)
	case "get":
		need(args, 2)
		v, ok, err := forKey(args[1]).Get(ctx, []byte(args[1]))
		exitOn(err)
		if !ok {
			fmt.Println("(nil)")
			return
		}
		fmt.Printf("%s\n", v)
	case "del":
		need(args, 2)
		exitOn(forKey(args[1]).Delete(ctx, []byte(args[1])))
		fmt.Println("OK")
	case "incr":
		need(args, 3)
		delta, err := strconv.ParseInt(args[2], 10, 64)
		exitOn(err)
		n, err := forKey(args[1]).Increment(ctx, []byte(args[1]), delta)
		exitOn(err)
		fmt.Printf("%d\n", n)
	case "append":
		need(args, 3)
		n, err := forKey(args[1]).Append(ctx, []byte(args[1]), []byte(args[2]))
		exitOn(err)
		fmt.Printf("OK length=%d\n", n)
	case "putttl":
		need(args, 4)
		ttl, err := time.ParseDuration(args[3])
		exitOn(err)
		ver, err := forKey(args[1]).PutTTL(ctx, []byte(args[1]), []byte(args[2]), time.Now().Add(ttl).UnixNano())
		exitOn(err)
		fmt.Printf("OK version=%d expires-in=%v\n", ver, ttl)
	case "sadd":
		need(args, 3)
		exitOn(forKey(args[1]).SetAdd(ctx, []byte(args[1]), []byte(args[2])))
		fmt.Println("OK")
	case "srem":
		need(args, 3)
		exitOn(forKey(args[1]).SetRemove(ctx, []byte(args[1]), []byte(args[2])))
		fmt.Println("OK")
	case "smembers":
		need(args, 2)
		members, err := forKey(args[1]).SetMembers(ctx, []byte(args[1]))
		exitOn(err)
		for _, m := range members {
			fmt.Printf("%s\n", m)
		}
	case "take":
		need(args, 3)
		n, err := strconv.ParseInt(args[2], 10, 64)
		exitOn(err)
		granted, remaining, err := forKey(args[1]).BucketTake(ctx, []byte(args[1]), n)
		exitOn(err)
		if granted {
			fmt.Printf("GRANTED remaining=%d\n", remaining)
		} else {
			fmt.Printf("DENIED remaining=%d\n", remaining)
			os.Exit(1)
		}
	case "bench":
		need(args, 2)
		n, err := strconv.Atoi(args[1])
		exitOn(err)
		var cl kvClient
		if *pin >= 0 {
			cl = dial(*pin)
		} else {
			for s := range perShard {
				dial(s)
			}
			router, err := shard.NewRoutedClient(ring, perShard)
			exitOn(err)
			cl = router
		}
		runBench(cl, n, *timeout)
	default:
		usage()
	}
}

// runStatus prints every shard's membership, epoch, witness-list version,
// control-plane quorum health, and per-node heartbeat ages. Any reachable
// coordinator replica can answer — the health and view state is mirrored
// from the replicated log — so the status survives a dead leader.
func runStatus(book addrbook.Book, shards, coordinators int, timeout time.Duration) {
	nw := transport.TCPNetwork{}
	self := fmt.Sprintf("curpctl-%d", os.Getpid())
	for s := 0; s < shards; s++ {
		addrs := shardCoordAddrs(book, s, coordinators)
		var ph *cluster.PartitionHealth
		var addr string
		reachable := 0
		var lastErr error
		for _, a := range addrs {
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			got, err := cluster.FetchHealth(ctx, nw, self, a)
			cancel()
			if err != nil {
				lastErr = err
				continue
			}
			reachable++
			if ph == nil {
				ph, addr = got, a
			}
		}
		if ph == nil {
			fmt.Printf("shard %d (coordinators %v): UNREACHABLE: %v\n", s, addrs, lastErr)
			continue
		}
		heal := "self-healing"
		if !ph.SelfHealing {
			heal = "manual recovery"
		}
		fmt.Printf("shard %d (coordinator %s): master=%s id=%d epoch=%d wlv=%d [%s]\n",
			s, addr, ph.MasterAddr, ph.MasterID, ph.Epoch, ph.WitnessListVersion, heal)
		if bi := buildInfoLine(book, s, coordinators, timeout); bi != "" {
			fmt.Printf("  %s\n", bi)
		}
		if ph.CoordReplicas > 1 {
			leader := ph.CoordLeaderAddr
			if leader == "" {
				leader = "(election in progress)"
			}
			fmt.Printf("  quorum  %d/%d replicas reachable, leader=%s term=%d commit=%d\n",
				reachable, ph.CoordReplicas, leader, ph.CoordTerm, ph.CoordCommit)
		}
		for _, n := range ph.Nodes {
			if !ph.SelfHealing {
				// No heartbeats to judge liveness by: membership only.
				fmt.Printf("  %-7s %s [registered; heartbeats off]\n", n.Role, n.Addr)
				continue
			}
			fmt.Printf("  %v", n)
			if n.Role == health.RoleMaster && n.Beats > 0 {
				fmt.Printf(" head=%d unsynced=%d flush@%d", n.Last.HeadLSN, n.Last.Unsynced, n.Last.FlushThreshold)
			}
			fmt.Println()
		}
	}
}

// shardCoordAddrs lists shard s's coordinator replica addresses.
func shardCoordAddrs(book addrbook.Book, s, replicas int) []string {
	addrs := make([]string, max(replicas, 1))
	for i := range addrs {
		addrs[i] = book.RPC(s, addrbook.Coordinator, i)
	}
	return addrs
}

func runBench(cl kvClient, n int, opTimeout time.Duration) {
	var h stats.Histogram
	value := workload.Value(1, 100)
	start := time.Now()
	for i := 0; i < n; i++ {
		key := workload.Key(uint64(i), 30)
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		opStart := time.Now()
		_, err := cl.Put(ctx, key, value)
		cancel()
		exitOn(err)
		h.Record(time.Since(opStart).Nanoseconds())
	}
	elapsed := time.Since(start)
	st := cl.Stats()
	fmt.Printf("%d puts in %v (%.0f ops/s)\n", n, elapsed, float64(n)/elapsed.Seconds())
	fmt.Printf("latency p50=%v p90=%v p99=%v\n",
		time.Duration(h.Percentile(50)), time.Duration(h.Percentile(90)), time.Duration(h.Percentile(99)))
	fmt.Printf("fast-path %d (%.1f%%), master-synced %d, slow-path %d, retries %d\n",
		st.FastPath, 100*float64(st.FastPath)/float64(n), st.SyncedByMaster, st.SlowPath, st.Retries)
}

func need(args []string, n int) {
	if len(args) < n {
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: curpctl [-coordinator host:port] [-coordinators R] [-shards N] [-shard i] put|get|del|incr|append|putttl|sadd|srem|smembers|take|shard|bench|status|top|events|hotkeys|trace|rebalance|drain args...")
	fmt.Fprintln(os.Stderr, "       curpctl -coordinator host:port putttl <key> <value> <ttl, e.g. 30s>")
	fmt.Fprintln(os.Stderr, "       curpctl -coordinator host:port take <bucket-key> <tokens>")
	fmt.Fprintln(os.Stderr, "       curpctl -coordinator host:port rebalance <fromShards> <toShards>")
	fmt.Fprintln(os.Stderr, "       curpctl -coordinator host:port drain <fromShards> <toShards>")
	fmt.Fprintln(os.Stderr, "       curpctl -coordinator host:port -shards N -coordinators R status")
	fmt.Fprintln(os.Stderr, "       curpctl -coordinator host:port -shards N top [interval [iterations]]")
	fmt.Fprintln(os.Stderr, "       curpctl -coordinator host:port -shards N -f F trace [trace-id]")
	fmt.Fprintln(os.Stderr, "       curpctl -coordinator host:port -shards N -f F events [--follow [interval]]")
	fmt.Fprintln(os.Stderr, "       curpctl -coordinator host:port -shards N hotkeys")
	os.Exit(2)
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}
