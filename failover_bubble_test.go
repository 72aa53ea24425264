//go:build goexperiment.synctest

package curp

// Recovery windows and path costs, measured in virtual time. Every test
// here boots the unmodified public API inside a simtest bubble, where the
// clock advances only when the whole cluster is blocked: a duration is a
// property of the protocol (timeouts, heartbeats, link delays), not of the
// host, so the bounds below are formulas over the configuration, not
// tolerances, and no assertion reads the wall clock. Run with
//
//	GOEXPERIMENT=synctest go test -race -run Bubble .
//
// Each test t.Logf-s what it measured, so CI logs keep the trajectory.

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"curp/internal/core"
	"curp/internal/simtest"
)

// The recovery scenarios' deployment: one F=3 partition, every link 1 ms
// one way.
const (
	healF         = 3
	healOneWay    = time.Millisecond
	healRTT       = 2 * healOneWay
	healHeartbeat = 10 * time.Millisecond
	healFailAfter = 100 * time.Millisecond
	healElection  = 300 * time.Millisecond
	healKeys      = 20
)

func uniformLinks(oneWay time.Duration) func(from, to string) time.Duration {
	return func(string, string) time.Duration { return oneWay }
}

// healMark is one successful self-healing event and the virtual instant
// the cluster reported it.
type healMark struct {
	FailoverEvent
	at time.Time
}

// healing is a self-healing partition with a client and healKeys keys
// already written through it.
type healing struct {
	t        *testing.T
	c        *ShardedCluster
	cl       *ShardedClient
	replicas int

	mu    sync.Mutex
	marks []healMark
}

func startHealing(t *testing.T, replicas int) *healing {
	h := &healing{t: t, replicas: replicas}
	c, err := StartSharded(Options{
		F: healF, Shards: 1,
		SelfHealing:                 true,
		HeartbeatInterval:           healHeartbeat,
		FailoverAfter:               healFailAfter,
		ControlPlaneReplicas:        replicas,
		ControlPlaneElectionTimeout: healElection,
		Latency:                     uniformLinks(healOneWay),
		OnFailover: func(ev FailoverEvent) {
			if ev.Err == nil {
				h.mu.Lock()
				h.marks = append(h.marks, healMark{ev, time.Now()})
				h.mu.Unlock()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h.c = c
	if h.cl, err = c.NewClient("bubble-client"); err != nil {
		c.Close()
		t.Fatal(err)
	}
	for i := 0; i < healKeys; i++ {
		if _, err := h.cl.Put(context.Background(), healKey(i), healKey(i)); err != nil {
			h.close()
			t.Fatal(err)
		}
	}
	return h
}

func healKey(i int) []byte { return []byte(fmt.Sprintf("before-%d", i)) }

func (h *healing) close() {
	h.cl.Close()
	h.c.Close()
}

// putAfter issues one blocking Put now and returns how long after since it
// completed: the unavailability window when since is the kill.
func (h *healing) putAfter(since time.Time, key string) time.Duration {
	h.t.Helper()
	if _, err := h.cl.Put(context.Background(), []byte(key), []byte("v")); err != nil {
		h.t.Fatalf("put after the kill: %v", err)
	}
	return time.Since(since)
}

// find returns the first successful event of the given kind, if any yet.
func (h *healing) find(kind string) (healMark, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, m := range h.marks {
		if m.Kind == kind {
			return m, true
		}
	}
	return healMark{}, false
}

// mark is find for an event that must have happened.
func (h *healing) mark(kind string) healMark {
	h.t.Helper()
	m, ok := h.find(kind)
	if !ok {
		h.t.Fatalf("no %s event", kind)
	}
	return m
}

// assertReadable checks §3.2's promise across the recovery: every write
// completed before the kill is still there.
func (h *healing) assertReadable() {
	h.t.Helper()
	for i := 0; i < healKeys; i++ {
		v, ok, err := h.cl.Get(context.Background(), healKey(i))
		if err != nil || !ok || string(v) != string(healKey(i)) {
			h.t.Errorf("key %s after recovery: %q found=%v err=%v", healKey(i), v, ok, err)
		}
	}
}

// beatGap is the longest a live node leaves a coordinator replica without
// a beat: the beater's jitter ceiling (1.25 × the interval, health.Beater)
// plus one blocking beat call per replica. The detector counts silence
// from a beat's arrival and the kill can come just before the next one
// leaves, so this much of FailoverAfter may already be spent at the kill.
func (h *healing) beatGap() time.Duration {
	return healHeartbeat*5/4 + time.Duration(h.replicas)*healRTT
}

// detectCeil is the longest a dead master goes undeclared when a
// lease-holding coordinator is watching: FailoverAfter of silence counted
// from a beat that was already in flight at the kill (one link delay), then
// the next detector scan (one per HeartbeatInterval).
const detectCeil = healFailAfter + healOneWay + healHeartbeat

// masterHealRTTs is the round trips one master recovery spends between the
// verdict and the published replacement (FailoverEvent.Window), whatever F
// is — every per-member step is one scatter: fence the backups (1), probe
// their LSNs (1), pull the most advanced one's state (1 per chunk; this
// state is one chunk), the witness's recovery data (1), re-seed the backups
// in parallel (2: the install request, and inside it the backup's pull of
// one chunk), the final sync (1), end the old witnesses (1), start the new
// ones (1); plus the epoch reservation and the publication, each a quorum
// commit when the control plane is replicated (2).
//
// PAPER §3.3: restore from a backup, replay one witness, sync. What this
// adds is the fence and the witness turnover (§4.7, §3.6) and what is still
// serial: the probe does not ride the fence's replies, and a seed's first
// chunk does not ride its request.
func (h *healing) masterHealRTTs() int {
	n := 9
	if h.replicas > 1 {
		n += 2
	}
	return n
}

// worstPause is the longest client retry pause that can still be running
// at instant p after the client's first failed attempt: pauses double from
// RetryBackoff to MaxRetryBackoff and each lasts between half and all of
// its nominal length (core.PauseJittered), so the k-th cannot begin before
// half of all earlier ones have elapsed.
func worstPause(p time.Duration) time.Duration {
	cfg := core.DefaultClientConfig()
	var begun, worst time.Duration
	for d := cfg.RetryBackoff; begun < p; d = min(2*d, cfg.MaxRetryBackoff) {
		worst = d
		begun += d / 2
	}
	return worst
}

// slowPutRTTs is the cost of a put the client must sync explicitly: the
// update ‖ records (1), then the sync RPC (1) inside which the master
// appends to its backups (1). The witness gc is the sync's tail; the reply
// does not wait for it.
//
// PAPER §3.2.1: the slow path is 3 round trips.
const slowPutRTTs = 3

// catchUpCeil is the longest a blocked client takes to notice a
// replacement published at instant p after the kill: the retry pause it is
// in, a view fetch (two tries when the replica it stuck to died), and the
// put itself, priced at the slow path.
func catchUpCeil(p time.Duration, viewTries int) time.Duration {
	return worstPause(p) + time.Duration(viewTries+slowPutRTTs)*healRTT
}

// TestBubbleMasterKillWindow: the master dies with a client mid-stream and
// nobody calls Recover. Unavailability = detection + recovery + the
// client's catch-up, each inside its own bound.
func TestBubbleMasterKillWindow(t *testing.T) {
	for _, replicas := range []int{1, 3} {
		t.Run(fmt.Sprintf("coordinators=%d", replicas), func(t *testing.T) {
			simtest.Run(t, func() {
				h := startHealing(t, replicas)
				defer h.close()

				kill := time.Now()
				h.c.CrashMaster(0)
				window := h.putAfter(kill, "after-master-kill")

				ev := h.mark("master-failover")
				published := ev.at.Sub(kill)
				detected := published - ev.Window
				t.Logf("master kill: unavailable %v = detected +%v, healed in %v (%d RTT), client caught up %v later",
					window, detected, ev.Window, ev.Window/healRTT, window-published)

				if floor := healFailAfter - h.beatGap(); detected < floor {
					t.Errorf("declared dead %v after the kill, before %v of silence were possible", detected, floor)
				}
				if detected > detectCeil {
					t.Errorf("declared dead %v after the kill, bound %v", detected, detectCeil)
				}
				healCeil := time.Duration(h.masterHealRTTs()) * healRTT
				if ev.Window > healCeil {
					t.Errorf("recovery took %v, bound %v (%d RTT)", ev.Window, healCeil, h.masterHealRTTs())
				}
				// The floor: a verdict cannot precede FailoverAfter − beatGap,
				// and the recovery it starts costs more than the beatGap −
				// HeartbeatInterval that separates that from the round figure.
				if floor := healFailAfter - healHeartbeat; window < floor {
					t.Errorf("unavailable for %v, faster than detection allows (%v)", window, floor)
				}
				ceil := detectCeil + healCeil
				ceil += catchUpCeil(ceil, 1)
				if window > ceil {
					t.Errorf("unavailable for %v, bound %v", window, ceil)
				}
				h.assertReadable()
			})
		})
	}
}

// TestBubbleWitnessKillWindow: a witness dies. Nothing waits for the
// reconfiguration — §3.2.1's slow path covers the gap — so the first put
// after the kill pays a sync and nothing more, and the put that straddles
// the witness-list bump pays one bounce.
func TestBubbleWitnessKillWindow(t *testing.T) {
	simtest.Run(t, func() {
		h := startHealing(t, 1)
		defer h.close()

		kill := time.Now()
		h.c.CrashWitness(0, 0)
		window := h.putAfter(kill, "after-witness-kill-0")
		t.Logf("witness kill: first put completed after %v (%d RTT)", window, window/healRTT)
		if ceil := slowPutRTTs * healRTT; window > ceil {
			t.Errorf("first put after a witness kill took %v, bound %v: it must not wait for the replacement", window, ceil)
		}

		// Keep writing until the replacement is in service, and twice more:
		// the client still holds the old view then. The worst put is the one
		// the master bounces with a stale witness list: the bounce (1 RTT),
		// the first retry pause, a view fetch (1 RTT) and the put again, on
		// the slow path because two witnesses still hold the first try's
		// record.
		bounceCeil := healRTT + core.DefaultClientConfig().RetryBackoff + healRTT + slowPutRTTs*healRTT
		var worst time.Duration
		put := func(i int) {
			issued := time.Now()
			worst = max(worst, h.putAfter(issued, fmt.Sprintf("after-witness-kill-%d", i)))
		}
		i := 1
		for ; time.Since(kill) <= detectCeil; i++ {
			put(i)
		}
		put(i)
		put(i + 1)
		ev := h.mark("witness-replaced")
		declared := ev.at.Sub(kill) - ev.Window
		t.Logf("witness kill: declared dead +%v, replaced in %v; slowest put across the swap %v", declared, ev.Window, worst)
		if declared > detectCeil {
			t.Errorf("witness declared dead %v after the kill, bound %v", declared, detectCeil)
		}
		if worst > bounceCeil {
			t.Errorf("slowest put across the witness swap %v, bound %v", worst, bounceCeil)
		}
		h.assertReadable()
	})
}

// electionRound is the longest one election attempt takes to begin: the
// lowest surviving rank stands once ElectionTimeout × (1 + rank/4), plus up
// to a quarter more of jitter drawn once for the silence, has passed since
// it last heard a leader (controlplane.electionLoop sleeps until exactly
// then). Rank 1 is the worst survivor: 6/4.
const electionRound = healElection * (4 + 1 + 1) / 4

// electionRounds is how many attempts the survivors may need: one, as
// Raft's randomised timeouts intend. The rank stagger keeps the survivors'
// ranges apart — rank 1's ends where rank 2's begins — so the lower rank
// has asked for the higher one's vote before that one's timeout lapses.
const electionRounds = 1

// electionCeil is the longest a 3-replica control plane goes without a
// lease-holding leader: the rounds, then the winning round's votes and the
// commit of the new term's barrier entry, which is what grants the lease.
const electionCeil = electionRounds*electionRound + 2*healRTT

// TestBubbleLeaderAndMasterKillQuorum: the coordinator leader dies in the
// same instant as the master it should be replacing. The survivors elect a
// leader whose detector table is already live (every node beats every
// replica), so it heals on its first scan: the window is the election on
// top of a recovery, and the silence the detector needs is spent inside it.
func TestBubbleLeaderAndMasterKillQuorum(t *testing.T) {
	simtest.Run(t, func() {
		h := startHealing(t, 3)
		defer h.close()

		kill := time.Now()
		h.c.CrashCoordinatorLeader(0)
		h.c.CrashMaster(0)
		window := h.putAfter(kill, "after-double-kill")

		ev := h.mark("master-failover")
		published := ev.at.Sub(kill)
		detected := published - ev.Window
		// For the log: which round won, from when its leader began to heal.
		rounds := 1 + int(detected/(electionRound+2*healRTT+healHeartbeat))
		t.Logf("leader + master kill: unavailable %v = new leader healing at +%v (%d election round(s)), healed in %v (%d RTT), client caught up %v later",
			window, detected, rounds, ev.Window, ev.Window/healRTT, window-published)

		// No heal without a lease, no lease without votes, and the
		// survivors grant none until a full ElectionTimeout after they last
		// heard the dead leader — at most one of its heartbeats (a fifth of
		// the timeout) before the kill.
		if floor := healElection * 4 / 5; detected < floor {
			t.Errorf("a new leader was healing %v after the kill; votes are suppressed for %v", detected, floor)
		}
		// The new leader's first scan follows its lease by at most one
		// detector tick.
		healingCeil := electionCeil + healHeartbeat
		if detected > healingCeil {
			t.Errorf("a new leader was healing only %v after the kill, bound %v (%d election rounds)", detected, healingCeil, electionRounds)
		}
		healCeil := time.Duration(h.masterHealRTTs()) * healRTT
		if ev.Window > healCeil {
			t.Errorf("recovery took %v, bound %v (%d RTT)", ev.Window, healCeil, h.masterHealRTTs())
		}
		if floor := healFailAfter - healHeartbeat; window < floor {
			t.Errorf("unavailable for %v, faster than detection allows (%v)", window, floor)
		}
		ceil := healingCeil + healCeil
		ceil += catchUpCeil(ceil, 2)
		if window > ceil {
			t.Errorf("unavailable for %v, bound %v", window, ceil)
		}
		h.assertReadable()
	})
}

// TestBubbleLeaderAndMasterKillSingleCoordinator is the control: with one
// coordinator the same double kill leaves nobody to heal. NOT recovering
// is the expected outcome — it is what ControlPlaneReplicas buys — and a
// put that succeeded here would mean something other than the control
// plane replaced the master.
func TestBubbleLeaderAndMasterKillSingleCoordinator(t *testing.T) {
	// Several times the quorum scenario's bound, and two client retry
	// budgets.
	const budget = 5 * time.Second
	simtest.Run(t, func() {
		h := startHealing(t, 1)
		defer h.close()

		kill := time.Now()
		h.c.CrashCoordinatorLeader(0)
		h.c.CrashMaster(0)
		ctx, cancel := context.WithDeadline(context.Background(), kill.Add(budget))
		defer cancel()
		attempts := 0
		for ctx.Err() == nil {
			attempts++
			if _, err := h.cl.Put(ctx, []byte("after-double-kill"), []byte("v")); err == nil {
				t.Fatalf("a put completed %v after the only coordinator and the master died: who recovered it?", time.Since(kill))
			}
		}
		if ev, ok := h.find("master-failover"); ok {
			t.Errorf("master failover %+v with no coordinator alive", ev.FailoverEvent)
		}
		t.Logf("leader + master kill, one coordinator: still unavailable %v after the kill (%d puts gave up) — expected, nobody is left to heal",
			time.Since(kill), attempts)
	})
}

// TestBubblePathCostsInRTTs is the first rows of the protocol's price list
// (ROADMAP item 3 (ii)): each client-visible path, its cost in round trips
// at 50 ms one way, and the paper's number beside it. Handlers take no
// virtual time, so a duration is a whole number of link delays.
func TestBubblePathCostsInRTTs(t *testing.T) {
	const oneWay = 50 * time.Millisecond
	const rtt = 2 * oneWay
	ctx := context.Background()
	// timed runs op and returns how long it took.
	timed := func(op func() error) time.Duration {
		t.Helper()
		start := time.Now()
		if err := op(); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	// idle lets every sync and gc in flight finish, so the next row does not
	// queue behind one. (In a bubble a sleep costs nothing.)
	idle := func() { time.Sleep(10 * rtt) }

	simtest.Run(t, func() {
		c, err := Start(Options{F: 3, Latency: uniformLinks(oneWay)})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		cl, err := c.NewClient("bubble-client")
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		put := func(key string) func() error {
			return func() error { _, err := cl.Put(ctx, []byte(key), []byte("v")); return err }
		}

		// PAPER §3.2.1: an update that commutes with the unsynced ones
		// completes in 1 RTT — the master's speculative reply and f witness
		// accepts, in parallel. One put in twenty may pay a second round
		// trip today (ROADMAP item 3 (i)'s "1.05").
		extra := 0
		for i := 0; i < 20; i++ {
			switch d := timed(put(fmt.Sprintf("distinct-%d", i))); d {
			case rtt:
			case 2 * rtt:
				extra++
				// Seen so far: put 0 only — the client's first operation
				// fetches its view from the coordinator before it can send
				// anything (coordViewProvider.View caches from then on).
				t.Logf("distinct-key put %d: 2 RTT (paper: 1)", i)
			default:
				t.Errorf("distinct-key put %d: %v = %.2f RTT, paper: 1", i, d, float64(d)/float64(rtt))
			}
		}
		if extra > 1 {
			t.Errorf("%d of 20 distinct-key puts paid a second RTT, at most 1 may", extra)
		}
		t.Logf("distinct-key put: 1 RTT (paper: 1), %d of 20 paid a second", extra)

		// PAPER §3.2.3: an update that does not commute with an unsynced one
		// is synced before the master replies: 2 RTT — the update, and the
		// backup append inside it. The reply leaves at the sync's durable
		// point; the witness gc is its tail. On an idle master that is exact:
		// a fresh key is not hot, so nothing syncs it in the background and
		// its re-put finds the slot free.
		idle()
		if d := timed(put("fresh-key")); d != rtt {
			t.Errorf("put of a fresh key: %v, want 1 RTT", d)
		}
		reput := timed(put("fresh-key"))
		t.Logf("re-put of a fresh key on an idle master: %d RTT (paper: 2)", reput/rtt)
		if reput != 2*rtt {
			t.Errorf("re-put of a fresh key on an idle master: %v = %.2f RTT, want 2", reput, float64(reput)/float64(rtt))
		}

		// Back-to-back blocking puts of one key alternate between finding the
		// predecessor already synced in the background (1 RTT) and not.
		//
		// DEVIATION: behind an in-flight background sync the conflicting put
		// costs up to 3 RTT, not 2: the key is hot by now, the predecessor's
		// background sync holds the one sync slot through its gc tail, and
		// the put's own append starts only when that tail ends (ROADMAP
		// item 3 (i): releasing the slot at the durable point was measured
		// and costs ycsb-a its fast path).
		const conflictCeil = 3 * rtt
		lo, hi := time.Duration(1<<62), time.Duration(0)
		for i := 0; i < 10; i++ {
			d := timed(put("same-key"))
			lo, hi = min(lo, d), max(hi, d)
		}
		t.Logf("same-key put: %d–%d RTT (paper: 1–2)", lo/rtt, hi/rtt)
		if lo != rtt {
			t.Errorf("cheapest same-key put %v, want 1 RTT: the predecessor was synced in the background", lo)
		}
		if hi > conflictCeil {
			t.Errorf("dearest same-key put %v = %.2f RTT, bound %d (paper: 2)", hi, float64(hi)/float64(rtt), conflictCeil/rtt)
		}

		// PAPER §3.2.3: a read of a synced key is one round trip to the
		// master.
		idle()
		get := timed(func() error { _, _, err := cl.Get(ctx, []byte("distinct-7")); return err })
		t.Logf("get at the master: %d RTT (paper: 1)", get/rtt)
		if get != rtt {
			t.Errorf("get of a synced key: %v, want 1 RTT", get)
		}
	})

	// What the retired `curpbench -experiment txn` compared as throughput.
	simtest.Run(t, func() {
		c, err := StartSharded(Options{F: 3, Shards: 2, Latency: uniformLinks(oneWay)})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		cl, err := c.NewClient("bubble-client")
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		// Four keys per shard: one put through each shard, so that the view
		// fetch priced above is not billed to a commit, and fresh keys for
		// every commit, so that none conflicts with an unsynced write.
		var on [2][]string
		for i := 0; len(on[0]) < 4 || len(on[1]) < 4; i++ {
			k := fmt.Sprintf("account-%d", i)
			s := c.ShardFor([]byte(k))
			on[s] = append(on[s], k)
		}
		for s := range on {
			if _, err := cl.Put(ctx, []byte(on[s][0]), []byte("0")); err != nil {
				t.Fatal(err)
			}
		}
		commit := func(a, b string) func() error {
			return func() error {
				tx := cl.Txn()
				tx.Put([]byte(a), []byte("v"))
				tx.Increment([]byte(b), 1)
				return tx.Commit(ctx)
			}
		}

		// PAPER §3.2.1: a transaction whose keys share a shard is ONE
		// commutative CURP update, so it completes like one.
		idle()
		single := timed(commit(on[0][1], on[0][2]))
		t.Logf("single-shard commit: %d RTT (a CURP update: 1)", single/rtt)
		if single != rtt {
			t.Errorf("single-shard commit: %v, want 1 RTT", single)
		}

		// The paper has no multi-partition transactions. This one is
		// client-driven 2PC over CURP: prepare on every shard in parallel,
		// the decision recorded on the home shard as an ordinary update
		// (1 RTT, witness-backed), then decide on every shard in parallel.
		// Prepare and decide are synced before the master replies: 2 RTT
		// each, so 2 + 1 + 2 = 5.
		//
		// DEVIATION: 6, not 5. The home shard's decide costs 3: its sync
		// queues behind the gc tail of the background sync the decision
		// record just kicked (two writes to the home key's hash make it look
		// hot). A ratchet, lowered by the PR that stops that sync (ROADMAP
		// item 3 (i)).
		const crossRTTs = 6
		idle()
		cross := timed(commit(on[0][3], on[1][1]))
		t.Logf("cross-shard commit: %d RTT (prepare 2 + decision 1 + decide 3; 2 + 1 + 2 would do)", cross/rtt)
		if cross != crossRTTs*rtt {
			t.Errorf("cross-shard commit: %v = %.2f RTT, want %d", cross, float64(cross)/float64(rtt), crossRTTs)
		}
	})
}
