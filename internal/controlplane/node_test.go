package controlplane

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// memNet is an in-process Sender: it routes consensus RPCs straight to the
// target node's handlers, with a per-address partition switch.
type memNet struct {
	mu    sync.Mutex
	nodes map[string]*Node
	down  map[string]bool
}

func newMemNet() *memNet {
	return &memNet{nodes: make(map[string]*Node), down: make(map[string]bool)}
}

func (m *memNet) lookup(addr string) *Node {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.down[addr] {
		return nil
	}
	return m.nodes[addr]
}

func (m *memNet) setDown(addr string, down bool) {
	m.mu.Lock()
	m.down[addr] = down
	m.mu.Unlock()
}

// memSender is one node's view of the net: a partitioned node can neither
// receive nor send.
type memSender struct {
	net  *memNet
	self string
}

func (s *memSender) AppendEntries(_ context.Context, addr string, req *AppendRequest) (*AppendReply, error) {
	n := s.net.lookup(addr)
	if n == nil || s.net.lookup(s.self) == nil {
		return nil, errors.New("memnet: unreachable")
	}
	// Round-trip through the wire codecs so they stay honest.
	wire, err := DecodeAppendRequest(req.Encode())
	if err != nil {
		return nil, err
	}
	reply := n.HandleAppend(wire)
	return DecodeAppendReply(reply.Encode())
}

func (s *memSender) RequestVote(_ context.Context, addr string, req *VoteRequest) (*VoteReply, error) {
	n := s.net.lookup(addr)
	if n == nil || s.net.lookup(s.self) == nil {
		return nil, errors.New("memnet: unreachable")
	}
	wire, err := DecodeVoteRequest(req.Encode())
	if err != nil {
		return nil, err
	}
	reply := n.HandleVote(wire)
	return DecodeVoteReply(reply.Encode())
}

func startQuorum(t *testing.T, replicas int) (*memNet, []*Node) {
	t.Helper()
	net := newMemNet()
	peers := make([]string, replicas)
	for i := range peers {
		peers[i] = string(rune('a' + i))
	}
	nodes := make([]*Node, replicas)
	for i := range nodes {
		n, err := NewNode(Config{
			Rank:            i,
			Peers:           peers,
			Send:            &memSender{net: net, self: peers[i]},
			ElectionTimeout: 60 * time.Millisecond,
			Seeded:          true,
		})
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		nodes[i] = n
		net.mu.Lock()
		net.nodes[peers[i]] = n
		net.mu.Unlock()
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Close()
		}
	})
	return net, nodes
}

func waitLeader(t *testing.T, nodes []*Node, exclude int) *Node {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for i, n := range nodes {
			if i == exclude {
				continue
			}
			if n.HoldingLease() {
				return n
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("no leader emerged")
	return nil
}

func TestSingleReplicaCommitsInline(t *testing.T) {
	_, nodes := startQuorum(t, 1)
	n := nodes[0]
	if !n.HoldingLease() {
		t.Fatal("single replica should hold the lease unconditionally")
	}
	res, err := n.Propose(context.Background(), &Command{Kind: CmdRegisterClient})
	if err != nil || res != 1 {
		t.Fatalf("propose = (%d, %v), want (1, nil)", res, err)
	}
}

func TestQuorumCommitAndMirror(t *testing.T) {
	_, nodes := startQuorum(t, 3)
	leader := waitLeader(t, nodes, -1)
	if _, err := leader.Propose(context.Background(), &Command{
		Kind: CmdAddPartition, Partition: 1, Epoch: 1, WLV: 1, Addr: "m1",
		Witnesses: []string{"w1"}, Backups: []string{"b1"},
	}); err != nil {
		t.Fatalf("propose: %v", err)
	}
	// Followers converge to the same applied state.
	deadline := time.Now().Add(3 * time.Second)
	for _, n := range nodes {
		for {
			var ok bool
			n.View(func(st *State) {
				p := st.Partitions[1]
				ok = p != nil && p.MasterAddr == "m1" && p.WLV == 1
			})
			if ok {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("replica %d never applied the partition", n.cfg.Rank)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	// Deterministic apply error propagates back through Propose.
	if _, err := leader.Propose(context.Background(), &Command{
		Kind: CmdSetWitnessList, Partition: 1, WLV: 9,
	}); !errors.Is(err, ErrStale) {
		t.Fatalf("stale proposal err = %v, want ErrStale", err)
	}
}

func TestFollowerRejectsProposals(t *testing.T) {
	_, nodes := startQuorum(t, 3)
	leader := waitLeader(t, nodes, -1)
	for _, n := range nodes {
		if n == leader {
			continue
		}
		_, err := n.Propose(context.Background(), &Command{Kind: CmdNoop})
		var nle *NotLeaderError
		if !errors.As(err, &nle) {
			t.Fatalf("follower propose err = %v, want NotLeaderError", err)
		}
		if nle.LeaderAddr != leader.Addr() {
			t.Fatalf("redirect hint = %q, want %q", nle.LeaderAddr, leader.Addr())
		}
	}
}

func TestLeaderFailover(t *testing.T) {
	net, nodes := startQuorum(t, 3)
	old := waitLeader(t, nodes, -1)
	if _, err := old.Propose(context.Background(), &Command{Kind: CmdRegisterClient}); err != nil {
		t.Fatalf("propose before failover: %v", err)
	}
	net.setDown(old.Addr(), true)
	// Lease exclusivity: until the old lease can have expired AND a new
	// election concluded, at most one node claims the lease at any instant.
	succ := waitLeader(t, nodes, old.cfg.Rank)
	if succ == old {
		t.Fatal("partitioned leader should not be the successor")
	}
	// The successor's log retained the committed entry.
	res, err := succ.Propose(context.Background(), &Command{Kind: CmdRegisterClient})
	if err != nil {
		t.Fatalf("propose after failover: %v", err)
	}
	if res != 2 {
		t.Fatalf("client seq after failover = %d, want 2 (committed entry lost?)", res)
	}
	// The deposed leader rejoins as a follower and catches up.
	net.setDown(old.Addr(), false)
	deadline := time.Now().Add(3 * time.Second)
	for {
		st := old.Status()
		if !st.IsLeader && st.Commit >= succ.Status().Commit {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("old leader never rejoined: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestLeaseExclusive(t *testing.T) {
	net, nodes := startQuorum(t, 3)
	old := waitLeader(t, nodes, -1)
	net.setDown(old.Addr(), true)
	waitLeader(t, nodes, old.cfg.Rank)
	// The cut-off leader's lease must have lapsed by the time a successor
	// could win an election — this is the no-dual-depose invariant.
	if old.HoldingLease() {
		t.Fatal("deposed leader still claims the lease while a successor leads")
	}
}

func TestRestartRebuildsFromLog(t *testing.T) {
	net, nodes := startQuorum(t, 3)
	leader := waitLeader(t, nodes, -1)
	for i := 0; i < 5; i++ {
		if _, err := leader.Propose(context.Background(), &Command{Kind: CmdRegisterClient}); err != nil {
			t.Fatalf("propose %d: %v", i, err)
		}
	}
	if _, err := leader.Propose(context.Background(), &Command{
		Kind: CmdAddPartition, Partition: 4, Epoch: 2, WLV: 1, Addr: "m4",
	}); err != nil {
		t.Fatalf("propose partition: %v", err)
	}

	// "Restart" a follower: replace it with a blank replica that has NO
	// state — it must rebuild purely from the leader's replicated log.
	victim := (leader.cfg.Rank + 1) % 3
	nodes[victim].Close()
	var applied atomic.Int64
	fresh, err := NewNode(Config{
		Rank:            victim,
		Peers:           leader.cfg.Peers,
		Send:            &memSender{net: net, self: leader.cfg.Peers[victim]},
		ElectionTimeout: 60 * time.Millisecond,
		Apply:           func(*Command, *Partition, *Partition, uint64, error) { applied.Add(1) },
	})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer fresh.Close()
	net.mu.Lock()
	net.nodes[leader.cfg.Peers[victim]] = fresh
	net.mu.Unlock()

	deadline := time.Now().Add(3 * time.Second)
	for {
		var ok bool
		fresh.View(func(st *State) {
			ok = st.ClientSeq == 5 && st.Partitions[4] != nil && st.Partitions[4].MasterAddr == "m4"
		})
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarted replica never rebuilt state; status %+v", fresh.Status())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if applied.Load() == 0 {
		t.Fatal("apply callback never observed the rebuilt log")
	}
}

func TestProposeContextCancel(t *testing.T) {
	net, nodes := startQuorum(t, 3)
	leader := waitLeader(t, nodes, -1)
	// Cut the leader off so nothing can commit, then propose with a short
	// deadline: Propose must return the context error, not hang.
	for _, p := range leader.cfg.Peers {
		if p != leader.Addr() {
			net.setDown(p, true)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := leader.Propose(ctx, &Command{Kind: CmdNoop})
	if err == nil {
		t.Fatal("propose with no quorum should fail")
	}
}

// TestApplyHandsBeforeAndAfterRecords pins the Apply callback's contract:
// each committed command arrives with its partition record as it was before
// the command and as it is after, both detached from the live state; stale
// commands arrive with their error and an unchanged record.
func TestApplyHandsBeforeAndAfterRecords(t *testing.T) {
	type seen struct {
		kind       Kind
		prev, next *Partition
		err        error
	}
	var got []seen
	n, err := NewNode(Config{
		Peers:  []string{"solo"},
		Seeded: true,
		Apply: func(c *Command, prev, next *Partition, _ uint64, err error) {
			got = append(got, seen{c.Kind, prev, next, err})
			if next != nil {
				next.MasterAddr = "tampered" // must not reach the state
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	ctx := context.Background()
	propose := func(c Command) {
		t.Helper()
		if _, err := n.Propose(ctx, &c); err != nil && !errors.Is(err, ErrStale) {
			t.Fatalf("propose %v: %v", c.Kind, err)
		}
	}
	propose(Command{Kind: CmdAddPartition, Partition: 1, Epoch: 1, WLV: 1, Addr: "m1", Witnesses: []string{"w1"}})
	propose(Command{Kind: CmdRegisterClient})
	propose(Command{Kind: CmdBeginRecovery, Partition: 1, Epoch: 2, Addr: "m2"})
	propose(Command{Kind: CmdSetMaster, Partition: 1, Epoch: 2, WLV: 2, Addr: "m2", Witnesses: []string{"w2"}})
	propose(Command{Kind: CmdSetWitnessList, Partition: 1, WLV: 9}) // stale

	// The seeded leader's noop barrier comes first.
	if len(got) != 6 || got[0].kind != CmdNoop {
		t.Fatalf("apply saw %d commands (first %v), want noop + 5", len(got), got[0].kind)
	}
	if add := got[1]; add.prev != nil || add.next == nil || add.next.Witnesses[0] != "w1" {
		t.Fatalf("add-partition: prev %+v next %+v, want nil -> m1", add.prev, add.next)
	}
	if reg := got[2]; reg.prev != nil || reg.next != nil {
		t.Fatalf("register-client names no partition, got prev %+v next %+v", reg.prev, reg.next)
	}
	set := got[4]
	if set.prev == nil || set.prev.MasterAddr != "m1" || set.prev.Epoch != 1 || set.prev.ReservedEpoch != 2 {
		t.Fatalf("set-master prev = %+v, want m1 at epoch 1 with epoch 2 reserved", set.prev)
	}
	if set.next == nil || set.next.Epoch != 2 || set.next.WLV != 2 || set.next.Witnesses[0] != "w2" {
		t.Fatalf("set-master next = %+v, want epoch 2, wlv 2, [w2]", set.next)
	}
	if stale := got[5]; !errors.Is(stale.err, ErrStale) || stale.prev.WLV != 2 || stale.next.WLV != 2 {
		t.Fatalf("stale command: err %v prev %+v next %+v, want ErrStale and an unchanged record", stale.err, stale.prev, stale.next)
	}
	n.View(func(st *State) {
		if a := st.Partitions[1].MasterAddr; a != "m2" {
			t.Fatalf("callback's mutation leaked into the state: master %q", a)
		}
	})
}
