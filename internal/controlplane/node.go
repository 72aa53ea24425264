package controlplane

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"curp/internal/consensus"
	"curp/internal/rpc"
)

// Entry is one slot of the replicated control log.
type Entry struct {
	Term uint64
	Cmd  Command
}

// AppendRequest is the leader→follower replication call. Control logs are
// small (one entry per reconfiguration event), so the leader ships its
// FULL log each round — the idiom internal/consensus established for the
// data plane — which doubles as state transfer: a restarted replica joins
// empty and rebuilds everything from the first append it accepts.
type AppendRequest struct {
	Term       uint64
	LeaderRank int
	LeaderAddr string
	Entries    []Entry
	Commit     uint64
}

// AppendReply acknowledges a replication round.
type AppendReply struct {
	Term uint64
	OK   bool
}

// VoteRequest solicits one vote for CandidateRank at Term.
type VoteRequest struct {
	Term          uint64
	CandidateRank int
	LastLogTerm   uint64
	LogLen        uint64
}

// VoteReply carries the voter's verdict.
type VoteReply struct {
	Term    uint64
	Granted bool
}

// Sender delivers consensus RPCs to a peer replica. internal/cluster backs
// it with the RPC layer; tests may back it with direct method calls.
type Sender interface {
	AppendEntries(ctx context.Context, addr string, req *AppendRequest) (*AppendReply, error)
	RequestVote(ctx context.Context, addr string, req *VoteRequest) (*VoteReply, error)
}

// NotLeaderError rejects a proposal at a non-leader replica; LeaderAddr
// (possibly empty during elections) is the redirect hint.
type NotLeaderError struct {
	LeaderAddr string
}

func (e *NotLeaderError) Error() string {
	if e.LeaderAddr == "" {
		return "controlplane: not the leader (no leader known)"
	}
	return "controlplane: not the leader (leader at " + e.LeaderAddr + ")"
}

// ErrLostLeadership reports a proposal whose entry was displaced by a new
// leader before committing; the caller must retry against the new leader.
var ErrLostLeadership = errors.New("controlplane: lost leadership before commit")

// ErrClosed reports use of a closed node.
var ErrClosed = errors.New("controlplane: node closed")

// Config configures one control-plane replica.
type Config struct {
	// Rank is this replica's index into Peers.
	Rank int
	// Peers lists every replica address, self included.
	Peers []string
	// Send delivers consensus RPCs.
	Send Sender
	// Apply observes every committed command in log order, AFTER the
	// node's State applied it, with the deterministic result and deep
	// copies of the command's partition record as it was before the
	// command and as it is after (nil where the partition does not exist;
	// both nil for commands that name none). The cluster coordinator
	// reacts to configuration transitions here. Called with the node lock
	// held; it must not call back into the node.
	Apply func(cmd *Command, prev, next *Partition, result uint64, err error)
	// ElectionTimeout is how long a follower waits without leader contact
	// before standing for election (staggered by rank, jittered). Default
	// 150ms.
	ElectionTimeout time.Duration
	// HeartbeatEvery is the leader's idle replication cadence. Default
	// ElectionTimeout/5.
	HeartbeatEvery time.Duration
	// LeaseDuration is the leader lease: after a majority of replicas
	// acknowledged an append round started at T, the leader may act alone
	// until T+LeaseDuration, because followers suppress votes for
	// ElectionTimeout after leader contact. Must be below ElectionTimeout;
	// default 60% of it.
	LeaseDuration time.Duration
	// Seeded boots rank 0 as leader of term 1 (and everyone else as its
	// follower), skipping the boot-time election — the cluster runtime
	// starts all replicas together and rank 0 registers the partitions.
	Seeded bool
	// OnElection observes this replica winning an election (metrics).
	OnElection func(term uint64)
	// OnStepDown observes this replica losing leadership (a leader or
	// candidate reverting to follower). Called with the node's lock held;
	// it must not block or call back into the node.
	OnStepDown func(term uint64)
	// Logf, when set, receives protocol transition logs.
	Logf func(format string, args ...any)
}

type role uint8

const (
	follower role = iota
	candidate
	leader
)

// Node is one control-plane replica: a raft-style strong leader over the
// full-log replication scheme, applying committed commands to a State.
type Node struct {
	cfg Config

	mu   sync.Mutex
	cond *sync.Cond

	role        role
	term        uint64
	votedFor    int // rank voted for in term; -1 none
	leaderRank  int // -1 unknown
	lastContact time.Time

	log     []Entry
	commit  uint64
	applied uint64
	results []applyOutcome
	st      *State

	// Leader-only volatile state, rebuilt on election win.
	matchLen []uint64
	ackedAt  []time.Time // start time of the last acked append round, per peer

	dirty []chan struct{} // per-peer replication nudges

	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	elections atomic.Uint64
	committed atomic.Uint64
}

type applyOutcome struct {
	res uint64
	err error
}

// NewNode creates and starts a replica.
func NewNode(cfg Config) (*Node, error) {
	if cfg.Rank < 0 || cfg.Rank >= len(cfg.Peers) {
		return nil, fmt.Errorf("controlplane: rank %d outside peer list of %d", cfg.Rank, len(cfg.Peers))
	}
	if cfg.Send == nil && len(cfg.Peers) > 1 {
		return nil, fmt.Errorf("controlplane: multi-replica node needs a Sender")
	}
	if cfg.ElectionTimeout <= 0 {
		cfg.ElectionTimeout = 150 * time.Millisecond
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = cfg.ElectionTimeout / 5
	}
	if cfg.LeaseDuration <= 0 || cfg.LeaseDuration >= cfg.ElectionTimeout {
		cfg.LeaseDuration = cfg.ElectionTimeout * 3 / 5
	}
	n := &Node{
		cfg:        cfg,
		votedFor:   -1,
		leaderRank: -1,
		st:         NewState(),
		matchLen:   make([]uint64, len(cfg.Peers)),
		ackedAt:    make([]time.Time, len(cfg.Peers)),
		dirty:      make([]chan struct{}, len(cfg.Peers)),
		closed:     make(chan struct{}),
	}
	n.cond = sync.NewCond(&n.mu)
	for i := range n.dirty {
		n.dirty[i] = make(chan struct{}, 1)
	}
	if cfg.Seeded {
		n.term = 1
		n.leaderRank = 0
		n.lastContact = time.Now()
		if cfg.Rank == 0 {
			n.role = leader
			n.appendLocked(Command{Kind: CmdNoop})
		}
	}
	for i := range cfg.Peers {
		if i == cfg.Rank {
			continue
		}
		n.wg.Add(1)
		go n.replicate(i)
	}
	n.wg.Add(1)
	go n.electionLoop()
	return n, nil
}

// Close stops the replica's goroutines.
func (n *Node) Close() {
	n.closeOnce.Do(func() { close(n.closed) })
	n.cond.Broadcast()
	n.wg.Wait()
}

// Addr returns this replica's own address.
func (n *Node) Addr() string { return n.cfg.Peers[n.cfg.Rank] }

// Status is a point-in-time snapshot of the replica's protocol state.
type Status struct {
	Rank       int
	Term       uint64
	LeaderRank int
	LeaderAddr string
	IsLeader   bool
	Leased     bool
	Commit     uint64
	LogLen     uint64
	Replicas   int
	Elections  uint64
	Committed  uint64
}

// Status reports the replica's view of the quorum.
func (n *Node) Status() Status {
	n.mu.Lock()
	s := Status{
		Rank:       n.cfg.Rank,
		Term:       n.term,
		LeaderRank: n.leaderRank,
		IsLeader:   n.role == leader,
		Commit:     n.commit,
		LogLen:     uint64(len(n.log)),
		Replicas:   len(n.cfg.Peers),
		Elections:  n.elections.Load(),
		Committed:  n.committed.Load(),
	}
	if n.leaderRank >= 0 && n.leaderRank < len(n.cfg.Peers) {
		s.LeaderAddr = n.cfg.Peers[n.leaderRank]
	}
	leased := n.role == leader && n.leaseDeadlineLocked().After(time.Now())
	n.mu.Unlock()
	s.Leased = leased
	return s
}

// HoldingLease reports whether this replica is the leader AND holds the
// majority-acknowledged lease — the gate heal actions require, so two
// coordinators can never both depose a master.
func (n *Node) HoldingLease() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role == leader && n.leaseDeadlineLocked().After(time.Now())
}

// leaseDeadlineLocked computes the lease expiry: the majority-th most
// recent append-round start time (self counts as "now") plus
// LeaseDuration. A follower that acknowledged a round started at T will
// not grant a vote before T+ElectionTimeout, and any new leader needs a
// majority of votes that must intersect our acknowledged majority — so no
// rival can be elected before the deadline (LeaseDuration <
// ElectionTimeout keeps a margin for clock arithmetic drift).
func (n *Node) leaseDeadlineLocked() time.Time {
	if len(n.cfg.Peers) == 1 {
		return time.Now().Add(n.cfg.LeaseDuration)
	}
	times := make([]time.Time, 0, len(n.cfg.Peers))
	for i := range n.cfg.Peers {
		if i == n.cfg.Rank {
			times = append(times, time.Now())
		} else {
			times = append(times, n.ackedAt[i])
		}
	}
	sort.Slice(times, func(i, j int) bool { return times[i].After(times[j]) })
	return times[consensus.QuorumSize(len(n.cfg.Peers))-1].Add(n.cfg.LeaseDuration)
}

// View runs f with the node's applied State under the lock. f must not
// retain references into the state.
func (n *Node) View(f func(*State)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	f(n.st)
}

// Propose appends cmd at the leader, waits for majority commit, and
// returns the deterministic apply outcome. At a follower it fails with
// *NotLeaderError carrying the redirect hint.
func (n *Node) Propose(ctx context.Context, cmd *Command) (uint64, error) {
	n.mu.Lock()
	if n.role != leader {
		var hint string
		if n.leaderRank >= 0 && n.leaderRank != n.cfg.Rank {
			hint = n.cfg.Peers[n.leaderRank]
		}
		n.mu.Unlock()
		return 0, &NotLeaderError{LeaderAddr: hint}
	}
	term := n.term
	index := n.appendLocked(*cmd)
	n.mu.Unlock()
	n.nudgeAll()

	// Wake the wait loop when the caller gives up.
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			n.cond.Broadcast()
		case <-watchDone:
		case <-n.closed:
		}
	}()

	n.mu.Lock()
	defer n.mu.Unlock()
	for n.commit < index {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		select {
		case <-n.closed:
			return 0, ErrClosed
		default:
		}
		if n.term != term || n.role != leader {
			// A new leader may have displaced (or may yet displace) our
			// uncommitted entry; the caller must re-propose.
			if uint64(len(n.log)) < index || n.log[index-1].Term != term {
				return 0, ErrLostLeadership
			}
			if n.commit >= index {
				break
			}
			return 0, ErrLostLeadership
		}
		n.cond.Wait()
	}
	if n.log[index-1].Term != term {
		return 0, ErrLostLeadership
	}
	out := n.results[index-1]
	return out.res, out.err
}

// appendLocked appends a leader entry and self-matches it.
func (n *Node) appendLocked(cmd Command) uint64 {
	n.log = append(n.log, Entry{Term: n.term, Cmd: cmd})
	n.results = append(n.results, applyOutcome{})
	index := uint64(len(n.log))
	n.matchLen[n.cfg.Rank] = index
	if len(n.cfg.Peers) == 1 {
		n.advanceCommitLocked()
	}
	return index
}

func (n *Node) nudgeAll() {
	for i := range n.dirty {
		if i == n.cfg.Rank {
			continue
		}
		select {
		case n.dirty[i] <- struct{}{}:
		default:
		}
	}
}

// advanceCommitLocked applies Raft's commit rule: the largest index
// matched on a majority whose entry is of the CURRENT term.
func (n *Node) advanceCommitLocked() {
	if n.role != leader {
		return
	}
	lens := append([]uint64(nil), n.matchLen...)
	sort.Slice(lens, func(i, j int) bool { return lens[i] > lens[j] })
	cand := lens[consensus.QuorumSize(len(n.cfg.Peers))-1]
	if cand > n.commit && n.log[cand-1].Term == n.term {
		n.commit = cand
		n.applyLocked()
		n.cond.Broadcast()
		// Tell the followers now: they apply (and serve reads from) what
		// they know is committed, and would otherwise learn it a whole
		// heartbeat late.
		n.nudgeAll()
	}
}

// applyLocked applies committed entries to the State, records per-index
// outcomes, and hands the Apply callback each command's before/after
// partition records (control commands are rare; the two clones are cheap).
func (n *Node) applyLocked() {
	for n.applied < n.commit {
		en := &n.log[n.applied]
		var prev *Partition
		if n.cfg.Apply != nil {
			prev = n.st.Partition(en.Cmd.Partition)
		}
		res, err := n.st.Apply(&en.Cmd)
		n.results[n.applied] = applyOutcome{res: res, err: err}
		n.applied++
		n.committed.Add(1)
		if n.cfg.Apply != nil {
			n.cfg.Apply(&en.Cmd, prev, n.st.Partition(en.Cmd.Partition), res, err)
		}
	}
}

// replicate is the resident per-peer replication loop: it pushes the full
// log on every nudge and at the heartbeat cadence while this replica
// leads.
func (n *Node) replicate(peer int) {
	defer n.wg.Done()
	ticker := time.NewTicker(n.cfg.HeartbeatEvery)
	defer ticker.Stop()
	for {
		select {
		case <-n.closed:
			return
		case <-n.dirty[peer]:
		case <-ticker.C:
		}
		n.mu.Lock()
		if n.role != leader {
			n.mu.Unlock()
			continue
		}
		req := &AppendRequest{
			Term:       n.term,
			LeaderRank: n.cfg.Rank,
			LeaderAddr: n.cfg.Peers[n.cfg.Rank],
			Entries:    append([]Entry(nil), n.log...),
			Commit:     n.commit,
		}
		n.mu.Unlock()

		roundStart := time.Now()
		ctx, cancel := context.WithTimeout(context.Background(), n.cfg.ElectionTimeout/2)
		reply, err := n.cfg.Send.AppendEntries(ctx, n.cfg.Peers[peer], req)
		cancel()
		if err != nil || reply == nil {
			continue
		}

		n.mu.Lock()
		switch {
		case reply.Term > n.term:
			n.stepDownLocked(reply.Term)
		case reply.OK && n.role == leader && n.term == req.Term:
			if l := uint64(len(req.Entries)); l > n.matchLen[peer] {
				n.matchLen[peer] = l
			}
			n.ackedAt[peer] = roundStart
			n.advanceCommitLocked()
		}
		n.mu.Unlock()
	}
}

func (n *Node) stepDownLocked(term uint64) {
	if term > n.term {
		n.term = term
		n.votedFor = -1
	}
	if n.role == leader || n.role == candidate {
		n.logf("rank %d stepping down at term %d", n.cfg.Rank, n.term)
		if n.role == leader && n.cfg.OnStepDown != nil {
			n.cfg.OnStepDown(n.term)
		}
	}
	n.role = follower
	n.leaderRank = -1
	n.cond.Broadcast()
}

// HandleAppend is the follower half of replication, invoked by the RPC
// layer (or directly, in tests).
func (n *Node) HandleAppend(req *AppendRequest) *AppendReply {
	n.mu.Lock()
	defer n.mu.Unlock()
	if req.Term < n.term {
		return &AppendReply{Term: n.term}
	}
	if req.Term > n.term {
		n.term = req.Term
		n.votedFor = -1
	}
	n.role = follower
	n.leaderRank = req.LeaderRank
	n.lastContact = time.Now()

	// Adopt the leader's log unless ours is more up-to-date (a delayed,
	// shorter append from the same term must not roll us back).
	var reqLast, myLast uint64
	if len(req.Entries) > 0 {
		reqLast = req.Entries[len(req.Entries)-1].Term
	}
	if len(n.log) > 0 {
		myLast = n.log[len(n.log)-1].Term
	}
	if consensus.LogUpToDate(reqLast, len(req.Entries), myLast, len(n.log)) {
		n.log = append(n.log[:0], req.Entries...)
		// Outcomes beyond the applied prefix belong to displaced entries;
		// reset them so apply refills the live ones.
		n.results = append(n.results[:n.applied], make([]applyOutcome, len(n.log)-int(n.applied))...)
	}
	commit := req.Commit
	if l := uint64(len(n.log)); commit > l {
		commit = l
	}
	if commit > n.commit {
		n.commit = commit
		n.applyLocked()
		n.cond.Broadcast()
	}
	return &AppendReply{Term: n.term, OK: true}
}

// HandleVote is the voter half of elections.
func (n *Node) HandleVote(req *VoteRequest) *VoteReply {
	n.mu.Lock()
	defer n.mu.Unlock()
	if req.Term < n.term {
		return &VoteReply{Term: n.term}
	}
	// Vote suppression (the lease's other half): a replica that heard
	// from a live leader within ElectionTimeout ignores vote requests
	// entirely — without adopting the candidate's term, so a partitioned
	// replica's term inflation cannot depose a healthy leader.
	if n.role == leader && n.leaseDeadlineLocked().After(time.Now()) {
		return &VoteReply{Term: n.term}
	}
	if !n.lastContact.IsZero() && time.Since(n.lastContact) < n.cfg.ElectionTimeout {
		return &VoteReply{Term: n.term}
	}
	if req.Term > n.term {
		n.term = req.Term
		n.votedFor = -1
		n.role = follower
	}
	var myLast uint64
	if len(n.log) > 0 {
		myLast = n.log[len(n.log)-1].Term
	}
	if n.votedFor != -1 && n.votedFor != req.CandidateRank {
		return &VoteReply{Term: n.term}
	}
	if !consensus.LogUpToDate(req.LastLogTerm, int(req.LogLen), myLast, len(n.log)) {
		return &VoteReply{Term: n.term}
	}
	n.votedFor = req.CandidateRank
	return &VoteReply{Term: n.term, Granted: true}
}

// electionLoop watches for leader silence and stands for election. The
// timeout is rank-staggered and jittered — lower ranks stand first, so
// simultaneous silence rarely splits the vote — and drawn ONCE per silence
// period, with the loop asleep until lastContact + timeout. Post-mortem,
// PR 23: it used to be re-drawn on every pass of a quarter-timeout poll.
// Followers boot together, so they polled on the same grid, and whenever
// both timeouts lapsed between two ticks they stood on the same tick, voted
// for themselves and both lost: a second round was routine.
func (n *Node) electionLoop() {
	defer n.wg.Done()
	rng := rand.New(rand.NewSource(time.Now().UnixNano() ^ int64(n.cfg.Rank)<<32))
	tick := n.cfg.ElectionTimeout / 4
	if tick <= 0 {
		tick = time.Millisecond
	}
	var since time.Time // the contact the current timeout was drawn for
	var timeout time.Duration
	wait := tick
	for {
		select {
		case <-n.closed:
			return
		case <-time.After(wait):
		}
		n.mu.Lock()
		if n.role == leader {
			// No deadline to sleep until; look again in case it steps down.
			n.mu.Unlock()
			wait = tick
			continue
		}
		if !n.lastContact.IsZero() { // a node that never heard anyone stands at once
			if !n.lastContact.Equal(since) {
				since = n.lastContact
				timeout = n.cfg.ElectionTimeout +
					time.Duration(n.cfg.Rank)*n.cfg.ElectionTimeout/4 +
					time.Duration(rng.Int63n(int64(n.cfg.ElectionTimeout)/4+1))
			}
			if wait = timeout - time.Since(since); wait > 0 {
				n.mu.Unlock()
				continue
			}
		}
		// Stand: bump the term, vote for self.
		n.term++
		n.role = candidate
		n.votedFor = n.cfg.Rank
		n.leaderRank = -1
		n.lastContact = time.Now() // restart the clock for the next attempt
		req := &VoteRequest{
			Term:          n.term,
			CandidateRank: n.cfg.Rank,
			LogLen:        uint64(len(n.log)),
		}
		if len(n.log) > 0 {
			req.LastLogTerm = n.log[len(n.log)-1].Term
		}
		n.mu.Unlock()
		n.runElection(req)
		wait = 0 // the next pass draws the next attempt's timeout
	}
}

// runElection solicits votes for req and assumes leadership on a majority.
func (n *Node) runElection(req *VoteRequest) {
	votes := 1 // self
	var mu sync.Mutex
	var wg sync.WaitGroup
	var maxTerm uint64
	for i, addr := range n.cfg.Peers {
		if i == n.cfg.Rank {
			continue
		}
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), n.cfg.ElectionTimeout/2)
			defer cancel()
			reply, err := n.cfg.Send.RequestVote(ctx, addr, req)
			if err != nil || reply == nil {
				return
			}
			mu.Lock()
			if reply.Granted {
				votes++
			}
			if reply.Term > maxTerm {
				maxTerm = reply.Term
			}
			mu.Unlock()
		}(addr)
	}
	wg.Wait()

	n.mu.Lock()
	defer n.mu.Unlock()
	if maxTerm > n.term {
		n.stepDownLocked(maxTerm)
		return
	}
	if n.role != candidate || n.term != req.Term {
		return // superseded while campaigning
	}
	if votes < consensus.QuorumSize(len(n.cfg.Peers)) {
		n.role = follower
		return
	}
	n.role = leader
	n.leaderRank = n.cfg.Rank
	n.matchLen = make([]uint64, len(n.cfg.Peers))
	n.ackedAt = make([]time.Time, len(n.cfg.Peers))
	// Commit the new term with a noop barrier (Raft's current-term rule).
	n.appendLocked(Command{Kind: CmdNoop})
	n.elections.Add(1)
	n.logf("rank %d elected leader at term %d (log %d, commit %d)", n.cfg.Rank, n.term, len(n.log), n.commit)
	if n.cfg.OnElection != nil {
		n.cfg.OnElection(n.term)
	}
	n.nudgeAll()
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}

// Wire codecs for the consensus RPCs (used by internal/cluster's
// transport adapter; kept here so the formats live beside the types).

// Encode serializes an AppendRequest.
func (r *AppendRequest) Encode() []byte {
	e := rpc.NewEncoder(64 + 128*len(r.Entries))
	e.U64(r.Term)
	e.U64(uint64(r.LeaderRank))
	e.String(r.LeaderAddr)
	e.U64(r.Commit)
	e.U32(uint32(len(r.Entries)))
	for i := range r.Entries {
		e.U64(r.Entries[i].Term)
		e.Bytes32(r.Entries[i].Cmd.Encode())
	}
	return e.Bytes()
}

// DecodeAppendRequest parses an AppendRequest.
func DecodeAppendRequest(b []byte) (*AppendRequest, error) {
	d := rpc.NewDecoder(b)
	r := &AppendRequest{}
	r.Term = d.U64()
	r.LeaderRank = int(d.U64())
	r.LeaderAddr = d.String()
	r.Commit = d.U64()
	count := d.Count(12) // entry term + command length prefix
	if count > 0 {
		r.Entries = make([]Entry, 0, count)
	}
	for i := 0; i < count; i++ {
		term := d.U64()
		cmd, err := DecodeCommand(d.Bytes32())
		if err != nil {
			return nil, err
		}
		r.Entries = append(r.Entries, Entry{Term: term, Cmd: *cmd})
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("controlplane: bad append request: %w", err)
	}
	return r, nil
}

// Encode serializes an AppendReply.
func (r *AppendReply) Encode() []byte {
	e := rpc.NewEncoder(32)
	e.U64(r.Term)
	e.Bool(r.OK)
	return e.Bytes()
}

// DecodeAppendReply parses an AppendReply.
func DecodeAppendReply(b []byte) (*AppendReply, error) {
	d := rpc.NewDecoder(b)
	r := &AppendReply{Term: d.U64(), OK: d.Bool()}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("controlplane: bad append reply: %w", err)
	}
	return r, nil
}

// Encode serializes a VoteRequest.
func (r *VoteRequest) Encode() []byte {
	e := rpc.NewEncoder(32)
	e.U64(r.Term)
	e.U64(uint64(r.CandidateRank))
	e.U64(r.LastLogTerm)
	e.U64(r.LogLen)
	return e.Bytes()
}

// DecodeVoteRequest parses a VoteRequest.
func DecodeVoteRequest(b []byte) (*VoteRequest, error) {
	d := rpc.NewDecoder(b)
	r := &VoteRequest{Term: d.U64(), CandidateRank: int(d.U64()), LastLogTerm: d.U64(), LogLen: d.U64()}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("controlplane: bad vote request: %w", err)
	}
	return r, nil
}

// Encode serializes a VoteReply.
func (r *VoteReply) Encode() []byte {
	e := rpc.NewEncoder(32)
	e.U64(r.Term)
	e.Bool(r.Granted)
	return e.Bytes()
}

// DecodeVoteReply parses a VoteReply.
func DecodeVoteReply(b []byte) (*VoteReply, error) {
	d := rpc.NewDecoder(b)
	r := &VoteReply{Term: d.U64(), Granted: d.Bool()}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("controlplane: bad vote reply: %w", err)
	}
	return r, nil
}
