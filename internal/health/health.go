// Package health is the failure-detection half of the self-healing
// cluster: heartbeat payloads, a per-partition liveness table with a
// deadline-based (jitter-tolerant) failure detector, and the resident
// beater loop servers run to report themselves.
//
// The split mirrors the rest of the codebase: this package is pure policy
// and bookkeeping — no RPC, no server types — so the detector is unit
// testable with a fake clock, while internal/cluster wires it to the wire
// (OpHeartbeat into the coordinator's table, the coordinator's heal loop
// driving recovery off Dead()). The blueprint is RAMCloud's coordinator
// (the paper's "system configuration manager", §3.6) crossed with
// RIFL-style lease expiry: nodes push liveness instead of the coordinator
// polling, so one missed-deadline policy covers masters, backups, and
// witnesses alike.
package health

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"curp/internal/rpc"
)

// Role classifies a heartbeating node.
type Role uint8

const (
	// RoleMaster is a partition's master server.
	RoleMaster Role = iota + 1
	// RoleBackup is one of the partition's f backups.
	RoleBackup
	// RoleWitness is one of the partition's f witness servers.
	RoleWitness
)

// String names the role.
func (r Role) String() string {
	switch r {
	case RoleMaster:
		return "master"
	case RoleBackup:
		return "backup"
	case RoleWitness:
		return "witness"
	}
	return "unknown"
}

// Beat is one heartbeat: the sender's identity plus piggybacked load
// stats (meaningful on master beats; zero elsewhere). Load rides along so
// the coordinator's health table doubles as a cheap cluster dashboard —
// no extra stats RPC.
type Beat struct {
	Role     Role
	Addr     string
	MasterID uint64
	// Epoch is the sender's recovery epoch (masters only).
	Epoch uint64
	// HeadLSN and Unsynced describe the master's log: total entries and
	// how many are not yet on the backups.
	HeadLSN  uint64
	Unsynced uint64
	// WitnessListVersion is the master's current witness configuration.
	WitnessListVersion uint64
	// FlushThreshold is the master's current (possibly load-adaptive)
	// background-sync batch threshold.
	FlushThreshold uint64
	// SpeculativeOps and ConflictSyncs are the master's cumulative
	// fast-path executions and conflict-triggered syncs — the two numbers
	// that make the coordinator's table a per-partition CURP dashboard
	// (fast-path % without scraping the master itself).
	SpeculativeOps uint64
	ConflictSyncs  uint64
}

// Encode returns the beat's wire form.
func (b *Beat) Encode() []byte {
	e := rpc.NewEncoder(64 + len(b.Addr))
	e.U8(uint8(b.Role))
	e.String(b.Addr)
	e.U64(b.MasterID)
	e.U64(b.Epoch)
	e.U64(b.HeadLSN)
	e.U64(b.Unsynced)
	e.U64(b.WitnessListVersion)
	e.U64(b.FlushThreshold)
	e.U64(b.SpeculativeOps)
	e.U64(b.ConflictSyncs)
	return e.Bytes()
}

// DecodeBeat parses a heartbeat payload.
func DecodeBeat(p []byte) (*Beat, error) {
	d := rpc.NewDecoder(p)
	b := &Beat{
		Role:               Role(d.U8()),
		Addr:               d.String(),
		MasterID:           d.U64(),
		Epoch:              d.U64(),
		HeadLSN:            d.U64(),
		Unsynced:           d.U64(),
		WitnessListVersion: d.U64(),
		FlushThreshold:     d.U64(),
		SpeculativeOps:     d.U64(),
		ConflictSyncs:      d.U64(),
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return b, nil
}

// Config tunes the heartbeat cadence and the failure deadline.
type Config struct {
	// Interval is the heartbeat cadence (beaters jitter it ±25% so a
	// fleet never marches in lockstep). DefaultInterval when 0.
	Interval time.Duration
	// FailAfter is the silence after which a node is declared dead. It
	// must comfortably exceed Interval plus scheduling jitter; 0 selects
	// failAfterFactor × Interval.
	FailAfter time.Duration
}

const (
	// DefaultInterval is the production heartbeat cadence.
	DefaultInterval = 25 * time.Millisecond
	// failAfterFactor is the default deadline in intervals. 8 tolerates
	// several jittered beats lost to scheduling or a dropped connection
	// before recovery — the paper's recovery story is cheap, but a false
	// positive still fences a healthy master.
	failAfterFactor = 8
)

// WithDefaults fills zero fields.
func (c Config) WithDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = DefaultInterval
	}
	if c.FailAfter <= 0 {
		c.FailAfter = failAfterFactor * c.Interval
	}
	return c
}

// node is one registered node's liveness record.
type node struct {
	role     Role
	addr     string
	masterID uint64
	last     time.Time // last beat (seeded with registration time)
	beats    uint64
	// gapEWMA smooths the observed inter-beat gap; the deadline stretches
	// toward a multiple of it for nodes that historically beat slower
	// than configured (paused VMs, loaded hosts) — the jitter tolerance.
	gapEWMA float64 // nanoseconds
	lastObs Beat
	// deferUntil suppresses Dead() reports (heal retry backoff, or
	// roles with no automatic replacement that were already reported).
	deferUntil time.Time
}

// NodeStatus is one node's liveness snapshot.
type NodeStatus struct {
	Role     Role
	Addr     string
	MasterID uint64
	// Age is the silence since the last beat (or registration).
	Age time.Duration
	// Beats counts observed heartbeats.
	Beats uint64
	// MeanGap is the smoothed inter-beat gap (0 until two beats arrived).
	MeanGap time.Duration
	// Alive reports whether the node is within its deadline.
	Alive bool
	// Last is the most recent beat's payload (zero until one arrived).
	Last Beat
}

// String renders a compact human-readable form (curpctl status).
func (n NodeStatus) String() string {
	state := "alive"
	if !n.Alive {
		state = "DEAD"
	}
	return fmt.Sprintf("%-7s %s [%s, hb %v ago, beats %d]", n.Role, n.Addr, state, n.Age.Round(time.Millisecond), n.Beats)
}

// Table tracks the registered nodes of one partition. Only registered
// nodes are watched: a straggler beat from a decommissioned address is
// dropped, so a deposed master cannot re-register itself by heartbeating.
// Safe for concurrent use.
type Table struct {
	mu    sync.Mutex
	nodes map[string]*node
	now   func() time.Time // test hook
}

// NewTable returns an empty table.
func NewTable() *Table {
	return &Table{nodes: make(map[string]*node), now: time.Now}
}

// SetClock overrides the table's time source (tests).
func (t *Table) SetClock(now func() time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.now = now
}

// Register starts watching a node, seeding its deadline clock at now so a
// freshly added node gets one full FailAfter of grace before its first
// beat is due. Re-registering an address resets its history.
func (t *Table) Register(role Role, addr string, masterID uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nodes[addr] = &node{role: role, addr: addr, masterID: masterID, last: t.now()}
}

// SetMembers makes members the watched membership of one partition: an
// address not yet watched for masterID is registered (Register's fresh
// grace period), a watched node of masterID that is no longer a member is
// forgotten, and a node present before and after keeps its beat history.
// Nodes of other partitions are left alone.
func (t *Table) SetMembers(masterID uint64, members map[string]Role) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for addr, n := range t.nodes {
		if _, still := members[addr]; n.masterID == masterID && !still {
			delete(t.nodes, addr)
		}
	}
	for addr, role := range members {
		if n := t.nodes[addr]; n == nil || n.masterID != masterID {
			t.nodes[addr] = &node{role: role, addr: addr, masterID: masterID, last: t.now()}
		}
	}
}

// Forget stops watching a node (decommissioned or replaced).
func (t *Table) Forget(addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.nodes, addr)
}

// Defer suppresses Dead() reports for addr until the given time — the
// heal loop's retry backoff, and the "reported once" latch for roles with
// no automatic replacement.
func (t *Table) Defer(addr string, until time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := t.nodes[addr]; n != nil {
		n.deferUntil = until
	}
}

// Observe records a heartbeat. Beats from unregistered addresses are
// dropped.
func (t *Table) Observe(b *Beat) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.nodes[b.Addr]
	if n == nil {
		return
	}
	now := t.now()
	if n.beats > 0 {
		gap := float64(now.Sub(n.last))
		if gap < 0 {
			gap = 0
		}
		if n.gapEWMA == 0 {
			n.gapEWMA = gap
		} else {
			n.gapEWMA += (gap - n.gapEWMA) * 0.25
		}
	}
	n.last = now
	n.beats++
	n.lastObs = *b
	// A beat ends any report deferral: a node that came back and later
	// dies again is a NEW incident and must be reported (and healed)
	// again, not swallowed by the previous incident's latch.
	n.deferUntil = time.Time{}
}

// deadline returns the node's effective silence budget: the configured
// FailAfter, stretched to 4× the node's own smoothed beat gap when that
// is larger (jitter tolerance for chronically slow beaters).
func (n *node) deadline(cfg Config) time.Duration {
	d := cfg.FailAfter
	if adaptive := time.Duration(4 * n.gapEWMA); adaptive > d {
		d = adaptive
	}
	return d
}

// status builds a NodeStatus. Must hold t.mu.
func (n *node) status(now time.Time, cfg Config) NodeStatus {
	age := now.Sub(n.last)
	return NodeStatus{
		Role:     n.role,
		Addr:     n.addr,
		MasterID: n.masterID,
		Age:      age,
		Beats:    n.beats,
		MeanGap:  time.Duration(n.gapEWMA),
		Alive:    age <= n.deadline(cfg),
		Last:     n.lastObs,
	}
}

// Snapshot returns every registered node's status, masters first, then
// backups and witnesses, each sorted by address.
func (t *Table) Snapshot(cfg Config) []NodeStatus {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	out := make([]NodeStatus, 0, len(t.nodes))
	for _, n := range t.nodes {
		out = append(out, n.status(now, cfg))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Role != out[j].Role {
			return out[i].Role < out[j].Role
		}
		return out[i].Addr < out[j].Addr
	})
	return out
}

// Dead returns nodes past their deadline whose report is not deferred,
// in the order masters → witnesses → backups so the heal loop restores
// the data path before it repairs durability redundancy.
func (t *Table) Dead(cfg Config) []NodeStatus {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	var out []NodeStatus
	for _, n := range t.nodes {
		if now.Before(n.deferUntil) {
			continue
		}
		if st := n.status(now, cfg); !st.Alive {
			out = append(out, st)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		ri, rj := healOrder(out[i].Role), healOrder(out[j].Role)
		if ri != rj {
			return ri < rj
		}
		return out[i].Addr < out[j].Addr
	})
	return out
}

func healOrder(r Role) int {
	switch r {
	case RoleMaster:
		return 0
	case RoleWitness:
		return 1
	}
	return 2
}

// Alive reports whether addr is registered and within its deadline.
func (t *Table) Alive(addr string, cfg Config) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.nodes[addr]
	if n == nil {
		return false
	}
	return t.now().Sub(n.last) <= n.deadline(cfg)
}

// AllAlive reports whether every registered node is within its deadline —
// the "cluster is healed" predicate WaitHealthy polls. Deferred nodes
// count as dead: a backup that went down and has no automatic
// replacement keeps the partition reported unhealthy.
func (t *Table) AllAlive(cfg Config) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	for _, n := range t.nodes {
		if now.Sub(n.last) > n.deadline(cfg) {
			return false
		}
	}
	return true
}

// Beater invokes send on the configured cadence, jittered ±25%, until
// stop closes. It runs in the caller's goroutine (callers `go` it); send
// failures are the detector's signal and are deliberately not retried
// faster — a dead coordinator link looks exactly like a dead node, and
// resolving that ambiguity is the coordinator's job, not the beater's.
func Beater(stop <-chan struct{}, interval time.Duration, send func()) {
	if interval <= 0 {
		interval = DefaultInterval
	}
	timer := time.NewTimer(jittered(interval))
	defer timer.Stop()
	for {
		select {
		case <-stop:
			return
		case <-timer.C:
			send()
			timer.Reset(jittered(interval))
		}
	}
}

// jittered spreads an interval uniformly over [0.75, 1.25] × d.
func jittered(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	half := int64(d) / 2
	return time.Duration(int64(d) - half/2 + rand.Int63n(half+1))
}
