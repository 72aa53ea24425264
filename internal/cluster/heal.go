package cluster

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"curp/internal/events"
	"curp/internal/health"
)

// This file is the action half of the self-healing cluster: the
// coordinator's resident heal loop. internal/health supplies the policy
// (heartbeat table, deadline detector); this loop turns a "node X is
// dead" verdict into the recovery choreography the coordinator already
// knows how to perform — RecoverMaster for a dead master (fence the old
// epoch, restore a backup's state + witness replay, fresh witness set under a
// bumped WitnessListVersion), ReplaceWitness / ReplaceBackup for a dead
// witness or backup. Clients
// learn the new configuration through the existing epoch-fenced paths:
// a deposed or frozen master answers StatusWrongMaster, stale witness
// lists answer StatusStaleWitnessList, and both make the client refetch
// the view — so in-flight sync, pipelined, and transactional traffic
// retries transparently onto the promoted master.

// SpareProvider supplies replacement nodes for automatic failover. The
// cluster runtime implements it (boot servers on its network); a real
// multi-machine deployment would back it with a provisioned spare pool.
type SpareProvider interface {
	// SpareMasterAddr returns a fresh, never-used address for the
	// partition's replacement master. The coordinator boots the server
	// itself (recovery creates the MasterServer in-process).
	SpareMasterAddr(masterID uint64) (string, error)
	// SpareWitness boots (or allocates) a RUNNING witness server and
	// returns its address. The provider is responsible for starting the
	// server's heartbeat so the detector can watch the replacement.
	SpareWitness(masterID uint64) (string, error)
	// SpareBackup boots (or allocates) a RUNNING backup server and
	// returns its address; it pulls the master's state before the master
	// swaps it into the sync set. The provider starts the server's
	// heartbeat.
	SpareBackup(masterID uint64) (string, error)
}

// FailoverKind classifies heal-loop lifecycle events.
type FailoverKind uint8

const (
	// EventMasterFailover: a dead master was replaced; NewAddr serves the
	// partition under Epoch and WitnessListVersion.
	EventMasterFailover FailoverKind = iota + 1
	// EventMasterFailoverFailed: a recovery attempt failed; it is retried
	// after a deferral (Err holds the cause).
	EventMasterFailoverFailed
	// EventWitnessReplaced: a dead witness server was replaced under a
	// bumped WitnessListVersion.
	EventWitnessReplaced
	// EventWitnessReplaceFailed: a replacement attempt failed; retried
	// after a deferral.
	EventWitnessReplaceFailed
	// EventBackupReplaced: a dead backup was swapped out of the sync set
	// for a spare seeded with the master's state, restoring
	// replication redundancy without deposing the master.
	EventBackupReplaced
	// EventBackupReplaceFailed: a replacement attempt failed; retried
	// after a deferral.
	EventBackupReplaceFailed
)

// String names the event kind.
func (k FailoverKind) String() string {
	switch k {
	case EventMasterFailover:
		return "master-failover"
	case EventMasterFailoverFailed:
		return "master-failover-failed"
	case EventWitnessReplaced:
		return "witness-replaced"
	case EventWitnessReplaceFailed:
		return "witness-replace-failed"
	case EventBackupReplaced:
		return "backup-replaced"
	case EventBackupReplaceFailed:
		return "backup-replace-failed"
	}
	return "unknown"
}

// FailoverEvent describes one heal-loop action.
type FailoverEvent struct {
	Kind     FailoverKind
	MasterID uint64
	Role     health.Role
	OldAddr  string
	NewAddr  string
	// Epoch and WitnessListVersion are the partition's post-heal values
	// (success events).
	Epoch              uint64
	WitnessListVersion uint64
	// Window is detection → published replacement (success events).
	Window time.Duration
	// Err is the failure cause (failure events).
	Err error
}

// String renders the event for logs.
func (e FailoverEvent) String() string {
	if e.Err != nil {
		return fmt.Sprintf("%v master=%d %s: %v", e.Kind, e.MasterID, e.OldAddr, e.Err)
	}
	return fmt.Sprintf("%v master=%d %s -> %s (epoch %d, wlv %d, %v)",
		e.Kind, e.MasterID, e.OldAddr, e.NewAddr, e.Epoch, e.WitnessListVersion, e.Window.Round(time.Millisecond))
}

// HealthConfig configures the coordinator's failure detector and heal
// loop.
type HealthConfig struct {
	// Detector is the heartbeat cadence / deadline policy.
	Detector health.Config
	// Spares supplies replacement nodes. Required.
	Spares SpareProvider
	// MasterOpts configures replacement masters promoted by a replica
	// that never held the original's in-process handle (a
	// follower-promoted heal after the rank-0 coordinator died); its Node
	// settings are what make that replacement heartbeat. Zero means
	// package defaults and a silent master.
	MasterOpts MasterOptions
	// OnEvent observes heal-loop lifecycle events. Called from the heal
	// goroutine — it must not block. Optional.
	OnEvent func(FailoverEvent)
	// onMasterChange rebinds the runtime's in-process master handle after
	// a failover (set by cluster.Start; also fires on manual recovery so
	// the handle never goes stale).
	onMasterChange func(*MasterServer)
}

// healManager is the coordinator's resident detector + heal loop.
type healManager struct {
	c   *Coordinator
	cfg HealthConfig

	stopOnce sync.Once
	closed   chan struct{}
	done     chan struct{} // closed when run() returns

	// spareByDead caches the spare allocated for a dead witness or backup
	// address, so a retried heal attempt reuses it instead of booting a
	// fresh server per retry. Touched only from the run goroutine.
	spareByDead map[string]string
}

// EnableSelfHealing starts the coordinator's failure detector and heal
// loop: registered nodes that miss their heartbeat deadline are healed —
// masters by automatic failover, witnesses by replacement — with no
// operator involvement. Call once, after AddMaster.
func (c *Coordinator) EnableSelfHealing(cfg HealthConfig) error {
	if cfg.Spares == nil {
		return fmt.Errorf("coordinator: self-healing requires a SpareProvider")
	}
	cfg.Detector = cfg.Detector.WithDefaults()
	h := &healManager{
		c:           c,
		cfg:         cfg,
		closed:      make(chan struct{}),
		done:        make(chan struct{}),
		spareByDead: make(map[string]string),
	}
	// The RPC server is already live (OpHealthStatus readers), so the
	// heal pointer installs under the coordinator lock.
	c.mu.Lock()
	if c.heal != nil {
		c.mu.Unlock()
		return fmt.Errorf("coordinator: self-healing already enabled")
	}
	c.heal = h
	c.mu.Unlock()
	go h.run()
	return nil
}

// stop ends the heal loop and JOINS it: an in-flight heal action
// completes before stop returns, so a Close that follows cannot race a
// promotion it would never learn about (and leak the promoted master).
func (h *healManager) stop() {
	h.stopOnce.Do(func() { close(h.closed) })
	<-h.done
}

func (h *healManager) emit(ev FailoverEvent) {
	h.c.countHealEvent(ev.Kind)
	h.c.recordHealEvent(ev)
	if h.cfg.OnEvent != nil {
		h.cfg.OnEvent(ev)
	}
}

func (h *healManager) masterChanged(ms *MasterServer) {
	if h.cfg.onMasterChange != nil {
		h.cfg.onMasterChange(ms)
	}
}

// run is the heal loop: one scan per heartbeat interval, healing every
// node past its deadline. Actions run sequentially in this goroutine —
// recoveries of one partition must not interleave, and the detector's
// verdicts are re-read each pass, so a node healed indirectly (a master
// recovery re-keys its witnesses) is never healed twice.
func (h *healManager) run() {
	defer close(h.done)
	ticker := time.NewTicker(h.cfg.Detector.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-h.closed:
			return
		case <-ticker.C:
			// Heal actions are leader-leased: only the replica currently
			// holding the control-plane lease may act, so two coordinators
			// can never both depose a master — a promoted leader's lease
			// begins only after the deposed one's has provably expired,
			// and the log's epoch fencing (CmdBeginRecovery) backstops
			// even a clock-skewed overlap.
			if !h.c.HoldingLease() {
				continue
			}
			for _, n := range h.c.table.Dead(h.cfg.Detector) {
				select {
				case <-h.closed:
					return
				default:
				}
				h.healNode(n)
			}
		}
	}
}

// retryAfter is the deferral before a failed heal action is retried.
func (h *healManager) retryAfter() time.Time {
	return time.Now().Add(h.cfg.Detector.FailAfter)
}

func (h *healManager) healNode(n health.NodeStatus) {
	if n.Role == health.RoleMaster {
		h.healMaster(n)
	} else {
		h.healMember(n)
	}
}

// healMember replaces a dead witness or backup with a spare
// (Coordinator.replaceMember): a witness under a bumped
// WitnessListVersion after a master sync, a backup by seeding the spare
// with the master's state — restoring f-way redundancy without
// deposing the master. replaceMember re-validates membership under
// reconfMu, so a concurrent recovery that already rotated the dead node
// out turns this into a deferred no-op.
func (h *healManager) healMember(n health.NodeStatus) {
	c := h.c
	replaced, failed := EventBackupReplaced, EventBackupReplaceFailed
	if n.Role == health.RoleWitness {
		replaced, failed = EventWitnessReplaced, EventWitnessReplaceFailed
	}
	if p, err := c.partition(n.MasterID); err != nil ||
		!slices.Contains(p.Witnesses, n.Addr) && !slices.Contains(p.Backups, n.Addr) {
		// Already rotated out (e.g. by a master failover that re-keyed the
		// membership in the same pass).
		c.table.Forget(n.Addr)
		return
	}
	start := time.Now()
	newAddr, err := h.spareFor(n.Role, n.Addr, n.MasterID)
	if err == nil {
		err = c.replaceMember(n.MasterID, n.Role, n.Addr, newAddr)
	}
	if err != nil {
		h.emit(FailoverEvent{Kind: failed, MasterID: n.MasterID, Role: n.Role, OldAddr: n.Addr, Err: err})
		c.table.Defer(n.Addr, h.retryAfter())
		return
	}
	delete(h.spareByDead, n.Addr)
	ev := FailoverEvent{
		Kind:     replaced,
		MasterID: n.MasterID,
		Role:     n.Role,
		OldAddr:  n.Addr,
		NewAddr:  newAddr,
		Window:   time.Since(start),
	}
	if p, err := c.partition(n.MasterID); err == nil {
		ev.Epoch, ev.WitnessListVersion = p.Epoch, p.WLV
	}
	h.emit(ev)
}

// spareFor returns the spare allocated for a dead witness or backup
// address, booting one only on the first attempt: a heal retry reuses the
// cached spare instead of leaking one live server per failed attempt.
// Called only from the run goroutine.
func (h *healManager) spareFor(role health.Role, deadAddr string, masterID uint64) (string, error) {
	if spare, ok := h.spareByDead[deadAddr]; ok {
		return spare, nil
	}
	boot := h.cfg.Spares.SpareBackup
	if role == health.RoleWitness {
		boot = h.cfg.Spares.SpareWitness
	}
	spare, err := boot(masterID)
	if err != nil {
		return "", err
	}
	h.spareByDead[deadAddr] = spare
	return spare, nil
}

// healMaster drives automatic failover of a dead master: promote a fresh
// server at a spare address via the standard recovery path (epoch fence,
// a backup's state + witness replay, migration arcs re-seeded from the
// coordinator's records), under a witness set whose dead members are
// replaced by spares. The whole action runs under reconfMu so the
// verdict is re-validated against any concurrent manual recovery — a
// stale verdict must not depose the operator's freshly promoted master.
func (h *healManager) healMaster(n health.NodeStatus) {
	c := h.c
	c.reconfMu.Lock()
	p, err := c.partition(n.MasterID)
	if err != nil || p.MasterAddr != n.Addr {
		// Stale verdict: the partition was already recovered (or removed)
		// under a different address.
		c.reconfMu.Unlock()
		c.table.Forget(n.Addr)
		return
	}
	// A master another replica booted never sent its options across the
	// wire, so its replacement gets the configured heal-time defaults.
	opts := h.cfg.MasterOpts
	if ms := c.localMaster(p.MasterAddr); ms != nil {
		opts = ms.Options()
	}
	start := time.Now()
	c.jrn.Record(events.Event{
		Kind: events.KindFailoverDetect, MasterID: n.MasterID, OldAddr: n.Addr,
		Detail: fmt.Sprintf("master silent for %v", n.Age.Round(time.Millisecond)),
	})

	var nm *MasterServer
	newAddr, err := h.cfg.Spares.SpareMasterAddr(n.MasterID)
	if err == nil {
		// The NEW witness set must be fully reachable: startWitnesses and
		// SetWitnessList fail on a dead member, and a silently dead
		// witness would halve the fault tolerance recovery is supposed to
		// restore. Dead witnesses are swapped for spares in the same
		// pass; recovery replay still consults the OLD list, where one
		// reachable witness suffices.
		newList := make([]string, len(p.Witnesses))
		var replacedDead []string
		for i, a := range p.Witnesses {
			if c.table.Alive(a, h.cfg.Detector) {
				newList[i] = a
				continue
			}
			spare, serr := h.spareFor(health.RoleWitness, a, n.MasterID)
			if serr != nil {
				err = fmt.Errorf("spare witness: %w", serr)
				break
			}
			newList[i] = spare
			replacedDead = append(replacedDead, a)
		}
		if err == nil {
			nm, err = c.recoverMasterLocked(n.MasterID, newAddr, newList, opts)
			if err == nil {
				for _, a := range replacedDead {
					delete(h.spareByDead, a) // spares now in service
				}
			}
		}
	}
	c.reconfMu.Unlock()
	if err != nil {
		h.emit(FailoverEvent{Kind: EventMasterFailoverFailed, MasterID: n.MasterID, Role: n.Role, OldAddr: n.Addr, Err: err})
		c.table.Defer(n.Addr, h.retryAfter())
		return
	}
	h.emit(FailoverEvent{
		Kind:               EventMasterFailover,
		MasterID:           n.MasterID,
		Role:               n.Role,
		OldAddr:            n.Addr,
		NewAddr:            newAddr,
		Epoch:              nm.Epoch(),
		WitnessListVersion: nm.State().WitnessListVersion(),
		Window:             time.Since(start),
	})
}
