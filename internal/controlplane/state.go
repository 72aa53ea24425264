package controlplane

import (
	"errors"
	"fmt"

	"curp/internal/witness"
)

// ErrStale reports a command that lost a reconfiguration race: the state it
// was proposed against changed before it committed (e.g. two coordinators
// both reserving recovery epoch E+1 — the second committed reservation
// fails here, which is exactly the dual-depose fence). Apply errors are a
// deterministic function of (state, command), so every replica reaches the
// same verdict.
var ErrStale = errors.New("controlplane: command lost a reconfiguration race")

// Forward pairs handed-off arcs with the destination master that received
// them (transaction decision lookups follow it after the source dies).
type Forward struct {
	Ranges []witness.HashRange
	Addr   string
}

// Partition is the replicated record of one data partition.
type Partition struct {
	ID         uint64
	MasterAddr string
	// Epoch is the recovery epoch of the SERVING master. ReservedEpoch is
	// the highest epoch a recovery has committed a reservation for; it
	// runs ahead of Epoch while a recovery is in flight and equals it
	// otherwise.
	Epoch         uint64
	ReservedEpoch uint64
	// ReservedAddr is the replacement address of the in-flight recovery
	// (informational; SetMaster publishes the authoritative one).
	ReservedAddr string
	WLV          uint64
	Witnesses    []string
	Backups      []string
	Moved        []witness.HashRange
	Frozen       []witness.HashRange
	Forwards     []Forward
}

// clone deep-copies the partition record.
func (p *Partition) clone() *Partition {
	cp := *p
	cp.Witnesses = append([]string(nil), p.Witnesses...)
	cp.Backups = append([]string(nil), p.Backups...)
	cp.Moved = append([]witness.HashRange(nil), p.Moved...)
	cp.Frozen = append([]witness.HashRange(nil), p.Frozen...)
	cp.Forwards = make([]Forward, 0, len(p.Forwards))
	for _, f := range p.Forwards {
		cp.Forwards = append(cp.Forwards, Forward{
			Ranges: append([]witness.HashRange(nil), f.Ranges...),
			Addr:   f.Addr,
		})
	}
	return &cp
}

// State is the deterministic control-plane state machine. It is mutated
// ONLY by Apply, in log order, so every replica that applied the same
// committed prefix holds an identical State.
type State struct {
	Partitions map[uint64]*Partition
	// ClientSeq is the replicated client-ID allocator: CmdRegisterClient
	// increments it, and each replica forms the RIFL ID as its configured
	// namespace base + sequence.
	ClientSeq uint64
}

// NewState returns an empty control-plane state.
func NewState() *State {
	return &State{Partitions: make(map[uint64]*Partition)}
}

// Partition returns a deep copy of one partition's record (nil if absent).
func (s *State) Partition(id uint64) *Partition {
	if p := s.Partitions[id]; p != nil {
		return p.clone()
	}
	return nil
}

// Apply executes one committed command. The uint64 result is
// kind-dependent: the reserved epoch for CmdBeginRecovery, the allocated
// sequence for CmdRegisterClient, zero otherwise. Both result and error
// are deterministic in (state, command).
func (s *State) Apply(c *Command) (uint64, error) {
	switch c.Kind {
	case CmdNoop:
		return 0, nil

	case CmdAddPartition:
		s.Partitions[c.Partition] = &Partition{
			ID:            c.Partition,
			MasterAddr:    c.Addr,
			Epoch:         c.Epoch,
			ReservedEpoch: c.Epoch,
			WLV:           c.WLV,
			Witnesses:     append([]string(nil), c.Witnesses...),
			Backups:       append([]string(nil), c.Backups...),
		}
		return 0, nil

	case CmdBeginRecovery:
		p, err := s.part(c.Partition)
		if err != nil {
			return 0, err
		}
		if c.Epoch != p.ReservedEpoch+1 {
			return 0, fmt.Errorf("%w: recovery epoch %d proposed, %d already reserved", ErrStale, c.Epoch, p.ReservedEpoch)
		}
		p.ReservedEpoch = c.Epoch
		p.ReservedAddr = c.Addr
		return c.Epoch, nil

	case CmdSetMaster:
		p, err := s.part(c.Partition)
		if err != nil {
			return 0, err
		}
		// Only the holder of the CURRENT reservation may publish: a slower
		// recovery whose reservation was superseded must not clobber the
		// newer master.
		if c.Epoch != p.ReservedEpoch || c.Epoch <= p.Epoch {
			return 0, fmt.Errorf("%w: set-master at epoch %d, reserved %d serving %d", ErrStale, c.Epoch, p.ReservedEpoch, p.Epoch)
		}
		p.MasterAddr = c.Addr
		p.Epoch = c.Epoch
		p.ReservedAddr = ""
		p.WLV = c.WLV
		p.Witnesses = append([]string(nil), c.Witnesses...)
		if c.Backups != nil {
			p.Backups = append([]string(nil), c.Backups...)
		}
		return c.Epoch, nil

	case CmdSetWitnessList:
		p, err := s.part(c.Partition)
		if err != nil {
			return 0, err
		}
		if c.WLV != p.WLV+1 {
			return 0, fmt.Errorf("%w: witness list version %d proposed, current %d", ErrStale, c.WLV, p.WLV)
		}
		p.WLV = c.WLV
		p.Witnesses = append([]string(nil), c.Witnesses...)
		return c.WLV, nil

	case CmdSetBackups:
		p, err := s.part(c.Partition)
		if err != nil {
			return 0, err
		}
		p.Backups = append([]string(nil), c.Backups...)
		return 0, nil

	case CmdAddMoved:
		p, err := s.part(c.Partition)
		if err != nil {
			return 0, err
		}
		p.Moved = witness.MergeRanges(p.Moved, c.Ranges)
		if c.Addr != "" {
			p.Forwards = append(p.Forwards, Forward{
				Ranges: append([]witness.HashRange(nil), c.Ranges...),
				Addr:   c.Addr,
			})
		}
		return 0, nil

	case CmdDelMoved:
		p, err := s.part(c.Partition)
		if err != nil {
			return 0, err
		}
		p.Moved = witness.RemoveRanges(p.Moved, c.Ranges)
		kept := p.Forwards[:0]
		for _, f := range p.Forwards {
			if rem := witness.RemoveRanges(f.Ranges, c.Ranges); len(rem) != 0 {
				f.Ranges = rem
				kept = append(kept, f)
			}
		}
		p.Forwards = kept
		return 0, nil

	case CmdAddFrozen:
		p, err := s.part(c.Partition)
		if err != nil {
			return 0, err
		}
		p.Frozen = witness.MergeRanges(p.Frozen, c.Ranges)
		return 0, nil

	case CmdDelFrozen:
		p, err := s.part(c.Partition)
		if err != nil {
			return 0, err
		}
		p.Frozen = witness.RemoveRanges(p.Frozen, c.Ranges)
		return 0, nil

	case CmdRegisterClient:
		s.ClientSeq++
		return s.ClientSeq, nil
	}
	return 0, fmt.Errorf("controlplane: unknown command kind %d", c.Kind)
}

func (s *State) part(id uint64) (*Partition, error) {
	p := s.Partitions[id]
	if p == nil {
		return nil, fmt.Errorf("controlplane: unknown partition %d", id)
	}
	return p, nil
}
