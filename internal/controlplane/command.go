// Package controlplane replicates the cluster coordinator's authoritative
// state — partition membership, recovery epochs, witness lists, migration
// arcs, client-ID issuance — across a 2f+1 quorum of coordinator replicas.
//
// The paper (Park & Ousterhout, NSDI '19) assumes a consensus-backed
// configuration manager in §2; internal/consensus supplies the §A.2
// substrate for the DATA plane (CURP over a replicated log). This package
// applies the same machinery to the CONTROL plane: every configuration
// mutation is a Command proposed to the quorum leader, committed by
// majority replication, and applied deterministically to every replica's
// State. A restarted or follower-promoted coordinator therefore rebuilds
// the full configuration from the committed log with zero operator input,
// and a leader lease (plus the epoch-reservation command, CmdBeginRecovery)
// guarantees two coordinators can never both depose a master.
//
// The package is transport-agnostic: Node speaks to its peers through the
// Sender interface, which internal/cluster backs with the repo's RPC layer
// and tests back with direct in-process calls (the idiom of
// internal/consensus).
package controlplane

import (
	"fmt"

	"curp/internal/rpc"
	"curp/internal/witness"
)

// Kind discriminates control-plane commands.
type Kind uint8

const (
	// CmdNoop is the barrier entry a fresh leader appends to commit its
	// term (Raft's current-term commit rule needs an entry OF the new term
	// before earlier entries may commit).
	CmdNoop Kind = iota + 1
	// CmdAddPartition registers a data partition: master address, epoch,
	// witness list (+version), backups.
	CmdAddPartition
	// CmdBeginRecovery reserves recovery epoch Epoch (= current reserved
	// epoch + 1) for a partition before any backup is fenced. Committing
	// the reservation through the log serializes recoveries globally: a
	// deposed coordinator leader still fencing at epoch E loses to the new
	// leader's committed reservation of E+1, so dual-depose is impossible
	// even across control-plane failovers.
	CmdBeginRecovery
	// CmdSetMaster publishes a completed recovery/migration: the partition
	// is now served by Addr at Epoch (which must equal the committed
	// reservation) with the given witness list and backups.
	CmdSetMaster
	// CmdSetWitnessList replaces a partition's witness list under an
	// incremented WitnessListVersion.
	CmdSetWitnessList
	// CmdSetBackups replaces a partition's backup list (automatic backup
	// replacement swaps a re-seeded spare into the sync set).
	CmdSetBackups
	// CmdAddMoved records ring arcs that migrated away (plus an optional
	// decision-forward address), the durability point of a handoff.
	CmdAddMoved
	// CmdDelMoved withdraws exactly-matching moved arcs (abort undo).
	CmdDelMoved
	// CmdAddFrozen records arcs a migration step is transferring out.
	CmdAddFrozen
	// CmdDelFrozen withdraws freeze records after abort or commit.
	CmdDelFrozen
	// CmdRegisterClient allocates the next client sequence number; the
	// replica adds its configured RIFL namespace to form the client ID, so
	// IDs stay unique across coordinator failovers.
	CmdRegisterClient
)

// String names the command kind.
func (k Kind) String() string {
	switch k {
	case CmdNoop:
		return "noop"
	case CmdAddPartition:
		return "add-partition"
	case CmdBeginRecovery:
		return "begin-recovery"
	case CmdSetMaster:
		return "set-master"
	case CmdSetWitnessList:
		return "set-witness-list"
	case CmdSetBackups:
		return "set-backups"
	case CmdAddMoved:
		return "add-moved"
	case CmdDelMoved:
		return "del-moved"
	case CmdAddFrozen:
		return "add-frozen"
	case CmdDelFrozen:
		return "del-frozen"
	case CmdRegisterClient:
		return "register-client"
	}
	return "unknown"
}

// Command is one replicated control-plane mutation. Fields are
// kind-dependent; unused fields are zero.
type Command struct {
	Kind      Kind
	Partition uint64
	// Epoch: AddPartition (initial), BeginRecovery (reservation),
	// SetMaster (the committed reservation being published).
	Epoch uint64
	// WLV: AddPartition / SetMaster / SetWitnessList witness-list version.
	WLV uint64
	// Addr: master address (AddPartition/BeginRecovery/SetMaster) or forward
	// destination (AddMoved).
	Addr      string
	Witnesses []string
	Backups   []string
	Ranges    []witness.HashRange
}

// Encode serializes the command for the replicated log's wire format.
func (c *Command) Encode() []byte {
	e := rpc.NewEncoder(64)
	e.U8(uint8(c.Kind))
	e.U64(c.Partition)
	e.U64(c.Epoch)
	e.U64(c.WLV)
	e.String(c.Addr)
	e.Strings(c.Witnesses)
	e.Strings(c.Backups)
	encodeRanges(e, c.Ranges)
	return e.Bytes()
}

// DecodeCommand parses an encoded command.
func DecodeCommand(b []byte) (*Command, error) {
	d := rpc.NewDecoder(b)
	c := decodeCommand(d)
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("controlplane: bad command: %w", err)
	}
	return c, nil
}

func decodeCommand(d *rpc.Decoder) *Command {
	c := &Command{}
	c.Kind = Kind(d.U8())
	c.Partition = d.U64()
	c.Epoch = d.U64()
	c.WLV = d.U64()
	c.Addr = d.String()
	c.Witnesses = d.Strings()
	c.Backups = d.Strings()
	c.Ranges = decodeRanges(d)
	return c
}

func encodeRanges(e *rpc.Encoder, rs []witness.HashRange) {
	e.U32(uint32(len(rs)))
	for _, r := range rs {
		e.U64(r.Lo)
		e.U64(r.Hi)
	}
}

func decodeRanges(d *rpc.Decoder) []witness.HashRange {
	n := d.Count(16)
	if n == 0 {
		return nil
	}
	rs := make([]witness.HashRange, 0, n)
	for i := 0; i < n; i++ {
		rs = append(rs, witness.HashRange{Lo: d.U64(), Hi: d.U64()})
	}
	return rs
}
