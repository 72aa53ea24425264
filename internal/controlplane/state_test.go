package controlplane

import (
	"errors"
	"reflect"
	"testing"

	"curp/internal/witness"
)

// applyAll replays cmds against a fresh state and returns it.
func applyAll(t *testing.T, cmds []Command) *State {
	t.Helper()
	st := NewState()
	for i := range cmds {
		if _, err := st.Apply(&cmds[i]); err != nil {
			t.Fatalf("apply %d (%v): %v", i, cmds[i].Kind, err)
		}
	}
	return st
}

func TestApplyDeterminism(t *testing.T) {
	// Every command kind at least once; replaying the same log twice must
	// yield identical states AND identical per-command results/errors —
	// the property the replicated log depends on.
	cmds := []Command{
		{Kind: CmdNoop},
		{Kind: CmdAddPartition, Partition: 1, Epoch: 1, WLV: 1, Addr: "m1",
			Witnesses: []string{"w1", "w2"}, Backups: []string{"b1"}},
		{Kind: CmdBeginRecovery, Partition: 1, Epoch: 2, Addr: "m1b"},
		{Kind: CmdSetMaster, Partition: 1, Epoch: 2, WLV: 2, Addr: "m1b",
			Witnesses: []string{"w3", "w2"}, Backups: []string{"b1", "b2"}},
		{Kind: CmdSetWitnessList, Partition: 1, WLV: 3, Witnesses: []string{"w3", "w4"}},
		{Kind: CmdSetBackups, Partition: 1, Backups: []string{"b2", "b3"}},
		{Kind: CmdAddMoved, Partition: 1, Addr: "m2",
			Ranges: []witness.HashRange{{Lo: 10, Hi: 20}}},
		{Kind: CmdAddFrozen, Partition: 1, Ranges: []witness.HashRange{{Lo: 30, Hi: 40}}},
		{Kind: CmdDelFrozen, Partition: 1, Ranges: []witness.HashRange{{Lo: 30, Hi: 40}}},
		{Kind: CmdRegisterClient},
		{Kind: CmdRegisterClient},
		{Kind: CmdDelMoved, Partition: 1, Ranges: []witness.HashRange{{Lo: 10, Hi: 20}}},
	}
	a := applyAll(t, cmds)
	b := applyAll(t, cmds)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("replaying the same log produced different states:\n%+v\nvs\n%+v", a, b)
	}
	p := a.Partition(1)
	if p.MasterAddr != "m1b" || p.Epoch != 2 || p.WLV != 3 {
		t.Fatalf("unexpected partition record: %+v", p)
	}
	if a.ClientSeq != 2 {
		t.Fatalf("client seq = %d, want 2", a.ClientSeq)
	}
	if len(p.Moved) != 0 || len(p.Forwards) != 0 {
		t.Fatalf("moved/forwards not withdrawn: %+v", p)
	}
}

func TestApplyRecoveryFencing(t *testing.T) {
	st := NewState()
	mustApply := func(c Command) uint64 {
		t.Helper()
		res, err := st.Apply(&c)
		if err != nil {
			t.Fatalf("apply %v: %v", c.Kind, err)
		}
		return res
	}
	mustApply(Command{Kind: CmdAddPartition, Partition: 7, Epoch: 1, WLV: 1, Addr: "m"})

	// First coordinator reserves epoch 2.
	if got := mustApply(Command{Kind: CmdBeginRecovery, Partition: 7, Epoch: 2, Addr: "r1"}); got != 2 {
		t.Fatalf("reservation result = %d, want 2", got)
	}
	// A rival reservation at the SAME epoch loses deterministically.
	if _, err := st.Apply(&Command{Kind: CmdBeginRecovery, Partition: 7, Epoch: 2, Addr: "r2"}); !errors.Is(err, ErrStale) {
		t.Fatalf("duplicate reservation err = %v, want ErrStale", err)
	}
	// A newer leader supersedes with epoch 3...
	mustApply(Command{Kind: CmdBeginRecovery, Partition: 7, Epoch: 3, Addr: "r2"})
	// ...so the epoch-2 recovery can no longer publish.
	if _, err := st.Apply(&Command{Kind: CmdSetMaster, Partition: 7, Epoch: 2, Addr: "r1"}); !errors.Is(err, ErrStale) {
		t.Fatalf("superseded set-master err = %v, want ErrStale", err)
	}
	mustApply(Command{Kind: CmdSetMaster, Partition: 7, Epoch: 3, WLV: 2, Addr: "r2", Witnesses: []string{"w"}})
	// Replayed/duplicate publication is also stale.
	if _, err := st.Apply(&Command{Kind: CmdSetMaster, Partition: 7, Epoch: 3, Addr: "r2"}); !errors.Is(err, ErrStale) {
		t.Fatalf("replayed set-master err = %v, want ErrStale", err)
	}
	if p := st.Partition(7); p.MasterAddr != "r2" || p.Epoch != 3 {
		t.Fatalf("partition = %+v, want r2@3", p)
	}
}

func TestApplyStaleVerdicts(t *testing.T) {
	st := NewState()
	if _, err := st.Apply(&Command{Kind: CmdBeginRecovery, Partition: 9, Epoch: 1}); err == nil {
		t.Fatal("recovery of unknown partition should fail")
	}
	st.Apply(&Command{Kind: CmdAddPartition, Partition: 9, Epoch: 1, WLV: 1, Addr: "m"})
	if _, err := st.Apply(&Command{Kind: CmdSetWitnessList, Partition: 9, WLV: 5}); !errors.Is(err, ErrStale) {
		t.Fatalf("skipped WLV err = %v, want ErrStale", err)
	}
}

func TestCommandWireRoundTrip(t *testing.T) {
	cmds := []Command{
		{Kind: CmdNoop},
		{Kind: CmdSetMaster, Partition: 3, Epoch: 9, WLV: 4, Addr: "host:1",
			Witnesses: []string{"w1", "w2", "w3"}, Backups: []string{"b1"},
			Ranges: []witness.HashRange{{Lo: 1, Hi: 2}, {Lo: ^uint64(0), Hi: 5}}},
		{Kind: CmdRegisterClient},
	}
	for i := range cmds {
		got, err := DecodeCommand(cmds[i].Encode())
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if !reflect.DeepEqual(*got, cmds[i]) {
			t.Fatalf("round trip %d: got %+v want %+v", i, *got, cmds[i])
		}
	}
}

func TestPartitionCloneIsolation(t *testing.T) {
	st := NewState()
	st.Apply(&Command{Kind: CmdAddPartition, Partition: 1, Epoch: 1, WLV: 1, Addr: "m",
		Witnesses: []string{"w"}, Backups: []string{"b"}})
	cp := st.Partition(1)
	cp.Witnesses[0] = "tampered"
	cp.MasterAddr = "tampered"
	if p := st.Partition(1); p.Witnesses[0] != "w" || p.MasterAddr != "m" {
		t.Fatalf("clone leaked mutations back into the state: %+v", p)
	}
}
