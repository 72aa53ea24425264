package kv

import (
	"fmt"
	"slices"
	"time"

	"curp/internal/rifl"
	"curp/internal/witness"
)

// Snapshot is a replica's state at one log position: everything a master
// needs to serve on from there, and nothing of how the state came about.
// A state transfer ships it in pieces — a piece is a Snapshot holding some
// of the elements — and the receiver installs piece after piece (Install)
// into an empty store or backup, then seals it at LSN (FinishInstall).
//
// A captured Snapshot shares its values with the store it came from: stored
// values are replaced wholesale, never modified in place, so the capture
// copies no value and stays valid whatever the store does next.
//
// PAPER §3.3: the new master "restores data from one of the backups"; this
// is that data.
type Snapshot struct {
	// LSN is the log position the state reflects.
	LSN LSN
	// Objects are the stored objects, tombstones included.
	Objects []MigratedObject
	// Prepared are the cross-shard transactions holding locks.
	Prepared []PreparedTxn
	// Decisions are the home-shard transaction decision records.
	Decisions []TxnDecisionRecord
	// Completions are the RIFL completion records no client ack has
	// collected yet; Clients says, per client, below which sequence number
	// the records are gone for good (PAPER §4.8).
	Completions []rifl.Completion
	Clients     []rifl.ClientMark
}

// PreparedTxn is the exported form of a prepared transaction: its locks and
// the writes to run if the decision is commit.
type PreparedTxn struct {
	ID     rifl.RPCID
	Home   TxnHome
	Writes []TxnWrite
	Keys   [][]byte
}

// Snapshot captures the store's objects, prepared transactions and
// decision records at its head, in O(keys) and without copying a value.
// Completion records live beside the store (a master's RIFL tracker, a
// backup's table); the caller adds them.
func (s *Store) Snapshot() Snapshot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	snap := Snapshot{LSN: s.head, Objects: make([]MigratedObject, 0, len(s.objects))}
	for k, o := range s.objects {
		snap.Objects = append(snap.Objects, MigratedObject{
			Key: []byte(k), Value: o.value, Version: o.version, Tombstone: o.value == nil, ExpireAt: o.expireAt,
		})
	}
	for _, p := range s.prepared {
		pt := PreparedTxn{ID: p.id, Home: p.home, Writes: p.writes, Keys: make([][]byte, len(p.keys))}
		for i, k := range p.keys {
			pt.Keys[i] = []byte(k)
		}
		snap.Prepared = append(snap.Prepared, pt)
	}
	for id, d := range s.decisions {
		snap.Decisions = append(snap.Decisions, TxnDecisionRecord{ID: id, Commit: d.commit, HomeHash: d.homeHash})
	}
	return snap
}

// SortByKeyHash orders objects by key hash (ties by key): the order a state
// transfer walks them in, so a position in it means the same on every
// replica that holds the same state.
func SortByKeyHash(objs []MigratedObject) {
	type ranked struct {
		hash uint64
		obj  MigratedObject
	}
	rs := make([]ranked, len(objs))
	for i, o := range objs {
		rs[i] = ranked{witness.KeyHash(o.Key), o}
	}
	slices.SortFunc(rs, func(a, b ranked) int {
		if a.hash != b.hash {
			if a.hash < b.hash {
				return -1
			}
			return 1
		}
		return slices.Compare(a.obj.Key, b.obj.Key)
	})
	for i := range rs {
		objs[i] = rs[i].obj
	}
}

// Install adds one piece of a snapshot to a store that is being built from
// it: objects verbatim (the store adopts the piece's buffers), prepared
// transactions with their locks, decision records. Pieces may arrive in any
// number and split, each stamped with the snapshot's LSN (every installed
// object counts as last updated there); installing one twice is harmless.
// The store is not usable as a replica until FinishInstall.
func (s *Store) Install(piece *Snapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, mo := range piece.Objects {
		o := &object{version: mo.Version, lsn: piece.LSN}
		if !mo.Tombstone {
			if o.value = mo.Value; o.value == nil {
				o.value = []byte{}
			}
		}
		s.objects[string(mo.Key)] = o
		s.setExpiry(mo.Key, o, mo.ExpireAt)
	}
	for _, pt := range piece.Prepared {
		// The lock's age restarts here: orphan resolution counts from when
		// THIS replica started holding it.
		p := &preparedTxn{id: pt.ID, home: pt.Home, writes: pt.Writes, since: time.Now()}
		for _, k := range pt.Keys {
			p.keys = append(p.keys, string(k))
			s.locks[string(k)] = p
		}
		s.prepared[pt.ID] = p
	}
	for _, d := range piece.Decisions {
		s.decisions[d.ID] = txnDecision{commit: d.Commit, homeHash: d.HomeHash}
	}
}

// FinishInstall seals a store built by Install at the snapshot's LSN: its
// head and log base become lsn — the log is empty and resumes at lsn+1.
func (s *Store) FinishInstall(lsn LSN) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.head != 0 || len(s.log) != 0 {
		return fmt.Errorf("kv: install into a store already at lsn %d", s.head)
	}
	s.base, s.head = lsn, lsn
	return nil
}

// Adopt makes s, which must be empty, the store that built was installed
// as: s takes over built's state whole (built must not be used again). It
// is how a node that cannot swap its store pointer — a master, whose store
// every handler already reads — still installs aside and switches at once.
func (s *Store) Adopt(built *Store) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.head != 0 || len(s.objects) != 0 {
		return fmt.Errorf("kv: adopt into a store already at lsn %d with %d objects", s.head, len(s.objects))
	}
	built.mu.Lock()
	defer built.mu.Unlock()
	s.objects, s.expiry = built.objects, built.expiry
	s.locks, s.prepared, s.decisions = built.locks, built.prepared, built.decisions
	s.log, s.base, s.head = built.log, built.base, built.head
	return nil
}
