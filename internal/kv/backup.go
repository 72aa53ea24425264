package kv

import (
	"fmt"
	"sync"

	"curp/internal/rifl"
)

// Backup is the storage half of one backup server: the master's state at
// the last log position the master synced — a replica store the appended
// entries are replayed into, and the completion records of the operations
// no client ack has collected yet. It keeps no entries: what a recovering
// master needs is the state (Snapshot), and what §A.1 reads need is the
// replica (Read). The paper's backups asynchronously flush to disk; here
// durability is the process outliving the master, which is the property
// recovery tests exercise. Safe for concurrent use.
type Backup struct {
	mu     sync.Mutex
	synced LSN
	store  *Store
	// clients is the completion table: per client, the entries of its
	// unacknowledged operations and the watermark below which they are gone.
	// An entry is kept as decoded — its result is encoded only when a
	// snapshot asks — so recording one allocates nothing.
	clients map[rifl.ClientID]*clientRecords
	records int
}

// clientRecords is one client's slice of a backup's completion table.
type clientRecords struct {
	firstUnacked rifl.Seq
	expired      bool
	done         map[rifl.Seq]Entry
}

// NewBackup returns an empty backup.
func NewBackup() *Backup {
	return &Backup{store: NewReplicaStore(), clients: make(map[rifl.ClientID]*clientRecords)}
}

// Append materialises entries, which must directly extend what the backup
// holds (entries[0].LSN == synced+1, contiguous): each is replayed into the
// replica and its completion record kept until the client's ack. Replays of
// an already-stored prefix are ignored, so masters can safely retry syncs.
func (b *Backup) Append(entries []Entry) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.store.mu.Lock()
	defer b.store.mu.Unlock()
	for i := range entries {
		en := &entries[i]
		switch {
		case en.LSN <= b.synced:
			continue // duplicate from a retried sync
		case en.LSN == b.synced+1:
			if err := b.store.replay(en); err != nil {
				return err
			}
			b.synced = en.LSN
			b.record(en)
		default:
			return fmt.Errorf("kv: backup gap: entry %d after synced %d", en.LSN, b.synced)
		}
	}
	return nil
}

// record folds one replayed entry into the completion table, as the
// master's RIFL tracker did when it executed the operation. Must hold b.mu.
//
// PAPER §4.8: a completion record leaves by the client's ack — carried by a
// later entry, so ordered with the log — or by a lease expiry the master
// logged after a sync, and by nothing else.
func (b *Backup) record(en *Entry) {
	if en.Cmd.Op == OpExpireClient {
		c := rifl.ClientID(en.Cmd.Delta)
		if cs := b.clients[c]; cs != nil {
			b.records -= len(cs.done)
		}
		b.clients[c] = &clientRecords{expired: true}
		return
	}
	if en.ID.IsZero() {
		return // a master-originated entry: nobody retries it
	}
	cs := b.clients[en.ID.Client]
	if cs == nil {
		cs = &clientRecords{}
		b.clients[en.ID.Client] = cs
	}
	if cs.done == nil {
		cs.done = make(map[rifl.Seq]Entry)
	}
	if en.Ack > cs.firstUnacked {
		// Walk whichever is shorter: an ack far ahead of the watermark must
		// not cost a loop over sequence numbers that were never recorded.
		if uint64(en.Ack-cs.firstUnacked) <= uint64(len(cs.done)) {
			for s := cs.firstUnacked; s < en.Ack; s++ {
				if _, ok := cs.done[s]; ok {
					delete(cs.done, s)
					b.records--
				}
			}
		} else {
			for s := range cs.done {
				if s < en.Ack {
					delete(cs.done, s)
					b.records--
				}
			}
		}
		cs.firstUnacked = en.Ack
	}
	if en.ID.Seq < cs.firstUnacked {
		return
	}
	if _, ok := cs.done[en.ID.Seq]; !ok {
		b.records++
	}
	cs.done[en.ID.Seq] = *en
	cs.expired = false
}

// SyncedLSN returns the log position the backup's state reflects.
func (b *Backup) SyncedLSN() LSN {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.synced
}

// Read executes a read-only command against the replica: the §A.1
// backup-read path, which sees synced state only.
func (b *Backup) Read(cmd *Command) (*Result, error) {
	if !cmd.IsReadOnly() {
		return nil, fmt.Errorf("kv: backup read of mutating command %v", cmd.Op)
	}
	res, _, err := b.store.Apply(cmd, rifl.RPCID{})
	return res, err
}

// DropRange removes the replica's objects whose key matches pred (a range
// that migrated away) and returns how many were dropped.
func (b *Backup) DropRange(pred func(key []byte) bool) int { return b.store.DropRange(pred) }

// Objects returns how many objects the replica holds, tombstones included.
func (b *Backup) Objects() int { return b.store.Len() }

// CompletionRecords returns how many completion records the backup holds.
func (b *Backup) CompletionRecords() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.records
}

// Snapshot captures the backup's state at its synced LSN: the replica's
// objects, prepared transactions and decisions, the completion records —
// encoded here, where a transfer asks for them — and every client's mark.
func (b *Backup) Snapshot() Snapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	snap := b.store.Snapshot()
	snap.Completions = make([]rifl.Completion, 0, b.records)
	for c, cs := range b.clients {
		for _, en := range cs.done {
			snap.Completions = append(snap.Completions, rifl.Completion{
				ID: en.ID, Result: en.Result.Encode(), KeyHashes: en.Cmd.KeyHashes(),
			})
		}
		if cs.firstUnacked > 0 || cs.expired {
			snap.Clients = append(snap.Clients, rifl.ClientMark{Client: c, FirstUnacked: cs.firstUnacked, Expired: cs.expired})
		}
	}
	return snap
}

// Install adds one piece of a snapshot to a backup being built from it
// (see Store.Install). An installed completion record is kept as a
// migrate-record entry: the same shape a migrated one has in the log.
func (b *Backup) Install(piece *Snapshot) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.store.Install(piece)
	for _, c := range piece.Completions {
		res, err := DecodeResult(c.Result)
		if err != nil {
			return fmt.Errorf("kv: install completion %v: %w", c.ID, err)
		}
		cmd := MigrateRecord(c.Result, c.KeyHashes)
		b.record(&Entry{Cmd: &cmd, ID: c.ID, Result: res})
	}
	for _, m := range piece.Clients {
		cs := b.clients[m.Client]
		if cs == nil {
			cs = &clientRecords{}
			b.clients[m.Client] = cs
		}
		cs.expired = m.Expired
		if m.FirstUnacked > cs.firstUnacked {
			cs.firstUnacked = m.FirstUnacked
		}
	}
	return nil
}

// FinishInstall seals a backup built by Install at the snapshot's LSN; the
// next Append must start at lsn+1.
func (b *Backup) FinishInstall(lsn LSN) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.store.FinishInstall(lsn); err != nil {
		return err
	}
	b.synced = lsn
	return nil
}
