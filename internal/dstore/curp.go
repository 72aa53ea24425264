package dstore

import (
	"context"
	"fmt"

	"curp/internal/commute"
	"curp/internal/core"
	"curp/internal/witness"
)

// Engine is a CURP-enabled data-structure store server — the paper's
// modified Redis (§5.4): commands execute immediately and append to the
// AOF, but the fsync happens off the critical path; durability in the
// window before the fsync comes from client-recorded witnesses. It is the
// dstore substrate of core.Engine, which supplies the whole master
// protocol; here "syncing" means fsyncing the log (the paper: "In this
// experiment the log data is not replicated, but the same mechanism could
// be used to replicate the log data as well").
type Engine struct {
	core.LocalMaster // the MasterAPI its clients call, over its core.Engine E
	store            *Store
	aof              *AOF
	id               uint64

	// unflushed holds the witness gc pairs of appended-but-not-yet-fsynced
	// commands (the AOF keeps bytes, not entries); appendErr is the first
	// AOF append failure. The core engine's execution lock guards both.
	unflushed []witness.GCKey
	appendErr error
	// lastFlushed holds the previous fsync's pairs, which Flush hands out
	// once more: the co-hosted witnesses are collected microseconds after
	// the fsync, often before the client's parallel record lands, and a
	// second look is cheaper here than aging the record into a §4.5 retry.
	lastFlushed []witness.GCKey

	witnesses []*witness.Witness
}

// NewEngine builds a CURP data-structure engine over an AOF. cfg tunes the
// sync (fsync) batching policy.
func NewEngine(id uint64, aof *AOF, cfg core.MasterConfig) *Engine {
	e := &Engine{store: NewStore(), aof: aof, id: id}
	e.E = core.NewEngine(e, cfg, nil, nil)
	return e
}

// Close stops the resident background syncer. Idempotent.
func (e *Engine) Close() { e.E.Close() }

// AttachWitnesses registers the engine's witnesses (co-hosted instances;
// in the paper they are separate Redis servers reached over TCP). They
// receive gc RPC equivalents after each fsync.
func (e *Engine) AttachWitnesses(ws []*witness.Witness) {
	e.witnesses = ws
	e.E.State().SetWitnessListVersion(1)
}

// Store exposes the underlying store (tests).
func (e *Engine) Store() *Store { return e.store }

// ID returns the engine's master ID.
func (e *Engine) ID() uint64 { return e.id }

// Execute implements core.Substrate: apply one command to the store and
// append it to the AOF; the append index is the log position. Every dstore
// command is in the write class (the paper's key-granular rule).
func (e *Engine) Execute(ctx context.Context, req *core.Request, mode core.Mode) core.Executed {
	cmd, err := DecodeCommand(req.Payload)
	if err != nil {
		return core.Executed{Status: core.StatusError, Err: err.Error()}
	}
	readOnly := cmd.IsReadOnly()
	if mode == core.ReadOnly && !readOnly {
		return core.Executed{Status: core.StatusError, Err: "dstore: Read requires a read-only command"}
	}
	res, err := e.store.Apply(cmd)
	if err != nil {
		return core.Executed{Status: core.StatusError, Err: err.Error()}
	}
	ex := core.Executed{Result: res.Encode(), Class: commute.ClassWrite}
	if readOnly {
		return ex
	}
	if err := e.aof.Append(cmd, req.ID); err != nil {
		if e.appendErr == nil {
			e.appendErr = err
		}
		return core.Executed{Status: core.StatusError, Err: fmt.Sprintf("aof: %v", err)}
	}
	ex.LSN = e.aof.Appended()
	e.unflushed = append(e.unflushed, witness.GCKeys(req.KeyHashes, req.ID)...)
	return ex
}

// Head implements core.Substrate.
func (e *Engine) Head() uint64 { return e.aof.Appended() }

// Flush implements core.Substrate (PAPER §5.4: an fsync is this substrate's
// "sync"). The gc pairs are taken with the head under the execution lock,
// so they name exactly the commands the fsync makes durable.
func (e *Engine) Flush(ctx context.Context, synced uint64) (uint64, []witness.GCKey, error) {
	e.E.Lock()
	head, keys := e.aof.Appended(), e.unflushed
	e.unflushed = nil
	e.E.Unlock()
	if head <= synced {
		return synced, nil, nil
	}
	if err := e.aof.Sync(); err != nil {
		// Not durable: the pairs go back for the next attempt.
		e.E.Lock()
		e.unflushed = append(keys, e.unflushed...)
		e.E.Unlock()
		return 0, nil, err
	}
	again := e.lastFlushed
	e.lastFlushed = keys
	return head, append(again, keys...), nil
}

// StartGarbage implements core.Substrate: one batched GC pass per witness
// per sync (the paper's gc-by-RPC-ID-list, §4.5). The witnesses are
// direct-call objects, so the pass runs here and the call is complete.
func (e *Engine) StartGarbage(keys []witness.GCKey) core.GarbageCall {
	var stale []witness.Record
	for _, w := range e.witnesses {
		stale = append(stale, w.GC(keys)...)
	}
	return core.DoneGarbage(stale)
}

// Recover rebuilds an engine after a crash: replay the durable AOF prefix
// (rebuilding the RIFL completion-record table from the IDs each record
// carries), then replay witness records with RIFL filtering duplicates,
// then fsync — the same restore-then-replay recipe as §3.3, with the AOF
// standing in for backups. The witness freezes, so clients of the old
// engine cannot complete updates anymore.
func Recover(id uint64, durableLog []byte, w *witness.Witness, newAOF *AOF, cfg core.MasterConfig) (*Engine, error) {
	records, err := DecodeLog(durableLog)
	if err != nil {
		return nil, err
	}
	e := NewEngine(id, newAOF, cfg)
	if err := e.restore(records, w); err != nil {
		e.Close()
		return nil, err
	}
	return e, nil
}

// restore is Recover's body on a fresh engine.
func (e *Engine) restore(records []AOFRecord, w *witness.Witness) error {
	// Rebuild the store, the completion records and the AOF itself, so
	// future recoveries see the restored prefix. Records are re-appended
	// without fsync; the final Sync covers them.
	for i, rec := range records {
		res, err := e.store.Apply(rec.Cmd)
		if err != nil {
			return fmt.Errorf("dstore: replay record %d: %w", i, err)
		}
		if !rec.ID.IsZero() {
			e.E.Tracker().Record(rec.ID, res.Encode())
		}
		if err := e.aof.Append(rec.Cmd, rec.ID); err != nil {
			return err
		}
	}
	if w != nil {
		e.E.Recover(context.Background(), w.GetRecoveryData())
		if e.appendErr != nil {
			return e.appendErr
		}
	}
	if err := e.aof.Sync(); err != nil {
		return err
	}
	e.E.State().InitRestored(e.aof.Appended(), e.aof.Appended())
	return nil
}
