package core

import (
	"context"
	"fmt"

	"curp/internal/commute"
	"curp/internal/metrics"
	"curp/internal/rifl"
	"curp/internal/witness"
)

// This file is the asynchronous update engine — the single state machine
// behind every mutating verb. A client may keep any number of operations
// in flight (the paper's §5.2 evaluation saturates the cluster with
// asynchronous requests, and RIFL was designed so exactly-once semantics
// survive concurrent outstanding RPCs per client); the engine additionally
// coalesces a batch of operations into O(1) RPCs per server:
//
//   - one UpdateBatch RPC to the master carrying every request, executed
//     in order;
//   - one RecordBatch RPC per witness carrying every record, accepted or
//     rejected per record;
//   - at most one Sync RPC covering every witness-rejected operation in
//     the batch;
//   - one Drop RPC per witness retracting every redirect-abandoned
//     operation.
//
// Completion stays per operation: an operation is complete the moment the
// master executed it speculatively AND all f witnesses accepted its record
// (1 RTT, §3.2.1), or the master reports it synced, or a sync covers it —
// independently of its batch-mates' fates.

// Future is the handle to an asynchronous update. It is fulfilled exactly
// once, by the engine goroutine driving the operation's batch.
type Future struct {
	// done is nil for an operation whose submitter drives the engine itself
	// (Update): it reads the outcome when runBatch returns, nobody waits.
	done    chan struct{}
	payload []byte
	err     error
}

func (f *Future) complete(payload []byte) {
	f.payload = payload
	if f.done != nil {
		close(f.done)
	}
}

func (f *Future) fail(err error) {
	f.err = err
	if f.done != nil {
		close(f.done)
	}
}

// Done returns a channel closed when the operation has completed or
// failed.
func (f *Future) Done() <-chan struct{} { return f.done }

// Wait blocks until the operation completes, returning the substrate
// result. The operation is durable (f-fault tolerant) exactly when the
// returned error is nil. If ctx ends first, Wait returns ctx's error but
// the operation itself keeps running under its submission context; a
// later Wait can still observe its outcome.
func (f *Future) Wait(ctx context.Context) ([]byte, error) {
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-f.done:
		return f.payload, f.err
	}
}

// BatchOp is one operation of an asynchronous batch submission.
type BatchOp struct {
	// KeyHashes is the operation's commutativity footprint.
	KeyHashes []uint64
	// Payload is the substrate command.
	Payload []byte
	// Class is the operation's commutativity class, recorded alongside the
	// key hashes at witnesses and in the update envelope.
	Class commute.Class
}

// asyncOp is one in-flight operation inside the engine: the operation, its
// completion and the state of its current flush attempt are one object.
type asyncOp struct {
	id        rifl.RPCID
	keyHashes []uint64
	payload   []byte
	class     commute.Class
	fut       Future
	// req is the envelope the current attempt sends the master, and accepts
	// counts the witnesses that accepted its record; both are rewritten by
	// every attempt.
	req     Request
	accepts int
	// deferFinish leaves the session's ack frontier untouched on
	// completion: the caller finishes the ID itself once every dependent
	// step is done. Cross-shard transactions use it for the home decision
	// record — acking it early would let the home master discard the
	// decision while participants still hold locks that need it.
	deferFinish bool
}

// UpdateAsync submits one mutating operation and returns immediately. The
// returned Future completes when the operation is durable (or has failed
// after the configured retries). Equivalent to a one-operation
// UpdateBatchAsync.
func (c *Client) UpdateAsync(ctx context.Context, keyHashes []uint64, payload []byte, class commute.Class) *Future {
	return c.UpdateBatchAsync(ctx, []BatchOp{{KeyHashes: keyHashes, Payload: payload, Class: class}})[0]
}

// UpdateWithIDAsync submits one mutating operation under a caller-minted
// RIFL ID (from this client's session) and leaves the session's ack
// frontier alone: the caller must Finish the ID itself when the operation's
// role is over. The transaction layer uses it for the home decision record,
// whose ID doubles as the transaction ID.
func (c *Client) UpdateWithIDAsync(ctx context.Context, id rifl.RPCID, keyHashes []uint64, payload []byte) *Future {
	op := &asyncOp{
		id:          id,
		keyHashes:   keyHashes,
		payload:     payload,
		fut:         Future{done: make(chan struct{})},
		deferFinish: true,
	}
	go c.runBatch(ctx, []*asyncOp{op})
	return &op.fut
}

// UpdateBatchAsync submits a batch of mutating operations and returns one
// Future per operation, aligned with ops. The batch is flushed as
// coalesced RPCs (one UpdateBatch to the master, one RecordBatch per
// witness); operations complete independently. RPC IDs are assigned in
// ops order and the master executes the batch in order, so two operations
// on the same key submitted in one batch are applied in submission order.
func (c *Client) UpdateBatchAsync(ctx context.Context, ops []BatchOp) []*Future {
	futs := make([]*Future, len(ops))
	slab := make([]asyncOp, len(ops)) // the batch's operations, one allocation
	aops := make([]*asyncOp, len(ops))
	for i, op := range ops {
		slab[i] = asyncOp{
			id:        c.session.NextID(),
			keyHashes: op.KeyHashes,
			payload:   op.Payload,
			class:     op.Class,
			fut:       Future{done: make(chan struct{})},
		}
		aops[i], futs[i] = &slab[i], &slab[i].fut
	}
	if len(aops) == 0 {
		return futs
	}
	go c.runBatch(ctx, aops)
	return futs
}

// runBatch drives a batch of operations to completion: repeated flush
// attempts against the current view, with per-operation outcomes deciding
// which operations retry. Operations retry with their original RPC IDs so
// RIFL filters duplicates across master failures (§3.2.1). Every operation
// is resolved when it returns. It runs on whichever goroutine owns the
// batch: the caller's own for the blocking Update, a spawned one for the
// asynchronous submissions.
func (c *Client) runBatch(ctx context.Context, ops []*asyncOp) {
	// The in-flight gauge is the observable pipeline depth: how many
	// operations the engine currently owns across all concurrent batches.
	c.inFlight.Add(int64(len(ops)))
	defer c.inFlight.Add(-int64(len(ops)))
	pending := ops
	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxAttempts && len(pending) > 0; attempt++ {
		if attempt > 0 {
			c.retries.Add(uint64(len(pending)))
		}
		if err := c.pause(ctx, attempt); err != nil {
			failAll(pending, err)
			return
		}
		view, err := c.views.View(ctx, attempt > 0)
		if err != nil {
			lastErr = err
			continue
		}
		pending, lastErr = c.flushOnce(ctx, view, pending, lastErr)
		if ctx.Err() != nil {
			failAll(pending, ctx.Err())
			return
		}
	}
	for _, op := range pending {
		op.fut.fail(fmt.Errorf("%w: %v", ErrUpdateFailed, lastErr))
	}
}

// RecordStarter is the optional asynchronous form of WitnessAPI.RecordBatch
// (the io.WriterTo idiom): a witness connection that can put the record
// request on the wire and return lets one flush keep its f records and the
// master RPC in flight from a single goroutine. A WitnessAPI without it is
// run on a leg goroutine by goRecordBatch.
type RecordStarter interface {
	// StartRecordBatch begins RecordBatch(ctx, masterID, recs). It does not
	// fail; errors surface from the returned call's Wait.
	StartRecordBatch(ctx context.Context, masterID uint64, recs []witness.Record) RecordCall
}

// RecordCall is a started RecordBatch. Exactly one of Wait and Cancel must
// be called, once: a call neither collected nor cancelled would pin its
// transport's pending entry.
type RecordCall interface {
	// Wait blocks until the witness answered or ctx ends, and stores the
	// verdict on record i in results[i] (len(results) == the number of
	// records started). An error means the witness accepted nothing usable.
	Wait(ctx context.Context, results []witness.RecordResult) error
	// Cancel abandons the call; the witness may still record.
	Cancel()
}

// startRecord begins one witness's RecordBatch without blocking.
func startRecord(ctx context.Context, w WitnessAPI, masterID uint64, recs []witness.Record) RecordCall {
	if s, ok := w.(RecordStarter); ok {
		return s.StartRecordBatch(ctx, masterID, recs)
	}
	return goRecordBatch(ctx, w, masterID, recs)
}

// goRecordBatch adapts a blocking RecordBatch to RecordCall by running it on
// a goroutine of its own — the one place a flush still spawns, reached only
// by witnesses that cannot start a record themselves (test fakes, stubs).
func goRecordBatch(ctx context.Context, w WitnessAPI, masterID uint64, recs []witness.Record) RecordCall {
	leg := &goRecord{done: make(chan struct{})}
	go func() {
		leg.results, leg.err = w.RecordBatch(ctx, masterID, recs)
		close(leg.done)
	}()
	return leg
}

type goRecord struct {
	doneRecord // written by the leg goroutine before it closes done
	done       chan struct{}
}

func (g *goRecord) Wait(ctx context.Context, results []witness.RecordResult) error {
	select {
	case <-g.done:
		return g.doneRecord.Wait(ctx, results)
	case <-ctx.Done():
		return ctx.Err()
	}
}

// DoneRecord is the RecordCall of a RecordBatch that already ran: what an
// in-process witness, which has nothing to overlap, returns from
// StartRecordBatch.
func DoneRecord(results []witness.RecordResult, err error) RecordCall {
	return &doneRecord{results: results, err: err}
}

type doneRecord struct {
	results []witness.RecordResult
	err     error
}

func (d *doneRecord) Wait(_ context.Context, results []witness.RecordResult) error {
	if d.err != nil {
		return d.err
	}
	if len(d.results) != len(results) {
		return fmt.Errorf("curp: witness returned %d results for %d records", len(d.results), len(results))
	}
	copy(results, d.results)
	return nil
}

// Cancel has nothing to release: the record ran, or its goroutine ends with
// it.
func (d *doneRecord) Cancel() {}

// recordLeg is one witness's share of a flush: the started record and the
// client-side span around it.
type recordLeg struct {
	call RecordCall // nil once collected or cancelled
	span *metrics.SpanHandle
}

// abandonLegs cancels every leg the flush did not collect, so no exit
// leaves a started call behind.
func abandonLegs(legs []recordLeg) {
	for i := range legs {
		if leg := &legs[i]; leg.call != nil {
			leg.call.Cancel()
			leg.call = nil
			leg.span.SetVerdict("abandoned")
			leg.span.End()
		}
	}
}

// flushOnce performs one coalesced submission attempt for the pending
// operations and resolves every operation whose outcome is final. It
// returns the operations that must be retried (in submission order) and
// the error to report if retries run out.
func (c *Client) flushOnce(ctx context.Context, view *View, pending []*asyncOp, lastErr error) ([]*asyncOp, error) {
	// Mint one trace per flush attempt: the root span is the client's view
	// of the whole coalesced round trip, and the trace context rides every
	// RPC below via ctx. With no collector attached this is a nil no-op and
	// the frames keep the untraced encoding.
	ctx, flushSpan := c.cfg.Trace.StartTrace(ctx, "client-flush", uint8(c.traceFlags.Load()))
	flushSpan.SetOp("update_batch")
	flushSpan.SetVerdict("fast")
	defer flushSpan.End()

	reqs := make([]*Request, len(pending))
	recs := make([]witness.Record, len(pending))
	ack := c.session.Ack()
	for i, op := range pending {
		op.accepts = 0
		op.req = Request{
			ID:                 op.id,
			Ack:                ack,
			WitnessListVersion: view.WitnessListVersion,
			KeyHashes:          op.keyHashes,
			Payload:            op.payload,
			Class:              op.class,
		}
		reqs[i] = &op.req
		recs[i] = witness.Record{KeyHashes: op.keyHashes, ID: op.id, Request: op.payload, Class: op.class}
	}

	// One RecordBatch per witness, started before the master RPC and
	// collected after it (the overlap that makes the 1-RTT path possible).
	// Every exit below that does not collect a leg cancels it.
	var legBuf [4]recordLeg
	legs := legBuf[:0]
	defer func() { abandonLegs(legs) }()
	for _, w := range view.Witnesses {
		wctx, sp := c.cfg.Trace.StartSpan(ctx, "witness-record")
		legs = append(legs, recordLeg{call: startRecord(wctx, w, view.MasterID, recs), span: sp})
	}

	mctx, masterSpan := c.cfg.Trace.StartSpan(ctx, "master-update")
	replies, merr := view.Master.UpdateBatch(mctx, reqs)
	masterSpan.SetErr(merr)
	masterSpan.End()

	if merr != nil {
		// Master unreachable: refetch the view and retry the whole batch
		// under the same IDs. Re-recorded requests conflict with their own
		// surviving records and fall to the slow path, which is safe.
		if ctx.Err() != nil {
			return pending, ctx.Err()
		}
		return pending, merr
	}
	if len(replies) != len(pending) {
		return pending, fmt.Errorf("curp: master returned %d replies for %d requests", len(replies), len(pending))
	}

	// First pass: resolve every operation whose outcome does NOT depend
	// on witness results. A master-synced reply completes immediately —
	// witness outcomes are irrelevant (§3.2.3) and must not be waited
	// for (a partitioned witness would otherwise stall an already-durable
	// operation). What stays undecided is exactly the replies that are OK
	// and unsynced, awaiting the completion rule.
	var retry []*asyncOp
	undecided := 0
	var moved []*asyncOp
	var movedKeys []witness.GCKey
	for i, op := range pending {
		reply := replies[i]
		switch reply.Status {
		case StatusOK:
			if reply.Synced {
				c.syncedByMaster.Add(1)
				c.finishOp(op)
				op.fut.complete(reply.Payload)
			} else {
				undecided++
			}
		case StatusStaleWitnessList, StatusWrongMaster:
			lastErr = fmt.Errorf("curp: master replied %v", reply.Status)
			retry = append(retry, op)
		case StatusTxnLocked:
			// A prepared transaction holds one of the keys; the lock clears
			// when its decision lands (the master resolves orphans on a
			// timeout), so retry with the normal backoff.
			lastErr = fmt.Errorf("curp: master replied %v", reply.Status)
			retry = append(retry, op)
		case StatusKeyMoved:
			// The key's range left this partition; only the routing layer
			// can find the new owner, and it will reissue the operation
			// under a FRESH RPC ID. Before abandoning this ID its records
			// must be retracted — see the drop block below.
			moved = append(moved, op)
			movedKeys = append(movedKeys, witness.GCKeys(op.keyHashes, op.id)...)
		case StatusIgnored:
			op.fut.fail(ErrIgnored)
		case StatusError:
			// Execution failed deterministically (e.g. a type error).
			// Nothing mutated; surface to the application.
			op.fut.fail(fmt.Errorf("curp: execution error: %s", reply.Err))
		default:
			op.fut.fail(fmt.Errorf("curp: unexpected status %v", reply.Status))
		}
	}
	if undecided == 0 && len(moved) == 0 {
		orderRetry(pending, retry)
		return retry, lastErr
	}

	// Gather the witness outcomes: the completion rule needs the accept
	// counts, and the redirect path must not retract records that are
	// still in flight. A leg's client-side span ends here, when the flush
	// collects it, not when the witness's reply landed.
	results := make([]witness.RecordResult, len(pending))
	for i := range legs {
		leg := &legs[i]
		err := leg.call.Wait(ctx, results)
		leg.call = nil
		leg.span.SetErr(err)
		if err == nil {
			for j, res := range results {
				if res.Ok() {
					pending[j].accepts++
				} else {
					leg.span.SetVerdict("reject-conflict")
				}
			}
		}
		leg.span.End()
	}

	var needSync []*asyncOp
	var needSyncPayload [][]byte
	for i, op := range pending {
		if replies[i].Status != StatusOK || replies[i].Synced {
			continue
		}
		if op.accepts == len(view.Witnesses) {
			// 1-RTT completion rule: all f witnesses accepted.
			c.fastPath.Add(1)
			c.finishOp(op)
			op.fut.complete(replies[i].Payload)
		} else {
			needSync = append(needSync, op)
			needSyncPayload = append(needSyncPayload, replies[i].Payload)
		}
	}

	// Slow path, amortized: ONE sync RPC makes every witness-rejected
	// operation of the batch durable (the master's sync covers all
	// executed operations), instead of one sync per rejected operation.
	if len(needSync) > 0 {
		flushSpan.SetVerdict("conflict-sync")
		sctx, syncSpan := c.cfg.Trace.StartSpan(ctx, "sync-wait")
		syncSpan.SetVerdict("conflict-sync")
		serr := view.Master.Sync(sctx)
		syncSpan.SetErr(serr)
		syncSpan.End()
		if err := serr; err == nil {
			for i, op := range needSync {
				c.slowPath.Add(1)
				c.finishOp(op)
				op.fut.complete(needSyncPayload[i])
			}
		} else if ctx.Err() != nil {
			return append(retry, needSync...), ctx.Err()
		} else {
			// No response to the sync RPC: the master may have crashed.
			// Restart these operations against a fresh view (§3.2.1).
			lastErr = err
			retry = append(retry, needSync...)
		}
	}

	// Redirect path, amortized: a surviving record of an abandoned ID
	// would later be replayed (crash recovery) or §4.5-retried (after a
	// migration abort unfreezes the range) as a brand-new operation,
	// double-applying work the routing layer's reissue already did. All
	// abandoned operations are retracted together: ONE Drop RPC per
	// witness carries every (keyHash, id) pair, so a bounced pipeline
	// flush cleans up in O(witnesses) RPCs, not O(ops × witnesses). Only
	// when every witness confirmed the retraction is it safe to hand the
	// operations to the routing layer.
	if len(moved) > 0 {
		flushSpan.SetVerdict("moved")
		dropped := true
		for _, w := range view.Witnesses {
			if derr := w.Drop(ctx, view.MasterID, movedKeys); derr != nil {
				dropped = false
				lastErr = fmt.Errorf("curp: retract abandoned records: %w", derr)
			}
		}
		if dropped {
			for _, op := range moved {
				// The ID is fully dead — never executed, records
				// retracted — so finish it: a permanently unfinished seq
				// would freeze the session's ack frontier and pin every
				// later completion record at the master for the session's
				// lifetime.
				c.session.Finish(op.id)
				c.redirects.Add(1)
				op.fut.fail(ErrKeyMoved)
			}
		} else {
			// Keep the IDs alive and retry here instead: the master keeps
			// bouncing, but no duplicate can ever materialize, which
			// beats returning a redirect we cannot make safe.
			retry = append(retry, moved...)
		}
	}

	// Preserve submission order among retried operations so a retried
	// batch still executes same-key operations in the order they were
	// queued.
	orderRetry(pending, retry)
	return retry, lastErr
}

// finishOp advances the session's ack frontier past a completed operation,
// unless the caller asked to manage the ID's lifetime itself.
func (c *Client) finishOp(op *asyncOp) {
	if !op.deferFinish {
		c.session.Finish(op.id)
	}
}

// orderRetry sorts retry in place by position in pending (both are small).
func orderRetry(pending, retry []*asyncOp) {
	if len(retry) < 2 {
		return
	}
	pos := make(map[*asyncOp]int, len(pending))
	for i, op := range pending {
		pos[op] = i
	}
	for i := 1; i < len(retry); i++ {
		for j := i; j > 0 && pos[retry[j-1]] > pos[retry[j]]; j-- {
			retry[j-1], retry[j] = retry[j], retry[j-1]
		}
	}
}

func failAll(ops []*asyncOp, err error) {
	for _, op := range ops {
		op.fut.fail(err)
	}
}
