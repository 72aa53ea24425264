package shard

import (
	"context"
	"errors"
	"fmt"
	"time"

	"curp/internal/core"
	"curp/internal/kv"
)

// pipeOp is one queued pipeline command being driven to completion. A
// single-key command is one unit of work; a multi-key command is one leg
// per pair, regrouped by owning shard at every flush attempt (a rebalance
// between attempts may move legs between shards).
type pipeOp struct {
	slot int // index in the batch
	cmd  *kv.Command

	// Multi-key commands only: per-leg progress.
	legDone []bool
	legVal  [][]byte

	outstanding int // units of work not yet applied
	failed      error
}

// segment is the part of one operation going to one shard in one flush
// attempt: the whole operation for single-key commands, a subset of legs
// for multi-key commands.
type segment struct {
	op      *pipeOp
	legIdxs []int // nil for single-key operations
}

// command materializes the segment's shard-atomic sub-command.
func (s *segment) command() kv.Command {
	if s.legIdxs == nil {
		return *s.op.cmd
	}
	sub := kv.Command{Op: s.op.cmd.Op, Pairs: make([]kv.KV, len(s.legIdxs))}
	for j, i := range s.legIdxs {
		sub.Pairs[j] = s.op.cmd.Pairs[i]
	}
	return sub
}

// credit applies a successful segment result to its operation and resolves
// the batch slot when the operation has no outstanding work left.
func (s *segment) credit(b *kv.Batch, res *kv.Result) {
	op := s.op
	if s.legIdxs == nil {
		op.outstanding = 0
		b.Resolve(op.slot, res, nil)
		return
	}
	for j, i := range s.legIdxs {
		if op.legDone[i] {
			continue
		}
		op.legDone[i] = true
		op.outstanding--
		if j < len(res.Values) {
			if op.legVal == nil {
				op.legVal = make([][]byte, len(op.legDone))
			}
			op.legVal[i] = res.Values[j]
		}
	}
	if op.outstanding == 0 && op.failed == nil {
		b.Resolve(op.slot, &kv.Result{Values: op.legVal}, nil)
	}
}

// FlushBatch submits a pipeline's queue scatter/gather: operations are
// grouped by owning shard under the current ring, every shard's group is
// submitted as ONE coalesced batch (one UpdateBatch RPC to that shard's
// master, one RecordBatch per witness), and the groups fly in parallel.
// Sub-operations bounced by a live migration (core.ErrKeyMoved) are
// regrouped under a refreshed ring and re-issued — with fresh RIFL IDs,
// which is safe because a bounced operation never executed and its witness
// records were retracted — so a pipeline survives a Rebalance; completed
// sub-operations are never re-sent. It blocks until every slot is
// resolved.
//
// Queue order is preserved per shard group, so two operations on the same
// key apply in the order they were queued. Multi-key operations keep the
// routed client's cross-shard contract: atomic and exactly-once per
// shard, independent across shards.
func (c *Client) FlushBatch(ctx context.Context, b *kv.Batch) {
	ops := make([]*pipeOp, len(b.Cmds))
	for i := range b.Cmds {
		op := &pipeOp{slot: i, cmd: &b.Cmds[i], outstanding: 1}
		if op.cmd.MultiKey() {
			op.outstanding = len(op.cmd.Pairs)
			op.legDone = make([]bool, len(op.cmd.Pairs))
			if op.outstanding == 0 {
				b.Resolve(i, &kv.Result{}, nil) // no pairs: nothing to apply
			}
		}
		ops[i] = op
	}
	var deadline time.Time
	for attempt := 0; ; attempt++ {
		ring, shards := c.snapshot()

		// Scatter: group outstanding work by owning shard, preserving
		// queue order within each group. A multi-key operation contributes
		// at most one shard-atomic segment per shard.
		shardSegs := make(map[int][]*segment)
		for _, op := range ops {
			if op.failed != nil || op.outstanding == 0 {
				continue
			}
			if op.legDone == nil {
				s := ring.Shard(op.cmd.Key)
				shardSegs[s] = append(shardSegs[s], &segment{op: op})
				continue
			}
			segByShard := make(map[int]*segment)
			for i, done := range op.legDone {
				if done {
					continue
				}
				s := ring.Shard(op.cmd.Pairs[i].Key)
				seg := segByShard[s]
				if seg == nil {
					seg = &segment{op: op}
					segByShard[s] = seg
					shardSegs[s] = append(shardSegs[s], seg)
				}
				seg.legIdxs = append(seg.legIdxs, i)
			}
		}
		if len(shardSegs) == 0 {
			break
		}

		// Submit every shard's group as one coalesced batch; submissions
		// are asynchronous, so the groups fly in parallel.
		type issued struct {
			seg *segment
			fut *core.Future
		}
		var all []issued
		for s, segs := range shardSegs {
			cmds := make([]kv.Command, len(segs))
			for i, seg := range segs {
				cmds[i] = seg.command()
			}
			for i, fut := range shards[s].SubmitBatch(ctx, cmds) {
				all = append(all, issued{seg: segs[i], fut: fut})
			}
		}

		// Gather.
		movedAny := false
		for _, iss := range all {
			var res *kv.Result
			out, err := iss.fut.Wait(ctx)
			if err == nil {
				res, err = kv.DecodeResult(out)
			}
			switch {
			case err == nil:
				iss.seg.credit(b, res)
			case errors.Is(err, core.ErrKeyMoved):
				movedAny = true // segment's legs stay outstanding; regroup
			default:
				if iss.seg.op.failed == nil {
					iss.seg.op.failed = err
				}
			}
		}
		if !movedAny || ctx.Err() != nil {
			break
		}
		if deadline.IsZero() {
			deadline = time.Now().Add(maxRedirectWait)
		} else if time.Now().After(deadline) {
			failOutstanding(ops, fmt.Errorf("shard: pipeline op still moving after %v (%d redirects): %w", maxRedirectWait, attempt, core.ErrKeyMoved))
			break
		}
		if !c.Refresh() {
			// Same ring: the ranges are mid-transfer. Wait for the flip.
			if perr := pauseRedirect(ctx, attempt); perr != nil {
				failOutstanding(ops, perr)
				break
			}
		}
	}

	// Resolve failures (successes resolved eagerly in credit).
	for i, op := range ops {
		if op.failed == nil && op.outstanding > 0 {
			op.failed = ctx.Err()
			if op.failed == nil {
				op.failed = fmt.Errorf("shard: pipeline op %d incomplete", i)
			}
		}
		if op.failed != nil {
			b.Resolve(i, nil, op.failed)
		}
	}
}

// failOutstanding marks every operation that still has work left as failed
// with err.
func failOutstanding(ops []*pipeOp, err error) {
	for _, op := range ops {
		if op.failed == nil && op.outstanding > 0 {
			op.failed = err
		}
	}
}
