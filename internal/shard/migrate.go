package shard

import (
	"context"
	"fmt"
	"maps"
	"slices"

	"curp/internal/cluster"
)

// This file drives live key migration between rings — the rebalance side
// of the elastic deployment. One step takes the ring from cur to a ring
// one shard larger or smaller and runs every move MovesBetween names
// through the five-phase handoff implemented in
// internal/cluster/migration.go:
//
//	collect  (freeze + drain + export, at each move's source)
//	install  (replay + sync, at each move's target)
//	commit   (record moved ranges at each source's coordinator)
//	complete (drop moved ranges at sources and fence their backups)
//	flip     (publish the higher-epoch ring)
//
// Growing and shrinking are the same step: a grow's moves fan in from many
// sources to the joining shard, a shrink's fan out from the leaving shard
// to many targets, and every per-move fact — whose coordinator holds the
// freeze and moved records, who collects, who installs and is dropped on
// abort, whose backups are fenced — is read off the move.
//
// The commit point is the coordinator record plus the ring flip: before
// it, any failure aborts — sources unfreeze, targets discard what they
// installed, and nothing observable changed. After it, the step always
// finishes logically even if a source has crashed: the source's recovery
// applies the drop from its coordinator's record, and clients reach the
// moved keys through the new ring. A source crash between collect and
// commit is also safe — collect drained the ranges to the source's
// backups before exporting, so recovery rebuilds them at the source and
// the abort path merely discards the target's copy.

// partitionMasterID is the master ID every partition uses (one master per
// partition throughout this repo).
const partitionMasterID = 1

// handoff is one move in flight: its endpoints' views and, once collected,
// the exported bundle.
type handoff struct {
	Move
	src, dst *cluster.ViewInfo
	bundle   *cluster.MigrationBundle
}

// stepMoves computes the moves of one ring step and the pivot shard — the
// shard joining or leaving, the highest index of the larger ring — and
// checks them against a deployment of `parts` partitions.
func stepMoves(cur, next *Ring, parts int) ([]Move, int, error) {
	pivot := max(cur.Shards(), next.Shards()) - 1
	if d := next.Shards() - cur.Shards(); d != 1 && d != -1 {
		return nil, 0, fmt.Errorf("shard: a ring step changes the shard count by one, not %d→%d", cur.Shards(), next.Shards())
	}
	if pivot >= parts {
		return nil, 0, fmt.Errorf("shard: ring step %d→%d shards but only %d partitions", cur.Shards(), next.Shards(), parts)
	}
	moves := MovesBetween(cur, next)
	for _, m := range moves {
		// The pivot owns keys under only one of the two rings, and adding
		// or removing its points changes no other shard's arcs: every move
		// ends at it (grow) or starts at it (shrink).
		if m.From != pivot && m.To != pivot {
			return nil, 0, fmt.Errorf("shard: ring step %d→%d shards computed a move %d→%d that bypasses shard %d", cur.Shards(), next.Shards(), m.From, m.To, pivot)
		}
	}
	return moves, pivot, nil
}

// handoffStep executes one ring step (cur → next, one shard more or fewer)
// against a deployment described by its per-partition coordinator
// addresses. It is shared by the in-process Cluster.Rebalance and
// Cluster.RemoveShard and the out-of-process curpctl rebalance and drain
// (over TCP); flip is called at the commit point to publish the new ring
// (in-process: swap the Cluster's ring; curpctl: nothing — the operator's
// next commands carry the new shard count). After a shrink step the
// leaving shard owns no keys and can be shut down.
func handoffStep(ctx context.Context, md *cluster.MigrationDriver, coords []string, cur, next *Ring, hooks *MigrationHooks, flip func(*Ring)) error {
	moves, pivot, err := stepMoves(cur, next, len(coords))
	if err != nil {
		return err
	}
	// Resolve every endpoint before anything freezes, so an unreachable
	// coordinator fails the step with nothing to undo.
	views := make(map[int]*cluster.ViewInfo)
	view := func(s int) (*cluster.ViewInfo, error) {
		if v, ok := views[s]; ok {
			return v, nil
		}
		v, err := cluster.FetchView(ctx, md.NW, md.Self, coords[s], partitionMasterID)
		if err != nil {
			return nil, fmt.Errorf("shard: view of shard %d: %w", s, err)
		}
		views[s] = v
		return v, nil
	}
	todo := make([]handoff, len(moves))
	for i, m := range moves {
		todo[i].Move = m
		if todo[i].src, err = view(m.From); err != nil {
			return err
		}
		if todo[i].dst, err = view(m.To); err != nil {
			return err
		}
	}

	if hooks.BeforeCollect != nil {
		hooks.BeforeCollect(pivot)
	}

	// delFrozen withdraws a freeze record with retries: a record left
	// behind would re-freeze the (aborted, live-again) range at the
	// source's NEXT recovery, making it bounce until a re-run.
	delFrozen := func(h handoff) bool {
		for i := 0; i < 3; i++ {
			if md.DelFrozen(ctx, coords[h.From], partitionMasterID, h.Ranges) == nil {
				return true
			}
		}
		return false
	}
	// done is the prefix of todo whose freeze may have landed; unwind
	// aborts it: unfreeze the source — on the master and in its coordinator's
	// freeze record — and discard the target's partial install. Best
	// effort on the servers: a crashed source has nothing to unfreeze (its
	// replacement is recovered frozen and a re-run converges), and a
	// crashed target holds unrouted state that a retry will overwrite.
	// Moves from a source in `parked` are left frozen (see commit). The
	// returned error is base, extended to name the sources that stay
	// frozen or whose freeze records could not be withdrawn.
	var done []handoff
	unwind := func(base error, parked map[int]bool) error {
		stale := make(map[int]bool)
		for _, h := range done {
			if parked[h.From] {
				continue
			}
			_ = md.Abort(ctx, h.src.MasterAddr, partitionMasterID, h.Ranges)
			if !delFrozen(h) {
				stale[h.From] = true
			}
			_ = md.Drop(ctx, h.dst.MasterAddr, partitionMasterID, h.Ranges)
		}
		if len(parked) > 0 {
			base = fmt.Errorf("%w; shards %v kept their ranges frozen because a commit record could not be withdrawn — re-run the rebalance/drain to finish the handoff", base, slices.Sorted(maps.Keys(parked)))
		}
		if len(stale) > 0 {
			base = fmt.Errorf("%w; WARNING: freeze records for shards %v could not be withdrawn — their ranges re-freeze at the next recovery until the rebalance/drain is re-run", base, slices.Sorted(maps.Keys(stale)))
		}
		return base
	}

	// Phase 1 — collect: freeze and export every move's ranges at its
	// source, one export per move (each target installs only its own
	// arcs). From here until abort or commit, operations on those ranges
	// bounce.
	for i := range todo {
		// An error from either call below is ambiguous — the server may
		// have applied it before the reply was lost — so the move joins the
		// abort sweep first, or its keys would bounce until an operator
		// intervened (for a move that froze nothing the sweep's legs are
		// no-ops).
		done = todo[:i+1]
		h := &done[i]
		// Record the freeze at the coordinator FIRST: from the moment
		// Collect lands, the freeze must survive a source recovery, or a
		// replacement master would serve keys this step may commit to
		// the target moments later (split-brain).
		if err := md.AddFrozen(ctx, coords[h.From], partitionMasterID, h.Ranges); err != nil {
			return unwind(fmt.Errorf("shard: record freeze for shard %d: %w", h.From, err), nil)
		}
		if h.bundle, err = md.Collect(ctx, h.src.MasterAddr, partitionMasterID, h.Ranges); err != nil {
			return unwind(fmt.Errorf("shard: collect from shard %d: %w", h.From, err), nil)
		}
	}

	if hooks.AfterCollect != nil {
		hooks.AfterCollect(pivot)
	}

	// Phase 2 — install: each target replays and syncs its bundle. After
	// this the moved state is f-fault tolerant on the target.
	for _, h := range done {
		if err := md.Install(ctx, h.dst.MasterAddr, partitionMasterID, h.bundle); err != nil {
			return unwind(fmt.Errorf("shard: install ranges %d→%d: %w", h.From, h.To, err), nil)
		}
	}

	// Phase 3 — commit: record the moved ranges (with their destination)
	// at each source's coordinator. Once every record is in place the
	// handoff is irrevocable — any future recovery of a source drops the
	// ranges.
	for n, h := range done {
		if err := md.AddMoved(ctx, coords[h.From], partitionMasterID, h.Ranges, h.dst.MasterAddr); err != nil {
			// Roll the partial commit back. A source whose moved-away
			// record cannot be un-noted must NOT be unfrozen: its next
			// recovery would drop the range while the live master keeps
			// serving it — silent data loss. Leaving it frozen is safe
			// (writes bounce, nothing diverges) and a re-run completes the
			// handoff from exactly this state. The failing AddMoved itself
			// is ambiguous (the coordinator may have applied it before the
			// reply was lost), so it too must be withdrawn — or its source
			// parked frozen if the withdrawal fails.
			parked := make(map[int]bool)
			for _, w := range done[:n+1] {
				if md.DelMoved(ctx, coords[w.From], partitionMasterID, w.Ranges) != nil {
					parked[w.From] = true
				}
			}
			return unwind(fmt.Errorf("shard: commit move %d→%d: %w", h.From, h.To, err), parked)
		}
		// The moved record supersedes the freeze record; withdrawing the
		// latter is best effort (a lingering freeze re-marks a moved
		// range on recovery, which bounces either way).
		_ = delFrozen(h)
	}

	// Phase 4 — complete: sources drop the moved ranges (forwarding
	// transactions to each destination) and their backups are fenced,
	// BEFORE the flip. Order matters for the §A.1 backup-read path: once a
	// target starts accepting writes (post-flip), a source backup still
	// serving the range would hand old-ring clients frozen pre-handoff
	// values with a clean commutativity probe — a stale read no redirect
	// ever corrects. Until the flip, fenced reads merely bounce-and-retry.
	//
	// The two cleanups have different flip-safety weights. A failed
	// Complete is benign: the source master is either dead (serves
	// nothing) or still has the ranges frozen (bounces everything), and
	// its recovery finishes the drop from the coordinator's record. A
	// failed DropBackups is NOT: an alive, unfenced backup would serve
	// the stale range after the flip, so backup fencing gates the flip.
	var completeErr, fenceErr error
	for _, h := range done {
		if err := md.Complete(ctx, h.src.MasterAddr, partitionMasterID, h.Ranges, h.dst.MasterAddr); err != nil && completeErr == nil {
			completeErr = fmt.Errorf("shard %d: %w", h.From, err)
		}
		if err := md.DropBackups(ctx, h.src.BackupAddrs, partitionMasterID, h.Ranges); err != nil && fenceErr == nil {
			fenceErr = fmt.Errorf("shard %d: %w", h.From, err)
		}
	}
	if fenceErr != nil {
		// Committed but unpublishable: the ranges stay parked — bouncing
		// at their sources, recorded as moved at the coordinators — and
		// the old ring stays in force, so nothing can read stale state.
		// A re-run converges from exactly this state (empty re-collect,
		// idempotent re-install, fencing retried).
		return fmt.Errorf("shard: handoff committed but backup fencing incomplete; ring not flipped, ranges stay parked — re-run the rebalance/drain: %w", fenceErr)
	}

	// Phase 5 — flip: publish the higher-epoch ring. Clients bounced off
	// the frozen ranges refresh, see the new epoch, and land on the new
	// owners.
	flip(next)
	if hooks.AfterFlip != nil {
		hooks.AfterFlip(pivot)
	}
	if completeErr != nil {
		// The handoff is committed and published; report the cleanup
		// failure without undoing anything (recovery will finish it).
		return fmt.Errorf("shard: handoff committed but source cleanup incomplete (recovery will finish it): %w", completeErr)
	}
	return nil
}

// RebalanceEndpoints moves the ring from `from` shards to `to` shards, one
// handoff step at a time, over a deployment addressed by per-partition
// coordinator addresses (index = shard). It is the out-of-process path
// used by curpctl against a live curpd deployment. Growing (curpctl
// rebalance): the operator provisions the spare partitions (curpd boots
// them), then drives the key handoff from anywhere with network reach.
// Shrinking (curpctl drain) drains the highest shard onto the survivors;
// after each step the leaving shard serves no keys and the operator can
// decommission its partition. Each step commits independently; on error,
// completed steps stay committed and the returned ring reflects how far
// the ring actually advanced.
func RebalanceEndpoints(ctx context.Context, md *cluster.MigrationDriver, coords []string, from, to *Ring) (*Ring, error) {
	cur := from
	for cur.Shards() != to.Shards() {
		next := cur.Grow()
		if to.Shards() < cur.Shards() {
			var err error
			if next, err = cur.Shrink(); err != nil {
				return cur, err
			}
		}
		if err := handoffStep(ctx, md, coords, cur, next, &MigrationHooks{}, func(*Ring) {}); err != nil {
			return cur, err
		}
		cur = next
	}
	return cur, nil
}
