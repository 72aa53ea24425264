package cluster

import (
	"context"
	"errors"
	"fmt"

	"curp/internal/core"
	"curp/internal/kv"
	"curp/internal/rifl"
	"curp/internal/txn"
)

// This file is the client half of the transaction RPCs for one partition:
// the coordinator-side calls internal/txn drives through cluster.Client.
// Prepare and participant-decide are direct master RPCs (synced before the
// reply, so no witness involvement); the home decision record goes through
// the normal async update engine under a caller-minted RIFL ID, getting
// CURP's witness-backed durability and exactly-once anchoring.

// GetVersioned reads key at the master and returns the full result,
// including the object's version — the read-set entry a transaction
// revalidates at commit.
func (c *Client) GetVersioned(ctx context.Context, key []byte) (*kv.Result, error) {
	return c.Read(ctx, kv.Get(key), kv.ReadMaster)
}

// TxnHomeInfo returns the partition's home-shard coordinates (master ID and
// address); the transaction layer fills in the home key's hash.
func (c *Client) TxnHomeInfo(ctx context.Context) (kv.TxnHome, error) {
	view, err := c.provider.View(ctx, false)
	if err != nil {
		return kv.TxnHome{}, err
	}
	return kv.TxnHome{MasterID: view.MasterID, Addr: view.MasterAddr}, nil
}

// MintTxnID allocates a RIFL ID from this partition's session — the
// transaction ID, which is also the identity of the home decide RPC.
func (c *Client) MintTxnID() rifl.RPCID { return c.curp.Session().NextID() }

// FinishTxnID releases a transaction ID once every dependent step is done
// (all participant decides applied), letting the session's ack frontier
// advance past it.
func (c *Client) FinishTxnID(id rifl.RPCID) { c.curp.Session().Finish(id) }

// TxnPrepare runs phase one on this partition's master: the command's
// Txn payload names the reads to validate and the writes to stash. The
// returned result's Found is the vote (true = commit).
func (c *Client) TxnPrepare(ctx context.Context, cmd *kv.Command) (*kv.Result, error) {
	return c.txnCall(ctx, OpTxnPrepare, cmd)
}

// TxnDecide runs phase two on this partition's master: apply (commit) or
// discard (abort) the prepared writes of cmd.Txn.ID and release its locks.
func (c *Client) TxnDecide(ctx context.Context, cmd *kv.Command) (*kv.Result, error) {
	return c.txnCall(ctx, OpTxnDecide, cmd)
}

// TxnDecideHome records the transaction's decision on this partition (the
// home shard) under the transaction's own RIFL ID, through the normal
// update engine — witness-recorded, speculative when commutative. The
// returned commit is the outcome that actually stuck: false when a
// lock-timeout resolver recorded an abort first (the RIFL-anchored race
// resolution).
func (c *Client) TxnDecideHome(ctx context.Context, id rifl.RPCID, commit bool, homeHash uint64) (bool, error) {
	cmd := kv.TxnDecide(&kv.TxnCommand{
		ID:         id,
		Commit:     commit,
		HomeRecord: true,
		Home:       kv.TxnHome{KeyHash: homeHash},
	})
	out, err := c.curp.UpdateWithIDAsync(ctx, id, []uint64{homeHash}, cmd.Encode()).Wait(ctx)
	if err != nil {
		return false, err
	}
	res, err := kv.DecodeResult(out)
	if err != nil {
		return false, err
	}
	return res.Found, nil
}

// ForgetTxnDecision prunes a settled transaction's decision record on
// this (home) partition — the decision-record GC. It rides the normal
// async update engine under a fresh RIFL ID (witness-recorded, so a
// recovered home re-prunes on replay) and is fire-and-forget: the commit
// already succeeded, and a lost forget merely parks the record until
// lease expiry reclaims it.
func (c *Client) ForgetTxnDecision(ctx context.Context, id rifl.RPCID, homeHash uint64) {
	cmd := kv.TxnForget(&kv.TxnCommand{
		ID:         id,
		HomeRecord: true, // footprint = the home key hash
		Home:       kv.TxnHome{KeyHash: homeHash},
	})
	c.curp.UpdateAsync(ctx, []uint64{homeHash}, cmd.Encode(), cmd.Class())
}

// txnCall drives one prepare/decide RPC, under a fresh RIFL ID, through the
// core client's single-request loop.
func (c *Client) txnCall(ctx context.Context, op uint16, cmd *kv.Command) (*kv.Result, error) {
	out, bounce, err := c.curp.Call(ctx, c.curp.Session().NextID(), cmd.KeyHashes(), cmd.Encode(),
		func(ctx context.Context, view *core.View, req *core.Request) (*core.Reply, error) {
			mc, ok := view.Master.(*masterConn)
			if !ok {
				return nil, errors.New("cluster: transactions require a cluster master connection")
			}
			out, err := mc.peer.Call(ctx, op, req.Encode())
			if err != nil {
				return nil, err
			}
			return core.DecodeReply(out)
		})
	if bounce == core.StatusTxnLocked {
		// Exhausted while parked behind other transactions' locks: it never
		// executed, so the coordinator may abort cleanly, not report in doubt.
		return nil, fmt.Errorf("%w: %v", txn.ErrTxnBusy, err)
	}
	if err != nil {
		return nil, err
	}
	return kv.DecodeResult(out)
}

// SubmitTxnApply commits a single-shard transaction through the normal
// update engine: one atomic OpTxnApply command that validates the read set
// and applies the write set in one log entry, speculative (1 RTT) when it
// commutes with the unsynced window. The result's Found reports whether
// validation held.
func (c *Client) SubmitTxnApply(ctx context.Context, t *kv.TxnCommand) (*kv.Result, error) {
	return c.Submit(ctx, kv.TxnApply(t))
}

// ShardOf, Refresh and Partition make one partition a txn.Backend by
// itself: every key lives on "shard 0" under routing that never changes,
// so Commit always takes the single-shard fast path. (The partition
// endpoint, txn.Partition, is the methods above plus the outcome counters.)
func (c *Client) ShardOf([]byte) int { return 0 }

// Refresh implements txn.Backend: there is no newer routing to adopt.
func (c *Client) Refresh() bool { return false }

// Partition implements txn.Backend.
func (c *Client) Partition(shard int) (txn.Partition, error) {
	if shard != 0 {
		return nil, fmt.Errorf("cluster: no shard %d in a single-partition deployment", shard)
	}
	return c, nil
}
