package shard

import (
	"context"
	"fmt"

	"curp/internal/cluster"
	"curp/internal/kv"
	"curp/internal/txn"
)

// The routing client is the transaction coordinator's txn.Backend by
// itself (ShardOf and Refresh live in client.go). Cross-shard transactions
// commit with client-coordinated 2PC; transactions whose keys all map to
// one shard keep the 1-RTT fast path.
var _ txn.Backend = (*Client)(nil)

// GetVersioned reads key linearizably at its owning shard, following
// redirects, and returns the full result including the object's version.
func (c *Client) GetVersioned(ctx context.Context, key []byte) (*kv.Result, error) {
	var res *kv.Result
	err := c.do(ctx, key, func(sc *cluster.Client) (err error) {
		res, err = sc.GetVersioned(ctx, key)
		return err
	})
	return res, err
}

// Partition returns shard's single-partition client as the transaction
// endpoint. The per-shard client list is append-only, so an index stays
// valid across a Refresh (the coordinator regroups under the new ring
// after a redirect rather than re-routing individual phases).
func (c *Client) Partition(shard int) (txn.Partition, error) {
	_, shards := c.snapshot()
	if shard < 0 || shard >= len(shards) {
		return nil, fmt.Errorf("shard: no client for shard %d", shard)
	}
	return shards[shard], nil
}
