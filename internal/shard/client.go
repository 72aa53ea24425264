package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"curp/internal/cluster"
	"curp/internal/core"
	"curp/internal/kv"
)

// RingSource supplies the authoritative routing ring; clients consult it
// when an operation bounces with a moved-key redirect. In-process
// deployments use the Cluster itself; a client without one (operator
// tools whose shard count is a command-line fact) never refreshes.
type RingSource interface {
	CurrentRing() *Ring
}

// Redirect retry policy: how often, and for how long, a bounced operation
// re-resolves routing while a migration is still transferring its range.
// The delay is jittered so bounced clients don't thunder onto the master
// that just finished installing the range. The overall budget is
// time-based, not attempt-based: a transfer takes as long as the range's
// data takes to drain, ship, and sync (the driver allows 30s per RPC), so
// a healthy mid-rebalance operation must out-wait it. The caller's ctx
// caps the wait sooner; the budget exists so an operation on a parked
// range (a rebalance that failed after its commit point and needs a
// re-run) eventually surfaces an error instead of spinning forever.
const (
	maxRedirectWait    = 2 * time.Minute
	redirectBackoffMin = time.Millisecond
	redirectBackoffMax = 50 * time.Millisecond
)

// Client routes key-value operations across a sharded deployment. Single-
// key operations go to the owning shard's CURP client unchanged, keeping
// the full 1-RTT fast path, linearizability, and exactly-once semantics of
// one partition.
//
// Rebalancing contract: while a key's range is migrating, operations on it
// bounce inside the deployment (core.ErrKeyMoved) and the client retries
// with a jittered backoff, refreshing its ring from the RingSource; once
// the ring epoch flips the operation lands on the new owner. Other keys
// are unaffected. An operation that bounced NEVER executed, so the retry
// is not a duplicate. A shard retired by RemoveShard stops answering at
// all once its partition shuts down; the client treats a hard error as a
// re-route hint too, adopting a newer ring when the source has one.
//
// Cross-shard atomicity contract: MultiPut and MultiIncrement group their
// keys by owning shard and issue one atomic per-shard sub-operation per
// group, concurrently. Each sub-operation is atomic, linearizable, and
// exactly-once within its shard (RIFL filters duplicates across retries,
// so a retried transfer never double-applies). Across shards there is NO
// atomicity: a reader may observe one shard's sub-operation before
// another's lands, and if a sub-operation ultimately fails the others are
// not rolled back. A rebalance can also split what was one shard's group
// into two: sub-operations re-grouped after a redirect are atomic per NEW
// owner. Callers needing cross-shard isolation must layer a transaction
// protocol on top; callers needing only exactly-once totals (counters,
// transfers) get them as-is.
type Client struct {
	kv.Verbs
	src  RingSource                           // nil: never refresh
	dial func(s int) (*cluster.Client, error) // nil: cannot reach new shards

	mu     sync.RWMutex
	ring   *Ring
	shards []*cluster.Client

	refreshMu sync.Mutex // serializes ring refreshes (dial outside mu)
}

// NewRoutedClient assembles a Client from already-opened per-shard
// clients, one per ring shard in shard order. Operator tools (cmd/curpctl)
// use it to route across partitions whose coordinators they dialed
// directly; in-process deployments use Cluster.NewClient instead. The
// returned client treats the ring as static (no redirect refresh).
func NewRoutedClient(ring *Ring, shards []*cluster.Client) (*Client, error) {
	if len(shards) != ring.Shards() {
		return nil, fmt.Errorf("shard: %d clients for a %d-shard ring", len(shards), ring.Shards())
	}
	return newClient(ring, shards), nil
}

func newClient(ring *Ring, shards []*cluster.Client) *Client {
	c := &Client{ring: ring, shards: shards}
	c.Verbs = kv.VerbsOf(c)
	return c
}

// snapshot returns the routing state under the read lock.
func (c *Client) snapshot() (*Ring, []*cluster.Client) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.ring, c.shards
}

// RingEpoch returns the epoch of the ring the client currently routes by.
func (c *Client) RingEpoch() uint64 {
	r, _ := c.snapshot()
	return r.Epoch()
}

// ShardOf returns the index of the shard owning key.
func (c *Client) ShardOf(key []byte) int {
	r, _ := c.snapshot()
	return r.Shard(key)
}

// NumShards returns how many shards the client routes over.
func (c *Client) NumShards() int {
	_, shards := c.snapshot()
	return len(shards)
}

// Shard returns the single-partition client for shard s, for callers that
// want to pin operations (e.g. operator tools addressing one partition).
func (c *Client) Shard(s int) *cluster.Client {
	_, shards := c.snapshot()
	return shards[s]
}

// Refresh adopts a newer ring from the source, dialing clients for any
// newly covered shards. It reports whether the routing changed.
func (c *Client) Refresh() bool {
	if c.src == nil {
		return false
	}
	c.refreshMu.Lock()
	defer c.refreshMu.Unlock()
	r := c.src.CurrentRing()
	cur, shards := c.snapshot()
	if r.Epoch() <= cur.Epoch() {
		return false
	}
	fresh := append([]*cluster.Client(nil), shards...)
	var added []*cluster.Client
	for s := len(fresh); s < r.Shards(); s++ {
		if c.dial == nil {
			return false // newer ring unreachable without a dialer
		}
		sc, err := c.dial(s)
		if err != nil {
			// Keep the old ring; the next bounce retries. Release what
			// this refresh already dialed or every retry would leak a
			// registered connection.
			for _, a := range added {
				a.Close()
			}
			return false
		}
		fresh = append(fresh, sc)
		added = append(added, sc)
	}
	c.mu.Lock()
	c.ring = r
	c.shards = fresh
	c.mu.Unlock()
	return true
}

// pauseRedirect sleeps the jittered redirect backoff for retry `attempt`.
func pauseRedirect(ctx context.Context, attempt int) error {
	return core.PauseJittered(ctx, attempt, redirectBackoffMin, redirectBackoffMax)
}

// do runs op against key's owning shard, re-resolving and retrying when
// the deployment answers that the key's range moved.
func (c *Client) do(ctx context.Context, key []byte, op func(sc *cluster.Client) error) error {
	var deadline time.Time
	for attempt := 0; ; attempt++ {
		ring, shards := c.snapshot()
		err := op(shards[ring.Shard(key)])
		if err == nil {
			return nil
		}
		if !errors.Is(err, core.ErrKeyMoved) {
			// A shard retired by RemoveShard answers with connection
			// errors, not redirects — its hosts are gone. If the source
			// has a newer ring, adopt it and re-route: from the freeze
			// onward the leaving master bounces (never executes)
			// operations on its moved ranges, so the failed operation did
			// not apply there. Without a newer ring the failure is real.
			if !c.Refresh() {
				return err
			}
			continue
		}
		if deadline.IsZero() {
			deadline = time.Now().Add(maxRedirectWait)
		} else if time.Now().After(deadline) {
			return fmt.Errorf("shard: key still moving after %v (%d redirects): %w", maxRedirectWait, attempt, err)
		}
		if !c.Refresh() {
			// Same ring: the range is mid-transfer. Wait for the flip.
			if perr := pauseRedirect(ctx, attempt); perr != nil {
				return perr
			}
		}
	}
}

// Close releases every per-shard connection.
func (c *Client) Close() {
	_, shards := c.snapshot()
	for _, sc := range shards {
		if sc != nil {
			sc.Close()
		}
	}
}

// Stats returns the sum of every per-shard client's protocol counters.
func (c *Client) Stats() core.ClientStats {
	var total core.ClientStats
	_, shards := c.snapshot()
	for _, sc := range shards {
		total.Add(sc.Stats())
	}
	return total
}

// Submit executes one update on the shard(s) owning its key(s): a
// single-key command goes to its owner unchanged; a multi-key command
// (MultiPut, MultiIncrement) is split per owning shard — see the
// cross-shard contract in the Client doc.
func (c *Client) Submit(ctx context.Context, cmd kv.Command) (*kv.Result, error) {
	if cmd.MultiKey() {
		return c.submitGrouped(ctx, cmd)
	}
	var res *kv.Result
	err := c.do(ctx, cmd.Key, func(sc *cluster.Client) (err error) {
		res, err = sc.Submit(ctx, cmd)
		return err
	})
	return res, err
}

// SubmitAsync runs one update asynchronously with the same redirect
// handling as Submit: a bounced command refreshes the ring and re-issues
// against the new owner.
func (c *Client) SubmitAsync(ctx context.Context, cmd kv.Command) *kv.Future {
	return kv.Go(func() (*kv.Result, error) { return c.Submit(ctx, cmd) })
}

// Read executes one read-only command at the shard owning its key.
func (c *Client) Read(ctx context.Context, cmd kv.Command, mode kv.ReadMode) (*kv.Result, error) {
	var res *kv.Result
	err := c.do(ctx, cmd.Key, func(sc *cluster.Client) (err error) {
		res, err = sc.Read(ctx, cmd, mode)
		return err
	})
	return res, err
}

// submitGrouped partitions a multi-key command's pairs by owning shard and
// issues one atomic sub-command per group, concurrently. Groups bounced by
// a migration (core.ErrKeyMoved) are re-grouped under a refreshed ring and
// re-issued; groups that applied are never re-sent, preserving per-shard
// exactly-once across a rebalance (no double increments). The merged
// result's Values are aligned with cmd.Pairs.
func (c *Client) submitGrouped(ctx context.Context, cmd kv.Command) (*kv.Result, error) {
	// values is allocated when a sub-result first reports per-pair values.
	var values [][]byte
	remaining := make([]int, len(cmd.Pairs)) // indices into cmd.Pairs
	for i := range remaining {
		remaining[i] = i
	}
	var deadline time.Time
	for attempt := 0; ; attempt++ {
		ring, shards := c.snapshot()
		groups := make(map[int][]int)
		for _, i := range remaining {
			s := ring.Shard(cmd.Pairs[i].Key)
			groups[s] = append(groups[s], i)
		}
		var wg sync.WaitGroup
		var gmu sync.Mutex
		var moved, hardItems []int
		var hard []error
		for s, g := range groups {
			wg.Add(1)
			go func(s int, g []int) {
				defer wg.Done()
				sub := kv.Command{Op: cmd.Op, Pairs: make([]kv.KV, len(g))}
				for j, i := range g {
					sub.Pairs[j] = cmd.Pairs[i]
				}
				res, err := shards[s].Submit(ctx, sub)
				gmu.Lock()
				defer gmu.Unlock()
				switch {
				case err == nil:
					for j, i := range g {
						if j < len(res.Values) {
							if values == nil {
								values = make([][]byte, len(cmd.Pairs))
							}
							values[i] = res.Values[j]
						}
					}
				case errors.Is(err, core.ErrKeyMoved):
					moved = append(moved, g...)
				default:
					hard = append(hard, fmt.Errorf("shard %d: %w", s, err))
					hardItems = append(hardItems, g...)
				}
			}(s, g)
		}
		wg.Wait()
		if len(hard) > 0 {
			// Same as Client.do: a shard retired by RemoveShard answers
			// with connection errors, not redirects. Re-route under a
			// newer ring before surfacing the failure; the retired master
			// bounced (never executed) its moved ranges from the freeze
			// onward, so re-issuing the failed groups is not a duplicate.
			if !c.Refresh() {
				return nil, errors.Join(hard...)
			}
			remaining = append(moved, hardItems...)
			continue
		}
		if len(moved) == 0 {
			return &kv.Result{Values: values}, nil
		}
		if deadline.IsZero() {
			deadline = time.Now().Add(maxRedirectWait)
		} else if time.Now().After(deadline) {
			return nil, fmt.Errorf("shard: %d items still moving after %v (%d redirects): %w", len(moved), maxRedirectWait, attempt, core.ErrKeyMoved)
		}
		if !c.Refresh() {
			if perr := pauseRedirect(ctx, attempt); perr != nil {
				return nil, perr
			}
		}
		remaining = moved
	}
}
