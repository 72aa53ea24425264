package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"curp/internal/commute"
	"curp/internal/metrics"
	"curp/internal/rifl"
	"curp/internal/witness"
)

// MasterAPI is the client's view of a CURP master. The client speaks in
// batches — a single operation is a batch of one — so one interface method
// covers both the blocking verbs and the pipelined path.
type MasterAPI interface {
	// UpdateBatch executes a batch of state-mutating requests in order and
	// returns one reply per request, aligned with reqs. Requests fail or
	// succeed independently (per-reply status); a transport-level error
	// means nothing in the batch is known to have executed.
	UpdateBatch(ctx context.Context, reqs []*Request) ([]*Reply, error)
	// Read executes a read-only request.
	Read(ctx context.Context, req *Request) (*Reply, error)
	// Sync asks the master to replicate all unsynced operations to
	// backups before returning (the slow-path RPC of §3.2.1). One sync
	// covers every operation executed before it, which is what lets a
	// pipeline with several witness-rejected operations recover with a
	// single RPC.
	Sync(ctx context.Context) error
}

// WitnessAPI is the client's view of one witness. Like MasterAPI it is
// batch-first: recording and retracting take vectors so a pipeline flush
// costs O(witnesses) RPCs, not O(ops × witnesses).
type WitnessAPI interface {
	// RecordBatch saves the requests on the witness, returning one
	// RecordResult per record, aligned with recs. Records are accepted or
	// rejected independently: a conflicting record does not poison the
	// rest of the batch.
	RecordBatch(ctx context.Context, masterID uint64, recs []witness.Record) ([]witness.RecordResult, error)
	// Commutes reports whether an operation touching keyHashes commutes
	// with everything the witness holds (§A.1 consistent backup reads).
	Commutes(ctx context.Context, keyHashes []uint64) (bool, error)
	// Drop removes the client's own records of RPCs it is abandoning
	// (see ErrKeyMoved); keys may span several RPC IDs, so one RPC
	// retracts a whole abandoned batch. A record left behind by an
	// abandoned ID would be replayed or §4.5-retried as a NEW operation
	// later — after the client has reissued the work under a fresh ID —
	// double-applying it. Dropping pairs that were never recorded is a
	// no-op.
	Drop(ctx context.Context, masterID uint64, keys []witness.GCKey) error
}

// BackupAPI is the client's view of one backup, for §A.1 local reads.
type BackupAPI interface {
	// Read serves a read-only request from the backup's replica of the
	// master's data. The reply reflects only synced operations.
	Read(ctx context.Context, req *Request) (*Reply, error)
}

// View is a client's cached cluster configuration for one master: where to
// send updates, which witnesses to record to, and the witness-list version
// that must accompany every update (§3.6).
type View struct {
	MasterID uint64
	// MasterAddr is the master's network address, when the transport has
	// one (the cluster runtime fills it; in-process fakes may leave it
	// empty). Transaction prepares carry it as the home-shard coordinate
	// for orphan resolution.
	MasterAddr         string
	WitnessListVersion uint64
	Master             MasterAPI
	Witnesses          []WitnessAPI
	Backups            []BackupAPI
}

// ViewProvider supplies (and refreshes) a client's view, normally backed by
// the cluster coordinator.
type ViewProvider interface {
	// View returns the current configuration; refresh forces a refetch
	// after a failure or staleness signal.
	View(ctx context.Context, refresh bool) (*View, error)
}

// StaticView adapts a fixed *View into a ViewProvider for tests.
type StaticView struct{ V *View }

// View implements ViewProvider.
func (s StaticView) View(context.Context, bool) (*View, error) { return s.V, nil }

// ClientConfig tunes the CURP client.
type ClientConfig struct {
	// MaxAttempts bounds update retries across master failures.
	MaxAttempts int
	// RetryBackoff is the pause before the second attempt of an operation,
	// doubling each further retry up to MaxRetryBackoff. It gives a master
	// recovery time to publish a new view instead of burning every attempt
	// in microseconds against a dead host. Zero selects the default;
	// negative disables pacing (retry immediately, the pre-backoff
	// behavior).
	RetryBackoff time.Duration
	// MaxRetryBackoff caps the exponential growth of RetryBackoff.
	// Zero selects the default.
	MaxRetryBackoff time.Duration
	// Trace collects this client's spans and mints a trace context per
	// batch flush, propagated to every server the flush touches. Nil
	// disables trace minting entirely (RPC frames stay in the untraced
	// encoding).
	Trace *metrics.Collector
}

// Defaults filled in for zero-valued ClientConfig fields.
const (
	// defaultMaxAttempts sizes the retry budget to ride out a full
	// self-healing cycle, not just a transient hiccup: between a master's
	// deposition (it answers StatusWrongMaster from the moment it is
	// fenced) and the replacement's publication, every attempt bounces —
	// and with the backoff below capping at defaultMaxRetryBackoff, 16
	// attempts give clients roughly 2.5s of patience, several times a
	// typical recovery. Operations retry under their original RIFL IDs,
	// so the longer budget never risks double execution.
	defaultMaxAttempts     = 16
	defaultRetryBackoff    = 5 * time.Millisecond
	defaultMaxRetryBackoff = 250 * time.Millisecond
)

// DefaultClientConfig returns sensible defaults.
func DefaultClientConfig() ClientConfig {
	return ClientConfig{
		MaxAttempts:     defaultMaxAttempts,
		RetryBackoff:    defaultRetryBackoff,
		MaxRetryBackoff: defaultMaxRetryBackoff,
	}
}

// ClientStats counts client-side protocol outcomes.
type ClientStats struct {
	// FastPath: updates completed in 1 RTT (all witnesses accepted).
	FastPath uint64
	// SyncedByMaster: updates the master synced before replying (2 RTT,
	// no client sync RPC needed).
	SyncedByMaster uint64
	// SlowPath: updates that needed an explicit sync RPC (≥2 RTT).
	SlowPath uint64
	// Retries: full restarts after master failure or stale configuration.
	Retries uint64
	// BackupReads: §A.1 reads served by a backup.
	BackupReads uint64
	// MasterReads: reads served by the master.
	MasterReads uint64
	// Redirects: operations bounced with ErrKeyMoved for the routing layer
	// to reissue against the range's new owner.
	Redirects uint64
	// TxnCommits / TxnAborts: transaction outcomes observed by this client
	// (single-shard and cross-shard alike).
	TxnCommits uint64
	TxnAborts  uint64
	// TxnOrphanResolves: aborts decided by a server-side orphan resolver
	// (the home shard recorded abort-by-default before this client's
	// commit decision arrived).
	TxnOrphanResolves uint64
	// InFlight: operations currently inside the asynchronous update engine
	// — the live pipeline depth, a gauge rather than a counter.
	InFlight uint64
}

// Add accumulates other into s, field by field — the one place that sums
// statistics across clients (a routing client's per-shard clients).
func (s *ClientStats) Add(other ClientStats) {
	s.FastPath += other.FastPath
	s.SyncedByMaster += other.SyncedByMaster
	s.SlowPath += other.SlowPath
	s.Retries += other.Retries
	s.BackupReads += other.BackupReads
	s.MasterReads += other.MasterReads
	s.Redirects += other.Redirects
	s.TxnCommits += other.TxnCommits
	s.TxnAborts += other.TxnAborts
	s.TxnOrphanResolves += other.TxnOrphanResolves
	s.InFlight += other.InFlight
}

// Client drives the CURP client protocol (paper §3.2.1): it sends each
// update to the master and records it on all f witnesses in parallel,
// completing in 1 RTT when the master executed speculatively and every
// witness accepted. Otherwise it falls back to a sync RPC, and it restarts
// the whole operation (with the same RIFL ID, so duplicates are filtered)
// when the master fails or the configuration is stale. Safe for concurrent
// use by multiple goroutines.
type Client struct {
	session *rifl.Session
	views   ViewProvider
	cfg     ClientConfig

	traceFlags atomic.Uint32 // metrics.TraceFlag* stamped on minted traces

	fastPath       atomic.Uint64
	syncedByMaster atomic.Uint64
	slowPath       atomic.Uint64
	retries        atomic.Uint64
	backupReads    atomic.Uint64
	masterReads    atomic.Uint64
	redirects      atomic.Uint64
	txnCommits     atomic.Uint64
	txnAborts      atomic.Uint64
	txnOrphans     atomic.Uint64
	inFlight       atomic.Int64
}

// NewClient builds a client. session supplies RIFL identities; views
// supplies cluster configuration.
func NewClient(session *rifl.Session, views ViewProvider, cfg ClientConfig) *Client {
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = defaultMaxAttempts
	}
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = defaultRetryBackoff
	}
	if cfg.MaxRetryBackoff == 0 {
		cfg.MaxRetryBackoff = defaultMaxRetryBackoff
	}
	return &Client{session: session, views: views, cfg: cfg}
}

// TraceCollector returns the client's span collector (nil when the client
// was configured without one).
func (c *Client) TraceCollector() *metrics.Collector { return c.cfg.Trace }

// SetTraceFlags sets the sampling flags stamped on every minted trace
// (metrics.TraceFlagForce selects 100% sampling).
func (c *Client) SetTraceFlags(flags uint8) { c.traceFlags.Store(uint32(flags)) }

// PauseJittered sleeps the capped exponential-backoff delay
// min(base<<attempt, max), equal-jittered (half deterministic, half
// uniform random), aborting early if ctx ends. Jitter matters whenever
// many clients block on the same event — a master crash, a range
// migration — and would otherwise wake on the same schedule, marching
// onto the recovering server in synchronized waves.
func PauseJittered(ctx context.Context, attempt int, base, max time.Duration) error {
	if base <= 0 {
		return ctx.Err()
	}
	d := base << attempt
	if d <= 0 || (max > 0 && d > max) {
		d = max
	}
	if d <= 0 {
		return ctx.Err()
	}
	d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// pause sleeps the retry backoff before attempt (no delay before the
// first attempt), aborting early if ctx ends.
func (c *Client) pause(ctx context.Context, attempt int) error {
	if attempt == 0 {
		return ctx.Err()
	}
	return PauseJittered(ctx, attempt-1, c.cfg.RetryBackoff, c.cfg.MaxRetryBackoff)
}

// Session returns the client's RIFL session.
func (c *Client) Session() *rifl.Session { return c.session }

// Stats returns a snapshot of protocol counters.
func (c *Client) Stats() ClientStats {
	inFlight := c.inFlight.Load()
	if inFlight < 0 {
		inFlight = 0
	}
	return ClientStats{
		FastPath:          c.fastPath.Load(),
		SyncedByMaster:    c.syncedByMaster.Load(),
		SlowPath:          c.slowPath.Load(),
		Retries:           c.retries.Load(),
		BackupReads:       c.backupReads.Load(),
		MasterReads:       c.masterReads.Load(),
		Redirects:         c.redirects.Load(),
		TxnCommits:        c.txnCommits.Load(),
		TxnAborts:         c.txnAborts.Load(),
		TxnOrphanResolves: c.txnOrphans.Load(),
		InFlight:          uint64(inFlight),
	}
}

// CountTxnCommit records a committed transaction for stats.
func (c *Client) CountTxnCommit() { c.txnCommits.Add(1) }

// CountTxnAbort records an aborted transaction; orphan marks aborts
// decided by a server-side orphan resolver rather than this client.
func (c *Client) CountTxnAbort(orphan bool) {
	c.txnAborts.Add(1)
	if orphan {
		c.txnOrphans.Add(1)
	}
}

// Errors returned by the client.
var (
	// ErrUpdateFailed reports an update that could not complete within the
	// configured attempts.
	ErrUpdateFailed = errors.New("curp: update failed after retries")
	// ErrIgnored reports a request the master refused to execute because
	// RIFL classified it stale or lease-expired.
	ErrIgnored = errors.New("curp: request ignored by master (stale or lease expired)")
	// ErrKeyMoved reports that the master no longer serves one of the
	// operation's keys: the key range is migrating away or has been handed
	// off to another shard. The operation did not execute. Routing layers
	// (internal/shard.Client) catch this, refresh their ring, and re-issue
	// the operation against the new owner; it is returned rather than
	// retried here because the correct destination is outside this
	// client's partition.
	ErrKeyMoved = errors.New("curp: key range moved or migrating")
)

// Update executes a mutating operation with payload touching keyHashes.
// It returns the substrate result. The operation is durable (f-fault
// tolerant) when Update returns nil error.
//
// Update is a batch of one run through the asynchronous batch engine in
// async.go on the caller's own goroutine — no future to wait on, no
// goroutine to hand the operation to. That engine is the only update state
// machine, so the fast path, slow path, retries, and redirect handling are
// identical whether an operation is issued synchronously, asynchronously,
// or in a pipeline.
func (c *Client) Update(ctx context.Context, keyHashes []uint64, payload []byte, class commute.Class) ([]byte, error) {
	op := asyncOp{id: c.session.NextID(), keyHashes: keyHashes, payload: payload, class: class}
	c.runBatch(ctx, []*asyncOp{&op})
	return op.fut.payload, op.fut.err
}

// Call is the single-request attempt loop under Read and the transaction
// RPCs: pause, view (refreshed after the first attempt), request, send,
// status. send performs one attempt; its error means the request may have
// executed with the reply lost. A non-zero id, from this client's session,
// tracks the request: it carries the ack, makes retries across a master
// recovery exactly-once, and is finished on success and on ErrKeyMoved
// (never executed, never witness-recorded: safe to abandon). The zero id
// makes the request read-only: clients have no other untracked request. When
// the attempts run out, bounce is the last one's verdict: a status means
// cleanly refused, never executed; StatusOK means none — in doubt.
func (c *Client) Call(ctx context.Context, id rifl.RPCID, keyHashes []uint64, payload []byte,
	send func(ctx context.Context, view *View, req *Request) (*Reply, error)) (out []byte, bounce Status, err error) {
	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if err := c.pause(ctx, attempt); err != nil {
			return nil, StatusOK, err
		}
		view, err := c.views.View(ctx, attempt > 0)
		if err != nil {
			lastErr = err
			continue
		}
		req := &Request{ID: id, WitnessListVersion: view.WitnessListVersion, KeyHashes: keyHashes, ReadOnly: id.IsZero(), Payload: payload}
		if !id.IsZero() {
			req.Ack = c.session.Ack()
		}
		reply, err := send(ctx, view, req)
		if err != nil {
			if ctx.Err() != nil {
				return nil, StatusOK, ctx.Err()
			}
			bounce, lastErr = StatusOK, err // not a clean bounce: this attempt may have executed
			continue
		}
		switch reply.Status {
		case StatusOK:
			c.session.Finish(id) // ignores the zero id
			return reply.Payload, StatusOK, nil
		case StatusKeyMoved:
			c.session.Finish(id)
			return nil, StatusOK, ErrKeyMoved
		case StatusStaleWitnessList, StatusWrongMaster, StatusTxnLocked:
			bounce, lastErr = reply.Status, fmt.Errorf("curp: master replied %v", reply.Status)
		case StatusIgnored:
			return nil, StatusOK, ErrIgnored
		case StatusError:
			return nil, StatusOK, fmt.Errorf("curp: execution error: %s", reply.Err)
		default:
			return nil, StatusOK, fmt.Errorf("curp: unexpected status %v", reply.Status)
		}
	}
	return nil, bounce, fmt.Errorf("%w: %v", ErrUpdateFailed, lastErr)
}

// Read executes a read-only operation at the master. Reads are linearizable
// because the master syncs before returning any value that depends on an
// unsynced operation (§3.2.3).
func (c *Client) Read(ctx context.Context, keyHashes []uint64, payload []byte) ([]byte, error) {
	out, _, err := c.Call(ctx, rifl.RPCID{}, keyHashes, payload, c.sendRead)
	if err == nil {
		c.masterReads.Add(1)
	} else if err == ErrKeyMoved {
		c.redirects.Add(1)
	}
	return out, err
}

// sendRead is one attempt of Read: a master read under a client-read trace.
func (c *Client) sendRead(ctx context.Context, view *View, req *Request) (*Reply, error) {
	ctx, span := c.cfg.Trace.StartTrace(ctx, "client-read", uint8(c.traceFlags.Load()))
	span.SetOp("read")
	reply, err := view.Master.Read(ctx, req)
	span.SetErr(err)
	switch {
	case err != nil:
	case reply.Status == StatusOK:
		span.SetVerdict("fast")
	case reply.Status == StatusKeyMoved:
		span.SetVerdict("moved")
	default:
		span.SetVerdict("error")
	}
	span.End()
	return reply, err
}

// ReadNearby serves a read from a backup when a witness confirms the read
// commutes with every outstanding speculative update (§A.1: consistent
// reads from backups, 0 wide-area RTTs in geo-replicated settings). If the
// witness holds a non-commuting record — a completed-but-unsynced write to
// one of these keys may exist — the read falls back to the master.
func (c *Client) ReadNearby(ctx context.Context, keyHashes []uint64, payload []byte) ([]byte, error) {
	view, err := c.views.View(ctx, false)
	if err != nil {
		return nil, err
	}
	if len(view.Backups) == 0 || len(view.Witnesses) == 0 {
		return c.Read(ctx, keyHashes, payload)
	}
	commutes, err := view.Witnesses[0].Commutes(ctx, keyHashes)
	if err != nil || !commutes {
		return c.Read(ctx, keyHashes, payload)
	}
	req := &Request{KeyHashes: keyHashes, ReadOnly: true, Payload: payload}
	reply, err := view.Backups[0].Read(ctx, req)
	if err != nil || reply.Status != StatusOK {
		return c.Read(ctx, keyHashes, payload)
	}
	c.backupReads.Add(1)
	return reply.Payload, nil
}
