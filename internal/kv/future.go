package kv

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"curp/internal/core"
)

// Future is the handle to an asynchronous update. Every update verb has a
// Future-returning async form (PutAsync, IncrementAsync, ...), and
// Pipeline hands one out per queued operation.
//
// A Future resolves exactly once: with a result, or with an error after
// the client's retries are exhausted (ErrUpdateFailed wrapping the last
// cause — the operation may or may not have executed; re-issuing it is
// safe on a Client/ShardedClient because RIFL gives each submission a
// fresh exactly-once identity). The operation is durable — f-fault
// tolerant — exactly when the error is nil.
//
// Wait blocks with a context; the typed accessors (Version, Counter,
// Applied, Values, Granted, Length) block until the operation completes
// and then return the decoded result. All methods are safe for concurrent
// use.
type Future struct {
	ready chan struct{} // closed once src, or the outcome itself, is set
	src   *core.Future  // the engine operation the outcome is decoded from; nil when set directly

	mu      sync.Mutex // guards the outcome while src is being decoded
	decoded bool
	res     *Result
	err     error
}

// closed is the ready channel of every future born settled.
var closed = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// Submitted returns the future of an operation already handed to the
// update engine.
func Submitted(src *core.Future) *Future { return &Future{ready: closed, src: src} }

// Go runs op on its own goroutine and returns the future of its outcome —
// the async form for layers whose submission is a blocking loop (routing
// with redirect retries).
func Go(op func() (*Result, error)) *Future {
	f := &Future{ready: make(chan struct{})}
	go func() {
		f.res, f.err = op()
		close(f.ready)
	}()
	return f
}

// Result blocks until the operation completes and returns its raw result.
// If ctx ends first it returns ctx's error; the operation keeps running
// and a later call still observes its outcome.
func (f *Future) Result(ctx context.Context) (*Result, error) {
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-f.ready:
	}
	if f.src == nil {
		return f.res, f.err
	}
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-f.src.Done():
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.decoded {
		f.decoded = true
		// src is done, so this Wait cannot block or observe a context.
		out, err := f.src.Wait(context.Background())
		if err == nil {
			f.res, err = DecodeResult(out)
		}
		f.err = err
	}
	return f.res, f.err
}

// Wait blocks until the operation completes and returns its error (nil =
// durable). If ctx ends first, Wait returns ctx's error; the operation
// keeps running and a later Wait or accessor still observes its outcome.
func (f *Future) Wait(ctx context.Context) error {
	_, err := f.Result(ctx)
	return err
}

// Err blocks until the operation completes and returns its final error.
func (f *Future) Err() error { return f.Wait(context.Background()) }

// Version returns the object's version after the write (Put, CondPut). It
// blocks until the operation completes.
func (f *Future) Version() (uint64, error) {
	return version(f.Result(context.Background()))
}

// Applied reports whether a CondPut's condition held and the write took.
// It blocks until the operation completes.
func (f *Future) Applied() (bool, error) {
	res, err := f.Result(context.Background())
	if err != nil {
		return false, err
	}
	return res.Found, nil
}

// Granted reports whether a BucketTake's tokens were available and taken.
// It blocks until the operation completes.
func (f *Future) Granted() (bool, error) { return f.Applied() }

// Counter returns the new counter value of an Increment. It blocks until
// the operation completes.
func (f *Future) Counter() (int64, error) {
	return counter(f.Result(context.Background()))
}

// Length returns the value's new total length after an Append. It blocks
// until the operation completes.
func (f *Future) Length() (int64, error) { return f.Counter() }

// Values returns the new counter values of a MultiIncrement, aligned with
// the deltas. It blocks until the operation completes.
func (f *Future) Values() ([]int64, error) {
	res, err := f.Result(context.Background())
	if err != nil {
		return nil, err
	}
	return ParseCounters(res)
}

// Batch is one pipeline flush in flight: the queued commands and their
// still-pending futures. A Backend's FlushBatch settles slot i exactly
// once, with Bind when the command went to the update engine or Resolve
// when the layer computed the outcome itself.
type Batch struct {
	Cmds []Command
	futs []*Future
}

// Bind attaches slot i to its submitted engine operation.
func (b *Batch) Bind(i int, src *core.Future) {
	b.futs[i].src = src
	close(b.futs[i].ready)
}

// Resolve settles slot i with a final outcome.
func (b *Batch) Resolve(i int, res *Result, err error) {
	b.futs[i].res, b.futs[i].err = res, err
	close(b.futs[i].ready)
}

// Pipeline queues update operations and flushes them as coalesced RPCs:
// one UpdateBatch RPC per master, one RecordBatch RPC per witness, at
// most one slow-path Sync per flush, and one Drop per witness for
// redirect-abandoned operations — O(servers) RPCs per flush instead of
// O(operations × servers).
//
// Completion semantics are per operation and identical to the blocking
// verbs: each queued operation completes on CURP's 1-RTT rule (master
// executed speculatively AND all f witnesses accepted its record), or on
// the master-synced / slow-path rules otherwise, independently of its
// batch-mates. Queue order is preserved, so two operations on the same
// key apply in the order they were queued; operations on distinct keys
// commute (that is CURP's point) and may interleave freely with other
// clients'.
//
// On a ShardedClient, operations are grouped by owning shard at flush
// time, shard groups fly in parallel, and operations bounced by a live
// migration re-route to the new owner automatically.
//
// A Pipeline is not safe for concurrent use; open one per goroutine.
// Futures may be waited on from any goroutine.
type Pipeline struct {
	b     Backend
	batch Batch
}

// Len reports how many operations are queued and unflushed.
func (p *Pipeline) Len() int { return len(p.batch.Cmds) }

// Add queues one update command — the generic form of the typed verbs.
func (p *Pipeline) Add(cmd Command) *Future {
	f := &Future{ready: make(chan struct{})}
	p.batch.Cmds = append(p.batch.Cmds, cmd)
	p.batch.futs = append(p.batch.futs, f)
	return f
}

// Flush submits every queued operation as coalesced batches and blocks
// until each has completed or failed. Per-operation outcomes land on the
// futures; Flush returns the join of all failures (nil when every
// operation succeeded). The pipeline is empty afterwards and can be
// reused; operations queued after a Flush are ordered after the flushed
// ones.
func (p *Pipeline) Flush(ctx context.Context) error {
	if p.Len() == 0 {
		return nil
	}
	batch := p.batch
	p.batch = Batch{}
	p.b.FlushBatch(ctx, &batch)
	var errs []error
	for i, f := range batch.futs {
		if err := f.Wait(ctx); err != nil {
			errs = append(errs, fmt.Errorf("op %d (%v): %w", i, batch.Cmds[i].Op, err))
		}
	}
	return errors.Join(errs...)
}
