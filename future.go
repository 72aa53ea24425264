package curp

import "curp/internal/kv"

// The async and pipelined forms of the verbs, and the value types they
// share, are defined once in internal/kv; these aliases are their public
// names.

// Future is the handle to an asynchronous update. Every update verb has a
// Future-returning async form (PutAsync, IncrementAsync, ...), and
// Pipeline hands one out per queued operation. It resolves exactly once;
// the operation is durable exactly when its error is nil. Wait blocks
// with a context, Err without one, and the typed accessors Version,
// Applied, Counter, Values, Granted and Length block until completion and
// return the decoded result. All methods are safe for concurrent use.
type Future = kv.Future

// Pipeline queues update operations — one method per update verb, each
// returning the operation's Future — and Flush submits them as coalesced
// RPCs: one UpdateBatch per master, one RecordBatch per witness. Each
// operation keeps its own 1-RTT completion rule, and queue order is
// preserved per key. Open one with Client.NewPipeline or
// ShardedClient.NewPipeline; a Pipeline is not safe for concurrent use.
type Pipeline = kv.Pipeline

// KV is one key/value pair of a MultiPut.
type KV = kv.KV

// IncrPair is one leg of a Transfer / MultiIncrement.
type IncrPair = kv.IncrPair

// ErrCounterUnavailable reports an Increment (or BucketTake) whose state
// change applied exactly once but whose numeric return value was scrubbed
// by crash recovery: witness replay re-executes commutative commands in an
// arbitrary order, so the replayed total would be from a history that never
// happened. Re-read the key (e.g. Increment with delta 0) for the current
// total.
var ErrCounterUnavailable = kv.ErrCounterUnavailable
