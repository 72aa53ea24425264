package kv

import (
	"context"
	"errors"
	"strconv"
)

// This file is the verb table: every client operation is defined here and
// nowhere else. An operation is (1) a constructor giving its wire shape —
// the command's Class and KeyHashes derive from that shape, so the
// commutativity footprint is a property of the operation, not of the
// caller — (2) a result reader, and (3) one typed method per form on
// Verbs (blocking, ...Async) and on Pipeline (queued). The client layers
// (internal/cluster for one partition, internal/shard for routing) know
// nothing about individual verbs: they implement Backend — four generic
// entry points taking a Command — and embed Verbs to gain the typed API.

// Client verb constructors. They return the Command by value: the blocking
// path hands it to a Backend by value too, so a blocking verb allocates no
// command object.

// Put writes value under key.
func Put(key, value []byte) Command { return Command{Op: OpPut, Key: key, Value: value} }

// PutTTL writes value under key with an absolute expiry (UnixNano);
// expireAt 0 clears any TTL.
func PutTTL(key, value []byte, expireAt int64) Command {
	return Command{Op: OpPut, Key: key, Value: value, ExpireAt: expireAt}
}

// Delete removes key.
func Delete(key []byte) Command { return Command{Op: OpDelete, Key: key} }

// Increment adds delta to the counter at key.
func Increment(key []byte, delta int64) Command {
	return Command{Op: OpIncrement, Key: key, Delta: delta}
}

// CondPut writes value only if key is at expectVersion (0 = must not exist).
func CondPut(key, value []byte, expectVersion uint64) Command {
	return Command{Op: OpCondPut, Key: key, Value: value, ExpectVersion: expectVersion}
}

// Append appends suffix to the value at key.
func Append(key, suffix []byte) Command { return Command{Op: OpAppend, Key: key, Value: suffix} }

// SetAdd adds member to the set at key.
func SetAdd(key, member []byte) Command { return Command{Op: OpSetAdd, Key: key, Value: member} }

// SetRemove removes member from the set at key.
func SetRemove(key, member []byte) Command {
	return Command{Op: OpSetRemove, Key: key, Value: member}
}

// BucketTake takes n tokens from the bucket at key.
func BucketTake(key []byte, n int64) Command {
	return Command{Op: OpBucketTake, Key: key, Delta: n}
}

// MultiPut writes pairs as one atomic command.
func MultiPut(pairs []KV) Command { return Command{Op: OpMultiPut, Pairs: pairs} }

// MultiIncrement atomically adds each delta to its key's counter; on the
// wire every pair's Value holds the decimal delta.
func MultiIncrement(deltas []IncrPair) Command {
	cmd := Command{Op: OpMultiIncr, Pairs: make([]KV, len(deltas))}
	for i, d := range deltas {
		cmd.Pairs[i] = KV{Key: d.Key, Value: strconv.AppendInt(nil, d.Delta, 10)}
	}
	return cmd
}

// Get reads key.
func Get(key []byte) Command { return Command{Op: OpGet, Key: key} }

// SetMembers reads the members of the set at key.
func SetMembers(key []byte) Command { return Command{Op: OpSetMembers, Key: key} }

// MultiKey reports whether the command addresses its objects through Pairs
// rather than Key. A routing layer splits such a command into one
// sub-command per owning shard.
func (c *Command) MultiKey() bool {
	return c.Op == OpMultiPut || c.Op == OpMultiIncr || c.Op == OpMultiGet
}

// ErrCounterUnavailable marks a commutative command's numeric result that
// was scrubbed during crash recovery: witness replay re-executes such
// commands in arbitrary order, so the replayed total would be from a
// history that never happened. The operation itself applied exactly once;
// only its return value is gone. Re-read the key for the current total.
var ErrCounterUnavailable = errors.New("kv: counter result unavailable after crash recovery")

// ParseCounter extracts the decimal counter a command returned in
// Result.Value: Increment's new total, Append's new length, BucketTake's
// remaining balance.
func ParseCounter(res *Result) (int64, error) {
	if len(res.Value) == 0 {
		return 0, ErrCounterUnavailable
	}
	// strconv.ParseInt, not Sscanf: Sscanf accepts trailing garbage.
	return strconv.ParseInt(string(res.Value), 10, 64)
}

// ParseCounters extracts the counter values of a MultiIncrement result,
// aligned with the deltas.
func ParseCounters(res *Result) ([]int64, error) {
	out := make([]int64, len(res.Values))
	for i, v := range res.Values {
		n, err := strconv.ParseInt(string(v), 10, 64)
		if err != nil {
			return nil, err
		}
		out[i] = n
	}
	return out, nil
}

// ReadMode selects where a read-only command is served.
type ReadMode uint8

const (
	// ReadMaster reads at the master (linearizable).
	ReadMaster ReadMode = iota
	// ReadNearby reads from a backup when a witness confirms the read
	// commutes with every outstanding speculative update, else falls back
	// to the master. Still linearizable (paper §A.1).
	ReadNearby
	// ReadStale reads the latest durable value at the master without ever
	// waiting for a sync (paper §A.3); it may trail the linearizable value
	// by the unsynced window.
	ReadStale
)

// Backend is one client layer's generic submission path: everything a
// layer must implement for Verbs and Pipeline to give it the typed API.
type Backend interface {
	// Submit executes one update and returns once it is durable.
	Submit(ctx context.Context, cmd Command) (*Result, error)
	// SubmitAsync issues one update without blocking.
	SubmitAsync(ctx context.Context, cmd Command) *Future
	// Read executes one read-only command.
	Read(ctx context.Context, cmd Command, mode ReadMode) (*Result, error)
	// FlushBatch issues a pipeline's queued updates, in order, as coalesced
	// RPCs, settling every slot of b with Bind or Resolve before returning.
	FlushBatch(ctx context.Context, b *Batch)
}

// Verbs is the typed client API over a Backend. Client layers embed it, so
// an operation added here appears on every client at once.
type Verbs struct{ b Backend }

// VerbsOf returns the typed API over b.
func VerbsOf(b Backend) Verbs { return Verbs{b: b} }

// Put writes value under key and returns the object's new version.
func (v Verbs) Put(ctx context.Context, key, value []byte) (uint64, error) {
	return version(v.b.Submit(ctx, Put(key, value)))
}

// PutTTL writes value under key with an absolute expiry time (UnixNano);
// expireAt 0 clears any TTL. Reads treat the key as absent once expireAt
// passes; the master's next background sync purges it physically.
func (v Verbs) PutTTL(ctx context.Context, key, value []byte, expireAt int64) (uint64, error) {
	return version(v.b.Submit(ctx, PutTTL(key, value, expireAt)))
}

// Delete removes key.
func (v Verbs) Delete(ctx context.Context, key []byte) error {
	_, err := v.b.Submit(ctx, Delete(key))
	return err
}

// Increment atomically adds delta to the integer at key and returns the
// new value. After a master crash a retried Increment may return
// ErrCounterUnavailable: the add is durably applied exactly once, only its
// return value is lost.
func (v Verbs) Increment(ctx context.Context, key []byte, delta int64) (int64, error) {
	return counter(v.b.Submit(ctx, Increment(key, delta)))
}

// CondPut writes value only if key is currently at expectVersion (version
// 0 = must not exist). applied reports whether the write took; version is
// the object's (new or current) version.
func (v Verbs) CondPut(ctx context.Context, key, value []byte, expectVersion uint64) (applied bool, version uint64, err error) {
	res, err := v.b.Submit(ctx, CondPut(key, value, expectVersion))
	if err != nil {
		return false, 0, err
	}
	return res.Found, res.Version, nil
}

// Append atomically appends suffix to the value at key (creating it when
// absent) and returns the value's new total length. Appends are
// order-dependent — the op stays in the write class — so concurrent
// Appends on one key conflict and take the 2-RTT path; use a Pipeline to
// order appends from one client cheaply.
func (v Verbs) Append(ctx context.Context, key, suffix []byte) (int64, error) {
	return counter(v.b.Submit(ctx, Append(key, suffix)))
}

// SetAdd adds member to the set at key (creating the set when absent).
// Concurrent SetAdds on one key commute — the stored representation is
// canonical (sorted, deduplicated) — so a hot set keeps the 1-RTT path.
func (v Verbs) SetAdd(ctx context.Context, key, member []byte) error {
	_, err := v.b.Submit(ctx, SetAdd(key, member))
	return err
}

// SetRemove removes member from the set at key. Concurrent SetRemoves
// commute with each other but NOT with SetAdds: an add/remove pair on one
// key forces a sync between them, which gives the pair its
// observed-remove ordering.
func (v Verbs) SetRemove(ctx context.Context, key, member []byte) error {
	_, err := v.b.Submit(ctx, SetRemove(key, member))
	return err
}

// BucketTake takes n tokens from the rate-limiter bucket at key (refilled
// with Increment). granted reports whether the bucket held n tokens;
// remaining is the balance after the take. Grants commute while the bucket
// stays positive, so admission under a healthy budget runs at 1 RTT; a
// take that denies or drains the bucket syncs first, so granted=false is
// never speculative. After a master crash the remaining balance of an
// in-flight take may be unreported (remaining 0 with granted still valid).
func (v Verbs) BucketTake(ctx context.Context, key []byte, n int64) (granted bool, remaining int64, err error) {
	res, err := v.b.Submit(ctx, BucketTake(key, n))
	if err != nil {
		return false, 0, err
	}
	if len(res.Value) > 0 {
		if remaining, err = ParseCounter(res); err != nil {
			return false, 0, err
		}
	}
	return res.Found, remaining, nil
}

// MultiPut writes several objects as one atomic operation; it commutes
// only with operations touching none of its keys. Through a routing
// client it is atomic per shard, not across shards.
func (v Verbs) MultiPut(ctx context.Context, pairs []KV) error {
	_, err := v.b.Submit(ctx, MultiPut(pairs))
	return err
}

// MultiIncrement atomically adds each delta to its (distinct) key in one
// exactly-once operation — e.g. a balance transfer — and returns the new
// counter values, aligned with deltas. Through a routing client it is
// atomic and exactly-once per shard, independent across shards.
func (v Verbs) MultiIncrement(ctx context.Context, deltas []IncrPair) ([]int64, error) {
	res, err := v.b.Submit(ctx, MultiIncrement(deltas))
	if err != nil {
		return nil, err
	}
	return ParseCounters(res)
}

// Get reads key at the master (linearizable). ok is false if the key does
// not exist.
func (v Verbs) Get(ctx context.Context, key []byte) (value []byte, ok bool, err error) {
	return found(v.b.Read(ctx, Get(key), ReadMaster))
}

// GetNearby reads key from a backup when a witness confirms the read
// commutes with all outstanding speculative updates; otherwise it falls
// back to the master. Still linearizable (paper §A.1).
func (v Verbs) GetNearby(ctx context.Context, key []byte) (value []byte, ok bool, err error) {
	return found(v.b.Read(ctx, Get(key), ReadNearby))
}

// GetStale reads the latest durable value of key without ever waiting for
// a backup sync (paper §A.3): the result may trail the linearizable value
// by the unsynced window. For read-mostly paths that tolerate slight
// staleness and must not block behind hot writers.
func (v Verbs) GetStale(ctx context.Context, key []byte) (value []byte, ok bool, err error) {
	return found(v.b.Read(ctx, Get(key), ReadStale))
}

// SetMembers reads the members of the set at key, sorted bytewise. A
// missing key reads as an empty set.
func (v Verbs) SetMembers(ctx context.Context, key []byte) ([][]byte, error) {
	res, err := v.b.Read(ctx, SetMembers(key), ReadMaster)
	if err != nil {
		return nil, err
	}
	return res.Values, nil
}

// PutAsync writes value under key without blocking; Future.Version holds
// the object's new version.
func (v Verbs) PutAsync(ctx context.Context, key, value []byte) *Future {
	return v.b.SubmitAsync(ctx, Put(key, value))
}

// PutTTLAsync writes value under key with an absolute UnixNano expiry,
// without blocking.
func (v Verbs) PutTTLAsync(ctx context.Context, key, value []byte, expireAt int64) *Future {
	return v.b.SubmitAsync(ctx, PutTTL(key, value, expireAt))
}

// DeleteAsync removes key without blocking.
func (v Verbs) DeleteAsync(ctx context.Context, key []byte) *Future {
	return v.b.SubmitAsync(ctx, Delete(key))
}

// IncrementAsync adds delta to the counter at key without blocking;
// Future.Counter holds the new value.
func (v Verbs) IncrementAsync(ctx context.Context, key []byte, delta int64) *Future {
	return v.b.SubmitAsync(ctx, Increment(key, delta))
}

// CondPutAsync writes value only if key is at expectVersion, without
// blocking; Future.Applied reports whether the write took.
func (v Verbs) CondPutAsync(ctx context.Context, key, value []byte, expectVersion uint64) *Future {
	return v.b.SubmitAsync(ctx, CondPut(key, value, expectVersion))
}

// AppendAsync appends suffix to the value at key without blocking;
// Future.Length holds the value's new total length.
func (v Verbs) AppendAsync(ctx context.Context, key, suffix []byte) *Future {
	return v.b.SubmitAsync(ctx, Append(key, suffix))
}

// SetAddAsync adds member to the set at key without blocking.
func (v Verbs) SetAddAsync(ctx context.Context, key, member []byte) *Future {
	return v.b.SubmitAsync(ctx, SetAdd(key, member))
}

// SetRemoveAsync removes member from the set at key without blocking.
func (v Verbs) SetRemoveAsync(ctx context.Context, key, member []byte) *Future {
	return v.b.SubmitAsync(ctx, SetRemove(key, member))
}

// BucketTakeAsync takes n tokens from the bucket at key without blocking;
// Future.Granted reports whether they were available.
func (v Verbs) BucketTakeAsync(ctx context.Context, key []byte, n int64) *Future {
	return v.b.SubmitAsync(ctx, BucketTake(key, n))
}

// MultiPutAsync writes several objects as one atomic operation (atomic per
// shard through a routing client), without blocking.
func (v Verbs) MultiPutAsync(ctx context.Context, pairs []KV) *Future {
	return v.b.SubmitAsync(ctx, MultiPut(pairs))
}

// MultiIncrementAsync atomically applies every delta (atomic per shard
// through a routing client), without blocking; Future.Values holds the new
// counter values.
func (v Verbs) MultiIncrementAsync(ctx context.Context, deltas []IncrPair) *Future {
	return v.b.SubmitAsync(ctx, MultiIncrement(deltas))
}

// NewPipeline opens an empty pipeline bound to this client. Queue
// operations with the update verbs, then Flush once to submit them all as
// coalesced RPCs.
func (v Verbs) NewPipeline() *Pipeline { return &Pipeline{b: v.b} }

// Put queues a write of value under key; the future's Version holds the
// object's new version.
func (p *Pipeline) Put(key, value []byte) *Future { return p.Add(Put(key, value)) }

// PutTTL queues a write of value under key with an absolute UnixNano
// expiry.
func (p *Pipeline) PutTTL(key, value []byte, expireAt int64) *Future {
	return p.Add(PutTTL(key, value, expireAt))
}

// Delete queues a removal of key.
func (p *Pipeline) Delete(key []byte) *Future { return p.Add(Delete(key)) }

// Increment queues adding delta to the counter at key; the future's
// Counter holds the new value.
func (p *Pipeline) Increment(key []byte, delta int64) *Future { return p.Add(Increment(key, delta)) }

// CondPut queues a conditional write of value at expectVersion; the
// future's Applied reports whether the write took.
func (p *Pipeline) CondPut(key, value []byte, expectVersion uint64) *Future {
	return p.Add(CondPut(key, value, expectVersion))
}

// Append queues appending suffix to the value at key; the future's Length
// holds the value's new total length.
func (p *Pipeline) Append(key, suffix []byte) *Future { return p.Add(Append(key, suffix)) }

// SetAdd queues adding member to the set at key.
func (p *Pipeline) SetAdd(key, member []byte) *Future { return p.Add(SetAdd(key, member)) }

// SetRemove queues removing member from the set at key.
func (p *Pipeline) SetRemove(key, member []byte) *Future { return p.Add(SetRemove(key, member)) }

// BucketTake queues taking n tokens from the bucket at key; the future's
// Granted reports whether they were available.
func (p *Pipeline) BucketTake(key []byte, n int64) *Future { return p.Add(BucketTake(key, n)) }

// MultiPut queues an atomic multi-object write (atomic per shard through a
// routing client).
func (p *Pipeline) MultiPut(pairs []KV) *Future { return p.Add(MultiPut(pairs)) }

// MultiIncrement queues an atomic multi-counter increment (atomic per
// shard through a routing client); the future's Values holds the new
// counter values.
func (p *Pipeline) MultiIncrement(deltas []IncrPair) *Future { return p.Add(MultiIncrement(deltas)) }

// version, counter and found adapt a Backend call's (result, error) pair
// to a verb's typed return.
func version(res *Result, err error) (uint64, error) {
	if err != nil {
		return 0, err
	}
	return res.Version, nil
}

func counter(res *Result, err error) (int64, error) {
	if err != nil {
		return 0, err
	}
	return ParseCounter(res)
}

func found(res *Result, err error) ([]byte, bool, error) {
	if err != nil {
		return nil, false, err
	}
	return res.Value, res.Found, nil
}
