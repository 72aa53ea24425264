package curp

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// verbSet is every operation both public clients must offer. The
// assertions below fail the build if a verb exists on one client and not
// the other.
type verbSet interface {
	Put(ctx context.Context, key, value []byte) (uint64, error)
	PutTTL(ctx context.Context, key, value []byte, expireAt int64) (uint64, error)
	Delete(ctx context.Context, key []byte) error
	Increment(ctx context.Context, key []byte, delta int64) (int64, error)
	CondPut(ctx context.Context, key, value []byte, expectVersion uint64) (bool, uint64, error)
	Append(ctx context.Context, key, suffix []byte) (int64, error)
	SetAdd(ctx context.Context, key, member []byte) error
	SetRemove(ctx context.Context, key, member []byte) error
	BucketTake(ctx context.Context, key []byte, n int64) (bool, int64, error)
	MultiPut(ctx context.Context, pairs []KV) error
	MultiIncrement(ctx context.Context, deltas []IncrPair) ([]int64, error)

	Get(ctx context.Context, key []byte) ([]byte, bool, error)
	GetNearby(ctx context.Context, key []byte) ([]byte, bool, error)
	GetStale(ctx context.Context, key []byte) ([]byte, bool, error)
	SetMembers(ctx context.Context, key []byte) ([][]byte, error)

	PutAsync(ctx context.Context, key, value []byte) *Future
	PutTTLAsync(ctx context.Context, key, value []byte, expireAt int64) *Future
	DeleteAsync(ctx context.Context, key []byte) *Future
	IncrementAsync(ctx context.Context, key []byte, delta int64) *Future
	CondPutAsync(ctx context.Context, key, value []byte, expectVersion uint64) *Future
	AppendAsync(ctx context.Context, key, suffix []byte) *Future
	SetAddAsync(ctx context.Context, key, member []byte) *Future
	SetRemoveAsync(ctx context.Context, key, member []byte) *Future
	BucketTakeAsync(ctx context.Context, key []byte, n int64) *Future
	MultiPutAsync(ctx context.Context, pairs []KV) *Future
	MultiIncrementAsync(ctx context.Context, deltas []IncrPair) *Future

	NewPipeline() *Pipeline
	Txn() *Txn
	Stats() Stats
	Close()
}

var (
	_ verbSet = (*Client)(nil)
	_ verbSet = (*ShardedClient)(nil)
)

// verbCase is one row of the verb matrix: the same operation in its three
// forms, each rendered to a comparable string. k is the case's private
// key; multi-key verbs derive k/a and k/b from it.
type verbCase struct {
	name     string
	keys     func(k []byte) [][]byte                              // keys to read back; nil = just k
	setup    func(ctx context.Context, c verbSet, k []byte) error // state the verb needs, via blocking verbs
	blocking func(ctx context.Context, c verbSet, k []byte) (string, error)
	async    func(ctx context.Context, c verbSet, k []byte) *Future
	queue    func(p *Pipeline, k []byte) *Future
	read     func(f *Future) (string, error) // result of the async and pipelined forms
}

func sub(k []byte, leg string) []byte { return append(append([]byte(nil), k...), "/"+leg...) }

func ab(k []byte) [][]byte { return [][]byte{sub(k, "a"), sub(k, "b")} }

func abPairs(k []byte) []KV {
	return []KV{{Key: sub(k, "a"), Value: []byte("1")}, {Key: sub(k, "b"), Value: []byte("2")}}
}

func abDeltas(k []byte) []IncrPair {
	return []IncrPair{{Key: sub(k, "a"), Delta: 2}, {Key: sub(k, "b"), Delta: -2}}
}

func waitOnly(f *Future) (string, error) { return "", f.Err() }

var farFuture = time.Now().Add(time.Hour).UnixNano()

var verbMatrix = []verbCase{
	{
		name: "Put",
		blocking: func(ctx context.Context, c verbSet, k []byte) (string, error) {
			v, err := c.Put(ctx, k, []byte("v"))
			return fmt.Sprint(v), err
		},
		async: func(ctx context.Context, c verbSet, k []byte) *Future { return c.PutAsync(ctx, k, []byte("v")) },
		queue: func(p *Pipeline, k []byte) *Future { return p.Put(k, []byte("v")) },
		read: func(f *Future) (string, error) {
			v, err := f.Version()
			return fmt.Sprint(v), err
		},
	},
	{
		name: "PutTTL",
		blocking: func(ctx context.Context, c verbSet, k []byte) (string, error) {
			v, err := c.PutTTL(ctx, k, []byte("v"), farFuture)
			return fmt.Sprint(v), err
		},
		async: func(ctx context.Context, c verbSet, k []byte) *Future {
			return c.PutTTLAsync(ctx, k, []byte("v"), farFuture)
		},
		queue: func(p *Pipeline, k []byte) *Future { return p.PutTTL(k, []byte("v"), farFuture) },
		read: func(f *Future) (string, error) {
			v, err := f.Version()
			return fmt.Sprint(v), err
		},
	},
	{
		name: "Delete",
		setup: func(ctx context.Context, c verbSet, k []byte) error {
			_, err := c.Put(ctx, k, []byte("doomed"))
			return err
		},
		blocking: func(ctx context.Context, c verbSet, k []byte) (string, error) { return "", c.Delete(ctx, k) },
		async:    func(ctx context.Context, c verbSet, k []byte) *Future { return c.DeleteAsync(ctx, k) },
		queue:    func(p *Pipeline, k []byte) *Future { return p.Delete(k) },
		read:     waitOnly,
	},
	{
		name: "Increment",
		setup: func(ctx context.Context, c verbSet, k []byte) error {
			_, err := c.Increment(ctx, k, 5)
			return err
		},
		blocking: func(ctx context.Context, c verbSet, k []byte) (string, error) {
			n, err := c.Increment(ctx, k, 2)
			return fmt.Sprint(n), err
		},
		async: func(ctx context.Context, c verbSet, k []byte) *Future { return c.IncrementAsync(ctx, k, 2) },
		queue: func(p *Pipeline, k []byte) *Future { return p.Increment(k, 2) },
		read: func(f *Future) (string, error) {
			n, err := f.Counter()
			return fmt.Sprint(n), err
		},
	},
	{
		name: "CondPut",
		blocking: func(ctx context.Context, c verbSet, k []byte) (string, error) {
			applied, v, err := c.CondPut(ctx, k, []byte("v"), 0)
			return fmt.Sprint(applied, v), err
		},
		async: func(ctx context.Context, c verbSet, k []byte) *Future {
			return c.CondPutAsync(ctx, k, []byte("v"), 0)
		},
		queue: func(p *Pipeline, k []byte) *Future { return p.CondPut(k, []byte("v"), 0) },
		read: func(f *Future) (string, error) {
			applied, err := f.Applied()
			if err != nil {
				return "", err
			}
			v, err := f.Version()
			return fmt.Sprint(applied, v), err
		},
	},
	{
		name: "Append",
		setup: func(ctx context.Context, c verbSet, k []byte) error {
			_, err := c.Put(ctx, k, []byte("ab"))
			return err
		},
		blocking: func(ctx context.Context, c verbSet, k []byte) (string, error) {
			n, err := c.Append(ctx, k, []byte("cd"))
			return fmt.Sprint(n), err
		},
		async: func(ctx context.Context, c verbSet, k []byte) *Future { return c.AppendAsync(ctx, k, []byte("cd")) },
		queue: func(p *Pipeline, k []byte) *Future { return p.Append(k, []byte("cd")) },
		read: func(f *Future) (string, error) {
			n, err := f.Length()
			return fmt.Sprint(n), err
		},
	},
	{
		name: "SetAdd",
		blocking: func(ctx context.Context, c verbSet, k []byte) (string, error) {
			return "", c.SetAdd(ctx, k, []byte("m"))
		},
		async: func(ctx context.Context, c verbSet, k []byte) *Future { return c.SetAddAsync(ctx, k, []byte("m")) },
		queue: func(p *Pipeline, k []byte) *Future { return p.SetAdd(k, []byte("m")) },
		read:  waitOnly,
	},
	{
		name: "SetRemove",
		setup: func(ctx context.Context, c verbSet, k []byte) error {
			if err := c.SetAdd(ctx, k, []byte("m1")); err != nil {
				return err
			}
			return c.SetAdd(ctx, k, []byte("m2"))
		},
		blocking: func(ctx context.Context, c verbSet, k []byte) (string, error) {
			return "", c.SetRemove(ctx, k, []byte("m1"))
		},
		async: func(ctx context.Context, c verbSet, k []byte) *Future {
			return c.SetRemoveAsync(ctx, k, []byte("m1"))
		},
		queue: func(p *Pipeline, k []byte) *Future { return p.SetRemove(k, []byte("m1")) },
		read:  waitOnly,
	},
	{
		name: "BucketTake",
		setup: func(ctx context.Context, c verbSet, k []byte) error {
			_, err := c.Increment(ctx, k, 10)
			return err
		},
		blocking: func(ctx context.Context, c verbSet, k []byte) (string, error) {
			granted, remaining, err := c.BucketTake(ctx, k, 3)
			return fmt.Sprint(granted, remaining), err
		},
		async: func(ctx context.Context, c verbSet, k []byte) *Future { return c.BucketTakeAsync(ctx, k, 3) },
		queue: func(p *Pipeline, k []byte) *Future { return p.BucketTake(k, 3) },
		read: func(f *Future) (string, error) {
			granted, err := f.Granted()
			if err != nil {
				return "", err
			}
			remaining, err := f.Counter()
			return fmt.Sprint(granted, remaining), err
		},
	},
	{
		name: "MultiPut",
		keys: ab,
		blocking: func(ctx context.Context, c verbSet, k []byte) (string, error) {
			return "", c.MultiPut(ctx, abPairs(k))
		},
		async: func(ctx context.Context, c verbSet, k []byte) *Future {
			return c.MultiPutAsync(ctx, abPairs(k))
		},
		queue: func(p *Pipeline, k []byte) *Future {
			return p.MultiPut(abPairs(k))
		},
		read: waitOnly,
	},
	{
		name: "MultiIncrement",
		keys: ab,
		setup: func(ctx context.Context, c verbSet, k []byte) error {
			_, err := c.Increment(ctx, sub(k, "a"), 1)
			return err
		},
		blocking: func(ctx context.Context, c verbSet, k []byte) (string, error) {
			vals, err := c.MultiIncrement(ctx, abDeltas(k))
			return fmt.Sprint(vals), err
		},
		async: func(ctx context.Context, c verbSet, k []byte) *Future {
			return c.MultiIncrementAsync(ctx, abDeltas(k))
		},
		queue: func(p *Pipeline, k []byte) *Future {
			return p.MultiIncrement(abDeltas(k))
		},
		read: func(f *Future) (string, error) {
			vals, err := f.Values()
			return fmt.Sprint(vals), err
		},
	},
}

// TestVerbMatrix runs every update verb in its three forms (blocking,
// ...Async, Pipeline) against both public clients and requires identical
// results and identical final store contents from all six combinations —
// so a verb cannot be mis-wired in one form or on one client.
func TestVerbMatrix(t *testing.T) {
	single, err := Start(Options{F: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	sharded, err := StartSharded(Options{F: 1, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	cl, err := single.NewClient("matrix")
	if err != nil {
		t.Fatal(err)
	}
	scl, err := sharded.NewClient("matrix")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// outcome is what one (client, form) combination produced: each verb's
	// result, then each touched key's final value and set members.
	type outcome struct {
		results map[string]string
		store   map[string]string
	}
	run := func(c verbSet, form string) outcome {
		t.Helper()
		out := outcome{results: map[string]string{}, store: map[string]string{}}
		key := func(vc verbCase) []byte { return []byte(form + ":" + vc.name) }
		for _, vc := range verbMatrix {
			if vc.setup != nil {
				if err := vc.setup(ctx, c, key(vc)); err != nil {
					t.Fatalf("%s %s setup: %v", form, vc.name, err)
				}
			}
		}
		futs := make([]*Future, len(verbMatrix))
		switch form {
		case "blocking":
			for _, vc := range verbMatrix {
				res, err := vc.blocking(ctx, c, key(vc))
				if err != nil {
					t.Fatalf("blocking %s: %v", vc.name, err)
				}
				out.results[vc.name] = res
			}
		case "async":
			for i, vc := range verbMatrix {
				futs[i] = vc.async(ctx, c, key(vc))
			}
		case "pipeline":
			p := c.NewPipeline()
			for i, vc := range verbMatrix {
				futs[i] = vc.queue(p, key(vc))
			}
			if p.Len() != len(verbMatrix) {
				t.Fatalf("pipeline holds %d ops, want %d", p.Len(), len(verbMatrix))
			}
			if err := p.Flush(ctx); err != nil {
				t.Fatalf("flush: %v", err)
			}
		}
		for i, vc := range verbMatrix {
			if futs[i] == nil {
				continue
			}
			res, err := vc.read(futs[i])
			if err != nil {
				t.Fatalf("%s %s: %v", form, vc.name, err)
			}
			out.results[vc.name] = res
		}
		for _, vc := range verbMatrix {
			keys := [][]byte{key(vc)}
			if vc.keys != nil {
				keys = vc.keys(key(vc))
			}
			for _, k := range keys {
				v, ok, err := c.Get(ctx, k)
				if err != nil {
					t.Fatalf("%s get %q: %v", form, k, err)
				}
				members, err := c.SetMembers(ctx, k)
				if err != nil {
					members = nil // not a set
				}
				out.store[string(k[len(form)+1:])] = fmt.Sprintf("%q %v %q", v, ok, members)
			}
		}
		return out
	}

	var want outcome
	for _, target := range []struct {
		name string
		c    verbSet
	}{{"Client", cl}, {"ShardedClient", scl}} {
		for _, form := range []string{"blocking", "async", "pipeline"} {
			got := run(target.c, form)
			if want.results == nil {
				want = got
				for _, vc := range verbMatrix {
					if _, ok := got.results[vc.name]; !ok {
						t.Fatalf("no result recorded for %s", vc.name)
					}
				}
				continue
			}
			if !reflect.DeepEqual(got.results, want.results) {
				t.Errorf("%s/%s results = %v, want (Client/blocking) %v", target.name, form, got.results, want.results)
			}
			if !reflect.DeepEqual(got.store, want.store) {
				t.Errorf("%s/%s store = %v, want (Client/blocking) %v", target.name, form, got.store, want.store)
			}
		}
		target.c.Close()
	}
	// Spot-check the reference itself, so six identical wrong answers fail.
	for name, res := range map[string]string{
		"Put": "1", "Increment": "7", "CondPut": "true 1", "Append": "4",
		"BucketTake": "true 7", "MultiIncrement": "[3 -2]",
	} {
		if want.results[name] != res {
			t.Errorf("%s result = %q, want %q", name, want.results[name], res)
		}
	}
	for name, kept := range map[string]string{
		"Delete": `"" false []`, "Append": `"abcd" true []`, "MultiPut/b": `"2" true []`,
		"SetRemove": `"\x02\x00\x00\x00m2" true ["m2"]`,
	} {
		if want.store[name] != kept {
			t.Errorf("%s stored %s, want %s", name, want.store[name], kept)
		}
	}
}
