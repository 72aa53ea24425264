package cluster

import (
	"context"
	"fmt"
	"testing"

	"curp/internal/kv"
)

// startAsyncCluster boots a real cluster on an in-memory network with F=f
// and opens one client.
func startAsyncCluster(t *testing.T, f int) (*Cluster, *Client) {
	t.Helper()
	opts := testOptions()
	opts.F = f
	c, _ := startTestCluster(t, opts)
	return c, testClient(t, c, "async-test")
}

// TestPipelineOverWire drives a pipeline through the real RPC stack: one
// OpUpdateBatch to the master, one OpWitnessRecordBatch per witness, with
// per-operation results and the 1-RTT fast path intact.
func TestPipelineOverWire(t *testing.T) {
	_, cl := startAsyncCluster(t, 3)
	ctx := context.Background()

	p := cl.NewPipeline()
	var puts []*kv.Future
	for i := 0; i < 16; i++ {
		puts = append(puts, p.Put([]byte(fmt.Sprintf("pk%d", i)), []byte(fmt.Sprintf("v%d", i))))
	}
	incr := p.Increment([]byte("pctr"), 5)
	if p.Len() != 17 {
		t.Fatalf("len = %d", p.Len())
	}
	if err := p.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if p.Len() != 0 {
		t.Fatalf("len after flush = %d", p.Len())
	}
	for i, f := range puts {
		res, err := f.Result(ctx)
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		if res.Version == 0 {
			t.Fatalf("put %d: version = 0", i)
		}
	}
	if res, err := incr.Result(ctx); err != nil {
		t.Fatal(err)
	} else if n, err := kv.ParseCounter(res); err != nil || n != 5 {
		t.Fatalf("incr = %d (%v)", n, err)
	}

	// The batched path must preserve the fast path: all 17 ops touched
	// distinct keys, so every one should complete in 1 RTT.
	st := cl.Stats()
	if st.FastPath != 17 {
		t.Fatalf("fast path = %d / 17 (stats %+v)", st.FastPath, st)
	}

	// Reads see the writes.
	for i := 0; i < 16; i++ {
		v, ok, err := cl.Get(ctx, []byte(fmt.Sprintf("pk%d", i)))
		if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("get pk%d = %q %v %v", i, v, ok, err)
		}
	}
}

// TestPipelineSameKeyOrder: two writes to one key in a single flush apply
// in queue order; the read after the flush sees the second value.
func TestPipelineSameKeyOrder(t *testing.T) {
	_, cl := startAsyncCluster(t, 1)
	ctx := context.Background()
	p := cl.NewPipeline()
	p.Put([]byte("ok"), []byte("one"))
	last := p.Put([]byte("ok"), []byte("two"))
	if err := p.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	res, err := last.Result(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 2 {
		t.Fatalf("second write version = %d, want 2", res.Version)
	}
	v, ok, err := cl.Get(ctx, []byte("ok"))
	if err != nil || !ok || string(v) != "two" {
		t.Fatalf("get = %q %v %v", v, ok, err)
	}
}

// TestPipelineMixedVerbs: every update verb works inside one flush,
// including the multi-key commands, with typed results.
func TestPipelineMixedVerbs(t *testing.T) {
	_, cl := startAsyncCluster(t, 2)
	ctx := context.Background()

	p := cl.NewPipeline()
	put := p.Put([]byte("a"), []byte("1"))
	cond := p.CondPut([]byte("b"), []byte("x"), 0)
	del := p.Delete([]byte("nope"))
	mp := p.MultiPut([]kv.KV{{Key: []byte("m1"), Value: []byte("u")}, {Key: []byte("m2"), Value: []byte("w")}})
	mi := p.MultiIncrement([]kv.IncrPair{{Key: []byte("c1"), Delta: 2}, {Key: []byte("c2"), Delta: 3}})
	if err := p.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if res, _ := put.Result(ctx); res.Version != 1 {
		t.Fatalf("put version = %d", res.Version)
	}
	if res, _ := cond.Result(ctx); !res.Found {
		t.Fatal("condput did not apply")
	}
	if _, err := del.Result(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := mp.Result(ctx); err != nil {
		t.Fatal(err)
	}
	res, err := mi.Result(ctx)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := kv.ParseCounters(res)
	if err != nil || len(vals) != 2 || vals[0] != 2 || vals[1] != 3 {
		t.Fatalf("multi-increment = %v (%v)", vals, err)
	}
	v, ok, _ := cl.Get(ctx, []byte("m2"))
	if !ok || string(v) != "w" {
		t.Fatalf("m2 = %q %v", v, ok)
	}
}

// TestAsyncVerbsOverWire: the Future-returning verbs complete out of
// submission order without blocking each other, exactly-once.
func TestAsyncVerbsOverWire(t *testing.T) {
	_, cl := startAsyncCluster(t, 2)
	ctx := context.Background()

	var futs []*kv.Future
	for i := 0; i < 32; i++ {
		futs = append(futs, cl.PutAsync(ctx, []byte(fmt.Sprintf("ak%d", i)), []byte("v")))
	}
	inc := cl.IncrementAsync(ctx, []byte("actr"), 1)
	for i, f := range futs {
		if _, err := f.Result(ctx); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	res, err := inc.Result(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := kv.ParseCounter(res); n != 1 {
		t.Fatalf("counter = %d", n)
	}
	// A second wait returns the same cached outcome.
	res2, err := inc.Result(ctx)
	if err != nil || res2 != res {
		t.Fatalf("second wait: %v %p %p", err, res2, res)
	}
}

// TestChunkBy: batches split under the size bound, preserve order, and
// never produce an empty chunk.
func TestChunkBy(t *testing.T) {
	sizes := []int{100, maxBatchBytes, 50, 60, maxBatchBytes - 100, 200}
	chunks := chunkBy(sizes, func(s int) int { return s })
	var flat []int
	for _, ch := range chunks {
		if len(ch) == 0 {
			t.Fatal("empty chunk")
		}
		run := 0
		for _, s := range ch {
			run += s
		}
		if len(ch) > 1 && run > maxBatchBytes {
			t.Fatalf("chunk of %d items totals %d > limit", len(ch), run)
		}
		flat = append(flat, ch...)
	}
	if len(flat) != len(sizes) {
		t.Fatalf("flattened %d items, want %d", len(flat), len(sizes))
	}
	for i := range flat {
		if flat[i] != sizes[i] {
			t.Fatalf("order broken at %d", i)
		}
	}
	if len(chunkBy([]int{1, 2, 3}, func(s int) int { return s })) != 1 {
		t.Fatal("small batch should stay one chunk")
	}
}
