package cluster

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"

	"curp/internal/race"
)

// budgetKeys is a working set shaped like the benchmark's: 30 B keys,
// 100 B values.
func budgetKeys(n int) (keys [][]byte, value []byte) {
	keys = make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("budget-key-%019d", i))
	}
	return keys, make([]byte, 100)
}

// TestPutAllocBudget pins what one blocking Put allocates across the whole
// F=3 in-memory partition — client, master, three witnesses, three backups,
// every frame between them. The count is process-wide on purpose: garbage
// made on a server's goroutine costs the same GC time as the client's.
func TestPutAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const budget = 105 // mallocs per put; 174 before the call-handle/worker diet
	c, _ := startTestCluster(t, testOptions())
	cl := testClient(t, c, "budget")
	ctx := context.Background()
	const warm, measured = 2000, 2000
	keys, value := budgetKeys(warm + measured)
	for _, k := range keys[:warm] {
		if _, err := cl.Put(ctx, k, value); err != nil {
			t.Fatal(err)
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, k := range keys[warm:] {
		if _, err := cl.Put(ctx, k, value); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)
	perPut := float64(m1.Mallocs-m0.Mallocs) / measured
	t.Logf("%.1f mallocs per blocking Put (budget %d)", perPut, budget)
	if perPut > budget {
		t.Fatalf("a blocking Put allocates %.1f objects, budget is %d", perPut, budget)
	}
}

// TestBlockingPutSpawnsNoGoroutine: in steady state a blocking Put starts
// no goroutine anywhere — the client engine runs on the caller's stack, its
// witness records are started calls, and the servers' connection workers
// are resident.
func TestBlockingPutSpawnsNoGoroutine(t *testing.T) {
	c, _ := startTestCluster(t, testOptions())
	cl := testClient(t, c, "steady")
	ctx := context.Background()
	keys, value := budgetKeys(1000)
	put := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := cl.Put(ctx, keys[i%len(keys)], value); err != nil {
				t.Fatal(err)
			}
		}
	}
	put(1000) // warm: connections dialled, a worker on each
	before := runtime.NumGoroutine()
	put(5000)
	after := runtime.NumGoroutine()
	// Not thousands, and not one per connection either. The slack is for the
	// residents that come and go on their own clocks (a heartbeat's
	// connection worker lingering or not, the background syncer) and for the
	// odd second worker a connection keeps when a request arrived while its
	// first was still on the way back from a handler.
	if diff := after - before; diff > 10 || diff < -10 {
		t.Fatalf("goroutines: %d before 5000 blocking puts, %d after", before, after)
	}

	// Goroutine profiles taken while more puts run: the engine's frames sit
	// on this goroutine's own stack, so any stack that mentions them must be
	// this test's.
	stop, sampled := make(chan struct{}), make(chan string, 1)
	go func() {
		defer close(sampled)
		for {
			select {
			case <-stop:
				return
			default:
			}
			var prof strings.Builder
			if err := pprof.Lookup("goroutine").WriteTo(&prof, 2); err != nil {
				sampled <- err.Error()
				return
			}
			for _, g := range strings.Split(prof.String(), "\n\n") {
				if (strings.Contains(g, "runBatch") || strings.Contains(g, "flushOnce")) && !strings.Contains(g, "TestBlockingPutSpawnsNoGoroutine") {
					sampled <- g
					return
				}
			}
		}
	}()
	put(2000)
	close(stop)
	if g, bad := <-sampled; bad {
		t.Fatalf("a goroutine other than the caller ran the client engine:\n%s", g)
	}
}
