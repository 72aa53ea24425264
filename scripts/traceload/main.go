// Command traceload is the trace smoke test's load generator: it drives a
// contended pipelined workload (many writes to one key in a single flush)
// against a running TCP cluster, which deterministically forces
// conflict-syncs — the master sees the batch's same-key writes overlap
// while unsynced and evicts them from the 1-RTT path, promoting the trace
// on every involved node. It then serves the client-side span collector
// over HTTP for a while so the smoke script (and curpctl trace
// -trace-endpoints) can stitch the client's root spans into the tree.
//
// Not an operator tool; lives under scripts/ and runs via `go run`.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"curp/internal/cluster"
	"curp/internal/metrics"
	"curp/internal/transport"
)

func main() {
	coord := flag.String("coordinator", "127.0.0.1:7000", "target shard's coordinator address")
	ops := flag.Int("ops", 64, "writes to pipeline onto the contended key in one flush")
	key := flag.String("key", "contended", "the key every write lands on")
	serve := flag.String("serve", "", "serve the client collector's /trace on this address after the load")
	hold := flag.Duration("hold", 10*time.Second, "how long to keep serving before exiting")
	flag.Parse()

	cl, err := cluster.NewClientMulti(transport.TCPNetwork{},
		fmt.Sprintf("traceload-%d", os.Getpid()), []string{*coord}, 1)
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	p := cl.NewPipeline()
	for i := 0; i < *ops; i++ {
		p.Put([]byte(*key), []byte(fmt.Sprintf("v%d", i)))
	}
	if err := p.Flush(ctx); err != nil {
		log.Fatalf("contended flush: %v", err)
	}
	st := cl.Stats()
	fmt.Printf("traceload: %d writes to %q — fast=%d synced-by-master=%d slow=%d\n",
		*ops, *key, st.FastPath, st.SyncedByMaster, st.SlowPath)

	if *serve == "" {
		return
	}
	obs := cluster.EndpointsOver(func() []cluster.Bundle {
		return []cluster.Bundle{{Role: "client", Trace: cl.Trace()}}
	})
	srv, err := metrics.Serve(*serve, obs.Mux(false))
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("traceload: client spans on http://%s/trace for %v\n", srv.Addr, *hold)
	time.Sleep(*hold)
}
