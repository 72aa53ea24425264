// Command bench is the repository's one benchmark: it boots the real CURP
// stack on the in-memory network, drives it closed-loop from a single
// goroutine through fixed-work rounds, checks the results, and prints every
// metric by name. See README.md in this directory.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: put-seq, put-pipe16, ycsb-a, shard-txn, geo-conflict")
		seed     = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds  = flag.Float64("seconds", runSeconds, "measuring time the rounds are sized for (op counts scale linearly)")
		trace    = flag.Int("trace", 0, "1: run the traced round and the layer microbenchmarks and report the per-layer metrics instead of the end-to-end ones")
		quick    = flag.Bool("quick", false, "smoke mode: 1 round at 2% of the ops on every workload; numbers are flagged quick and mean nothing")
		selftest = flag.Bool("selftest", false, "A/A: two interleaved sets of invocations of this binary per workload; fails if their medians differ by more than a bound")
		sets     = flag.Int("n", 5, "-selftest: invocations per set and workload")
		layers   = flag.Bool("layers", false, "run only the layer microbenchmarks and print their table")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	ctx := context.Background()
	var err error
	switch {
	case *selftest:
		err = runSelftest(ctx, *seed, *seconds, *sets)
	case *quick:
		err = runQuick(ctx, *seed)
	case *layers:
		err = runLayersOnly(ctx)
	default:
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown -workload %q\n", *name)
			os.Exit(2)
		}
		if *seconds <= 0 {
			fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
			os.Exit(2)
		}
		err = runWorkload(ctx, w, *seed, *seconds, *trace != 0)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
