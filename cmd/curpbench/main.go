// Command curpbench regenerates the evaluation artifacts of the CURP paper
// (Park & Ousterhout, NSDI 2019): every figure and table of §5 and the
// appendices, using the discrete-event simulator in internal/sim (README.md
// describes it). It measures nothing of the real stack: bench/ is the
// benchmark (bench/README.md has the measured baseline), and recovery
// windows and path costs are virtual-time tests (failover_bubble_test.go).
//
// Usage:
//
//	curpbench -experiment all
//	curpbench -experiment fig5
//	curpbench -experiment fig5,fig6,resources -ops 50000
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"curp/internal/sim"
)

// retired names the real-stack experiments this command used to run and
// what answers their question now.
var retired = map[string]string{
	"pipeline":  "bash bench/run.sh -workload put-pipe16 (and put-seq for depth 1)",
	"sharded":   "bash bench/run.sh -workload shard-txn",
	"txn":       "bash bench/run.sh -workload shard-txn, and GOEXPERIMENT=synctest go test -run BubblePathCosts . for the commit paths in round trips",
	"failover":  "GOEXPERIMENT=synctest go test -run Bubble .",
	"coordfail": "GOEXPERIMENT=synctest go test -run Bubble .",
}

func main() {
	order := []string{"table1", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "resources"}
	experiment := flag.String("experiment", "all",
		"comma-separated list: "+strings.Join(order, ",")+",all")
	ops := flag.Int("ops", 20000, "operations per simulated configuration")
	flag.Parse()

	sim.FigureOps = *ops
	w := os.Stdout

	runners := map[string]func(){
		"table1":    func() { sim.Table1(w) },
		"fig5":      func() { sim.Fig5(w) },
		"fig6":      func() { sim.Fig6(w) },
		"fig7":      func() { sim.Fig7(w) },
		"fig8":      func() { sim.Fig8(w) },
		"fig9":      func() { sim.Fig9(w) },
		"fig10":     func() { sim.Fig10(w) },
		"fig11":     func() { sim.Fig11(w) },
		"fig12":     func() { sim.Fig12(w) },
		"fig13":     func() { sim.Fig13(w) },
		"resources": func() { sim.ResourceReport(w) },
	}

	var selected []string
	if *experiment == "all" {
		selected = order
	} else {
		for _, name := range strings.Split(*experiment, ",") {
			name = strings.TrimSpace(strings.ToLower(name))
			if use, ok := retired[name]; ok {
				fmt.Fprintf(os.Stderr, "curpbench: -experiment %s was removed: bench/ is the only real-stack harness; use %s\n", name, use)
				os.Exit(2)
			}
			if _, ok := runners[name]; !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (known: %s, all)\n", name, strings.Join(order, ", "))
				os.Exit(2)
			}
			selected = append(selected, name)
		}
	}
	for i, name := range selected {
		if i > 0 {
			fmt.Fprintln(w)
		}
		runners[name]()
	}
}
