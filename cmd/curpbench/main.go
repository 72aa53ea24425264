// Command curpbench regenerates the evaluation artifacts of the CURP paper
// (Park & Ousterhout, NSDI 2019): every figure and table of §5 and the
// appendices, using the discrete-event simulator in internal/sim (README.md
// describes it; bench/README.md has the real stack's measured baseline).
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

func main() {
	experiment := flag.String("experiment", "all",
		"comma-separated list: table1,fig5,fig6,fig7,fig8,fig9,fig10,fig11,fig12,fig13,resources,sharded,pipeline,txn,failover,coordfail,all")
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
		"sharded":   func() { Sharded(w, *ops) },
		"pipeline":  func() { Pipeline(w, *ops) },
		"txn":       func() { Txn(w, *ops) },
		"failover":  func() { Failover(w, *ops) },
		"coordfail": func() { Coordfail(w, *ops) },
	}
	order := []string{"table1", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "resources", "sharded", "pipeline", "txn", "failover", "coordfail"}

	var selected []string
	if *experiment == "all" {
		selected = order
	} else {
		for _, name := range strings.Split(*experiment, ",") {
			name = strings.TrimSpace(strings.ToLower(name))
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
