// Command marionstats regenerates the paper's evaluation tables and
// figures; EXPERIMENTS.md records every block it prints, and
// `go test ./internal/experiments -run TestExperimentsMatchesCode` holds
// the record to it. Every simulated number comes from one sweep over
// the Livermore suite, each kernel run once (loops = 1).
//
// Usage:
//
//	marionstats -table 1        # Maril description statistics
//	marionstats -table 2        # system source size
//	marionstats -table 3        # generated code and dilation
//	marionstats -table 4        # Livermore kernels, actual vs estimated
//	marionstats -speedup        # §5 strategy comparison, five targets
//	marionstats -fig7           # i860 dual-operation schedule
//	marionstats -all            # every block, the ablations included
package main

import (
	"flag"
	"fmt"
	"os"

	"marion/internal/experiments"
)

func main() {
	table := flag.Int("table", 0, "regenerate table N (1-4)")
	speedup := flag.Bool("speedup", false, "§5 strategy comparison")
	fig7 := flag.Bool("fig7", false, "Figure 7: i860 dual-operation schedule")
	all := flag.Bool("all", false, "every block")
	flag.Parse()

	var names []string
	if *table != 0 {
		names = append(names, fmt.Sprintf("Table %d", *table))
	}
	if *speedup {
		names = append(names, "§5")
	}
	if *fig7 {
		names = append(names, "Figure 7")
	}
	if *all {
		names = nil
	} else if len(names) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	blocks, err := experiments.Report(".", names...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "marionstats: %v\n", err)
		os.Exit(1)
	}
	for _, b := range blocks {
		fmt.Println(b)
	}
}
