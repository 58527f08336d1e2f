// Command marionstats regenerates the paper's evaluation tables and
// figures (see EXPERIMENTS.md for the recorded outputs).
//
// Usage:
//
//	marionstats -table 1        # Maril description statistics
//	marionstats -table 2        # system source size
//	marionstats -table 3        # compile time and dilation
//	marionstats -table 4        # Livermore kernels, actual vs estimated
//	marionstats -speedup        # strategy comparison
//	marionstats -fig7           # i860 dual-operation schedule
//	marionstats -all
package main

import (
	"flag"
	"fmt"
	"os"

	"marion/internal/experiments"
	"marion/internal/strategy"
)

func main() {
	table := flag.Int("table", 0, "regenerate table N (1-4)")
	speedup := flag.Bool("speedup", false, "strategy speedup comparison")
	fig7 := flag.Bool("fig7", false, "Figure 7: i860 dual-operation schedule")
	all := flag.Bool("all", false, "everything")
	target := flag.String("target", "r2000", "target for tables 3/4 and speedups")
	loops := flag.Int("loops", 1, "kernel repetition count")
	workers := flag.Int("workers", 0, "parallel back end workers (0 = GOMAXPROCS)")
	flag.Parse()

	ran := false
	run := func(name string, f func() error) {
		ran = true
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "marionstats: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	if *all || *table == 1 {
		run("table 1", func() error {
			rows, err := experiments.Table1()
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatTable1(rows))
			return nil
		})
	}
	if *all || *table == 2 {
		run("table 2", func() error {
			rows, err := experiments.Table2(".")
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatTable2(rows))
			return nil
		})
	}
	if *all || *table == 3 {
		run("table 3", func() error {
			rows, err := experiments.Table3(
				[]string{"r2000", "i860"},
				[]strategy.Kind{strategy.Postpass, strategy.IPS, strategy.RASE},
				*workers)
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatTable3(rows))
			return nil
		})
	}
	if *all || *table == 4 {
		run("table 4", func() error {
			rows, err := experiments.Table4(*target, *loops)
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatTable4(rows))
			return nil
		})
	}
	if *all || *speedup {
		run("speedup", func() error {
			rows, err := experiments.Speedups(*target, *loops)
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatSpeedups(rows, *target))
			return nil
		})
	}
	if *all || *fig7 {
		run("figure 7", func() error {
			out, err := experiments.Figure7()
			if err != nil {
				return err
			}
			fmt.Print(out)
			return nil
		})
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}
