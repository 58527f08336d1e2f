// Command marilc is the code generator generator front: it checks a
// Maril machine description and reports its derived tables, the role the
// paper's CGG plays (minus emitting C source — the tables are built in
// memory).
//
// Usage:
//
//	marilc r2000              # check a shipped description
//	marilc -dump i860         # also dump the instruction templates
//	marilc -file my.maril     # check a description file
package main

import (
	"flag"
	"fmt"
	"os"

	"marion/internal/mach"
	"marion/internal/maril"
	"marion/internal/targets"
)

func main() {
	dump := flag.Bool("dump", false, "dump instruction templates")
	file := flag.String("file", "", "check a description file instead of a shipped target")
	flag.Parse()

	var m *mach.Machine
	var info *maril.Info
	var err error
	switch {
	case *file != "":
		src, rerr := os.ReadFile(*file)
		if rerr != nil {
			fatal(rerr)
		}
		m, info, err = maril.ParseInfo(*file, string(src))
	case flag.NArg() == 1:
		m, info, err = targets.LoadInfo(flag.Arg(0))
	default:
		fmt.Fprintln(os.Stderr, "usage: marilc [-dump] [-file desc.maril | target]")
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}

	st := m.Stat()
	fmt.Printf("machine %s: OK\n", m.Name)
	fmt.Printf("  lines: declare %d, cwvm %d, instr %d (total %d)\n",
		info.DeclareLines, info.CwvmLines, info.InstrLines, info.TotalLines)
	fmt.Printf("  register sets %d (%d physical registers), resources %d\n",
		st.RegSets, m.NumPhys, st.Resources)
	fmt.Printf("  instructions %d, moves %d, seqs %d\n",
		st.Instrs, st.Moves, st.Seqs)
	fmt.Printf("  clocks %d, elements %d, classed ops %d, aux latencies %d, glue %d\n",
		st.Clocks, st.Elements, st.Classes, st.AuxLats, st.Glues)

	if *dump {
		for _, in := range m.Instrs {
			fmt.Printf("  %-10s %-40s lat=%d slots=%d cycles=%d",
				in.Mnemonic, in.Sem, in.Latency, in.Slots, len(in.ResVec))
			if in.AffectsClock >= 0 {
				fmt.Printf(" clock=%s", m.Clocks[in.AffectsClock])
			}
			if !in.Class.IsEmpty() {
				fmt.Printf(" classed")
			}
			fmt.Println()
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "marilc:", err)
	os.Exit(1)
}
