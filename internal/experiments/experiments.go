// Package experiments regenerates the paper's evaluation tables and
// figures (§5): Table 1 (description statistics), Table 2 (system source
// size), Table 3 (compile time and dilation), Table 4 (Livermore
// execution time, actual vs estimated) and Figure 7 (an i860
// dual-operation schedule), plus the strategy speedup comparison the
// paper reports from [BEH91b].
package experiments

import (
	"fmt"
	"strings"
	"time"

	"marion/internal/driver"
	"marion/internal/livermore"
	"marion/internal/sim"
	"marion/internal/strategy"
	"marion/internal/targets"
)

// clockHz is the paper's DECstation 5000 clock (25 MHz), used to report
// simulated cycles as seconds like Table 4.
const clockHz = 25e6

// ---------------------------------------------------------------------
// Table 1 — machine description statistics.

// Table1Row mirrors the paper's Table 1 columns.
type Table1Row struct {
	Target       string
	DeclareLines int
	CwvmLines    int
	InstrLines   int
	Clocks       int
	Elements     int
	Classes      int
	AuxLats      int
	Glues        int
	Funcs        int // %seq expansions, the paper's escapes
	Instrs       int
}

// Table1 computes description statistics for the paper's three targets.
func Table1() ([]Table1Row, error) {
	var rows []Table1Row
	for _, name := range []string{"m88000", "r2000", "i860"} {
		m, info, err := targets.LoadInfo(name)
		if err != nil {
			return nil, err
		}
		st := m.Stat()
		rows = append(rows, Table1Row{
			Target:       m.Name,
			DeclareLines: info.DeclareLines,
			CwvmLines:    info.CwvmLines,
			InstrLines:   info.InstrLines,
			Clocks:       st.Clocks,
			Elements:     st.Elements,
			Classes:      st.Classes,
			AuxLats:      st.AuxLats,
			Glues:        st.Glues,
			Funcs:        st.Seqs,
			Instrs:       st.Instrs + st.Moves,
		})
	}
	return rows, nil
}

// FormatTable1 renders Table 1 as text.
func FormatTable1(rows []Table1Row) string {
	var sb strings.Builder
	sb.WriteString("Table 1: Maril machine description statistics\n")
	fmt.Fprintf(&sb, "%-22s %8s %8s %8s\n", "Section", rows[0].Target, rows[1].Target, rows[2].Target)
	line := func(name string, f func(Table1Row) int) {
		fmt.Fprintf(&sb, "%-22s %8d %8d %8d\n", name, f(rows[0]), f(rows[1]), f(rows[2]))
	}
	line("Declare lines", func(r Table1Row) int { return r.DeclareLines })
	line("Cwvm lines", func(r Table1Row) int { return r.CwvmLines })
	line("Instr lines", func(r Table1Row) int { return r.InstrLines })
	line("Instructions", func(r Table1Row) int { return r.Instrs })
	line("Clocks", func(r Table1Row) int { return r.Clocks })
	line("Elements", func(r Table1Row) int { return r.Elements })
	line("Classes", func(r Table1Row) int { return r.Classes })
	line("Aux lats", func(r Table1Row) int { return r.AuxLats })
	line("Glue xforms", func(r Table1Row) int { return r.Glues })
	line("funcs (escapes/seqs)", func(r Table1Row) int { return r.Funcs })
	return sb.String()
}

// ---------------------------------------------------------------------
// Table 3 — compile time per strategy and target, plus dilation.

// Table3Row is one back end configuration.
type Table3Row struct {
	Target    string
	Strategy  strategy.Kind
	Compile   time.Duration // compiling the whole kernel suite
	Generated int64         // instructions generated
	Executed  int64         // instructions executed (one verification run)
	Dilation  float64       // executed / generated
}

// compileSuite compiles the whole Livermore suite for one target and
// strategy. workers bounds the parallel per-function back end
// (<= 0 means GOMAXPROCS); the generated code is identical for any
// worker count.
func compileSuite(target string, kind strategy.Kind, workers int) ([]*driver.Compiled, error) {
	var out []*driver.Compiled
	for i := range livermore.Kernels {
		k := &livermore.Kernels[i]
		c, err := driver.Compile(target, "c", fmt.Sprintf("loop%d.c", k.ID), k.Source, driver.Config{
			Strategy: kind, Workers: workers,
		})
		if err != nil {
			return nil, fmt.Errorf("%s/%s loop%d: %w", target, kind, k.ID, err)
		}
		out = append(out, c)
	}
	return out, nil
}

// Table3 compiles the Livermore suite for each target and strategy,
// measuring compile time; dilation uses a single loops=1 execution.
// workers is passed to the parallel back end (0 = GOMAXPROCS).
func Table3(targetNames []string, strategies []strategy.Kind, workers int) ([]Table3Row, error) {
	var rows []Table3Row
	for _, tn := range targetNames {
		for _, st := range strategies {
			row := Table3Row{Target: tn, Strategy: st}
			start := time.Now()
			compiled, err := compileSuite(tn, st, workers)
			if err != nil {
				return nil, err
			}
			row.Compile = time.Since(start)
			for ci, c := range compiled {
				for _, f := range c.Prog.Funcs {
					for _, b := range f.Blocks {
						row.Generated += int64(len(b.Insts))
					}
				}
				_, stats, err := livermore.Run(c, 1, sim.CacheConfig{})
				if err != nil {
					return nil, fmt.Errorf("%s/%s loop%d: %w", tn, st, livermore.Kernels[ci].ID, err)
				}
				row.Executed += stats.Instrs
			}
			row.Dilation = float64(row.Executed) / float64(row.Generated)
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// FormatTable3 renders Table 3 as text.
func FormatTable3(rows []Table3Row) string {
	var sb strings.Builder
	sb.WriteString("Table 3: back end compile time and dilation (Livermore suite)\n")
	fmt.Fprintf(&sb, "%-8s %-9s %12s %10s %12s %9s\n",
		"Target", "Strategy", "Compile", "Generated", "Executed", "Dilation")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-8s %-9s %12s %10d %12d %9.2f\n",
			r.Target, r.Strategy, r.Compile.Round(time.Millisecond),
			r.Generated, r.Executed, r.Dilation)
	}
	return sb.String()
}

// ---------------------------------------------------------------------
// Table 4 — Livermore kernels: execution time and actual/estimated.

// Table4Row is one kernel's results across the three strategies.
type Table4Row struct {
	Kernel int
	// Exec is simulated execution time in seconds at the paper's 25 MHz
	// (cache model on), for Postpass, IPS, RASE.
	Exec [3]float64
	// Ratio is actual/estimated execution time per strategy, where the
	// estimate combines the scheduler's per-block costs with
	// simulator-profiled block frequencies (the paper's method).
	Ratio [3]float64
}

// table4Strategies orders the strategy columns.
var table4Strategies = []strategy.Kind{strategy.Postpass, strategy.IPS, strategy.RASE}

// Table4 reproduces Table 4 on the given target.
func Table4(target string, loops int) ([]Table4Row, error) {
	var rows []Table4Row
	for i := range livermore.Kernels {
		k := &livermore.Kernels[i]
		row := Table4Row{Kernel: k.ID}
		for si, st := range table4Strategies {
			c, err := livermore.Build(k, target, st)
			if err != nil {
				return nil, fmt.Errorf("loop%d/%s: %w", k.ID, st, err)
			}
			_, stats, err := livermore.Run(c, loops, sim.DefaultCache())
			if err != nil {
				return nil, fmt.Errorf("loop%d/%s: %w", k.ID, st, err)
			}
			// Estimated cycles: scheduler block costs weighted by the
			// profiled execution frequencies (cache effects unmodeled).
			var est int64
			for blk, n := range stats.BlockCounts {
				est += int64(blk.SchedCost) * n
			}
			actual := stats.Cycles
			row.Exec[si] = float64(actual) / clockHz
			if est > 0 {
				row.Ratio[si] = float64(actual) / float64(est)
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable4 renders Table 4 as text, with harmonic-mean ratios and
// arithmetic-mean times like the paper.
func FormatTable4(rows []Table4Row) string {
	var sb strings.Builder
	sb.WriteString("Table 4: Livermore kernels, simulated execution time (s @25MHz)\n")
	sb.WriteString("         and ratio of actual to estimated time\n")
	fmt.Fprintf(&sb, "%-4s %9s %9s %9s   %6s %6s %6s\n",
		"Ker", "Postp", "IPS", "RASE", "r.Pp", "r.IPS", "r.RASE")
	var sumT [3]float64
	var sumInv [3]float64
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-4d %9.5f %9.5f %9.5f   %6.2f %6.2f %6.2f\n",
			r.Kernel, r.Exec[0], r.Exec[1], r.Exec[2],
			r.Ratio[0], r.Ratio[1], r.Ratio[2])
		for i := 0; i < 3; i++ {
			sumT[i] += r.Exec[i]
			if r.Ratio[i] > 0 {
				sumInv[i] += 1 / r.Ratio[i]
			}
		}
	}
	n := float64(len(rows))
	fmt.Fprintf(&sb, "%-4s %9.5f %9.5f %9.5f   %6.2f %6.2f %6.2f\n",
		"Mean", sumT[0]/n, sumT[1]/n, sumT[2]/n,
		n/sumInv[0], n/sumInv[1], n/sumInv[2])
	return sb.String()
}

// ---------------------------------------------------------------------
// Strategy speedups (§5 text: RASE/IPS vs Postpass; Marion vs local-only).

// SpeedupRow aggregates total simulated cycles for one strategy.
type SpeedupRow struct {
	Strategy   strategy.Kind
	Cycles     int64
	VsNaive    float64 // naive cycles / this strategy's cycles
	VsPostpass float64
}

// Speedups runs the whole suite under all four strategies.
func Speedups(target string, loops int) ([]SpeedupRow, error) {
	kinds := []strategy.Kind{strategy.Naive, strategy.Postpass, strategy.IPS, strategy.RASE}
	cycles := map[strategy.Kind]int64{}
	for _, st := range kinds {
		for i := range livermore.Kernels {
			k := &livermore.Kernels[i]
			c, err := livermore.Build(k, target, st)
			if err != nil {
				return nil, err
			}
			_, stats, err := livermore.Run(c, loops, sim.CacheConfig{})
			if err != nil {
				return nil, err
			}
			cycles[st] += stats.Cycles
		}
	}
	var rows []SpeedupRow
	for _, st := range kinds {
		rows = append(rows, SpeedupRow{
			Strategy:   st,
			Cycles:     cycles[st],
			VsNaive:    float64(cycles[strategy.Naive]) / float64(cycles[st]),
			VsPostpass: float64(cycles[strategy.Postpass]) / float64(cycles[st]),
		})
	}
	return rows, nil
}

// FormatSpeedups renders the speedup comparison.
func FormatSpeedups(rows []SpeedupRow, target string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Strategy comparison on %s (Livermore suite, total cycles)\n", target)
	fmt.Fprintf(&sb, "%-9s %12s %9s %11s\n", "Strategy", "Cycles", "vs naive", "vs postpass")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-9s %12d %8.2fx %10.2fx\n", r.Strategy, r.Cycles, r.VsNaive, r.VsPostpass)
	}
	return sb.String()
}

// ---------------------------------------------------------------------
// Figure 7 — an i860 dual-operation schedule.

// Figure7Source is the paper's C fragment.
const Figure7Source = `
double a, b, x, y, z;
double frag() {
    a = (x + b) + (a * z);
    return y + z;
}`

// Figure7 compiles the fragment for the i860 and renders the schedule of
// the main block, showing packed long-instruction words.
func Figure7() (string, error) {
	c, err := driver.Compile("i860", "c", "fig7.c", Figure7Source, driver.Config{
		Strategy: strategy.Postpass,
	})
	if err != nil {
		return "", err
	}
	f := c.Prog.Lookup("frag")
	var sb strings.Builder
	sb.WriteString("Figure 7: Marion i860 Postpass schedule of a=(x+b)+(a*z); return y+z\n")
	sb.WriteString("Cycle  instruction (| = packed into the same long word)\n")
	for _, b := range f.Blocks {
		last := int32(-2)
		for _, in := range b.Insts {
			mark := " "
			cyc := "     "
			if in.Cycle >= 0 {
				if in.Cycle == last {
					mark = "|"
				} else {
					cyc = fmt.Sprintf("%5d", in.Cycle)
				}
				last = in.Cycle
			}
			fmt.Fprintf(&sb, "%s  %s %s\n", cyc, mark, in)
		}
	}
	// Pack statistics.
	words, instrs := 0, 0
	for _, b := range f.Blocks {
		lastC := int32(-2)
		for _, in := range b.Insts {
			instrs++
			if in.Cycle < 0 || in.Cycle != lastC {
				words++
			}
			lastC = in.Cycle
		}
	}
	fmt.Fprintf(&sb, "%d instructions in %d words\n", instrs, words)
	return sb.String(), nil
}
