// Package experiments regenerates the paper's evaluation (§5): Table 1
// (description statistics), Table 2 (system source size), Table 3
// (generated code and dilation), Table 4 (Livermore execution time,
// actual vs estimated), the strategy comparison the paper reports from
// [BEH91b], Figure 7 (an i860 dual-operation schedule) and the
// ablations of §4's design choices. Every simulated number comes from
// one sweep (runSweep); EXPERIMENTS.md records each block, and
// TestExperimentsMatchesCode holds the record to the code.
package experiments

import (
	"fmt"
	"slices"
	"strings"

	"marion/internal/driver"
	"marion/internal/strategy"
	"marion/internal/targets"
)

// clockHz is the paper's DECstation 5000 clock (25 MHz), used to report
// simulated cycles as seconds like Table 4.
const clockHz = 25e6

// blocks are the evaluation's tables and figures in EXPERIMENTS.md's
// order. A block prints as "name: title" and then its body;
// EXPERIMENTS.md records the body under the heading that starts with
// the name. sweep marks the blocks that read the sweep.
type block struct {
	name, title string
	sweep       bool
	body        func(root string, s *sweep) (string, error)
}

var blocks = []block{
	{"Table 1", "Maril machine description statistics", false,
		func(string, *sweep) (string, error) { return table1() }},
	{"Table 2", "Marion system source size (Go lines, tests excluded)", false,
		func(root string, _ *sweep) (string, error) { return table2(root) }},
	{"Table 3", "generated code and dilation (Livermore suite, cache off)", true,
		func(_ string, s *sweep) (string, error) { return s.table3(), nil }},
	{"Table 4", "Livermore kernels on " + table4Target + ": simulated seconds @25MHz (cache on) and actual/estimated cycles (cache on, off)", true,
		func(_ string, s *sweep) (string, error) { return s.table4(), nil }},
	{"§5", "strategy comparison (Livermore suite, total simulated cycles, cache off)", true,
		func(_ string, s *sweep) (string, error) { return s.speedups(), nil }},
	{"Figure 7", "Marion i860 Postpass schedule of a=(x+b)+(a*z); return y+z", false,
		func(string, *sweep) (string, error) { return Figure7() }},
	{"Ablations", "one §4 design choice switched (Livermore suite, Postpass, cache off)", true,
		func(_ string, s *sweep) (string, error) { return s.ablations(), nil }},
}

// Report formats the named blocks ("Table 1" to "Table 4", "§5",
// "Figure 7", "Ablations"), or every block when no name is given, in
// EXPERIMENTS.md's order; root is the repository Table 2 counts. The
// sweep runs only when a block reads it.
func Report(root string, names ...string) ([]string, error) {
	var s *sweep
	var out []string
	for _, b := range blocks {
		if len(names) > 0 && !slices.Contains(names, b.name) {
			continue
		}
		if b.sweep && s == nil {
			var err error
			if s, err = runSweep(); err != nil {
				return nil, err
			}
		}
		body, err := b.body(root, s)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.name, err)
		}
		out = append(out, b.name+": "+b.title+"\n"+body)
	}
	if len(out) < len(names) {
		return nil, fmt.Errorf("no block for one of %q", names)
	}
	return out, nil
}

// ---------------------------------------------------------------------
// Table 1 — machine description statistics.

// table1 tabulates description statistics for the paper's three targets.
func table1() (string, error) {
	names := []string{"m88000", "r2000", "i860"}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-22s", "Section")
	rows := make([][10]int, len(names))
	for i, name := range names {
		m, info, err := targets.LoadInfo(name)
		if err != nil {
			return "", err
		}
		st := m.Stat()
		rows[i] = [10]int{info.DeclareLines, info.CwvmLines, info.InstrLines, st.Instrs + st.Moves,
			st.Clocks, st.Elements, st.Classes, st.AuxLats, st.Glues, st.Seqs}
		fmt.Fprintf(&sb, " %8s", m.Name)
	}
	sb.WriteString("\n")
	for j, label := range []string{"Declare lines", "Cwvm lines", "Instr lines", "Instructions",
		"Clocks", "Elements", "Classes", "Aux lats", "Glue xforms", "funcs (escapes/seqs)"} {
		fmt.Fprintf(&sb, "%-22s", label)
		for _, r := range rows {
			fmt.Fprintf(&sb, " %8d", r[j])
		}
		sb.WriteString("\n")
	}
	return sb.String(), nil
}

// ---------------------------------------------------------------------
// Table 3 — generated and executed instructions per strategy and target.
// Compile time is a host timing, not a result: BenchmarkTable3Compile
// measures it.

func (s *sweep) table3() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-8s %-9s %10s %12s %9s\n", "Target", "Strategy", "Generated", "Executed", "Dilation")
	for _, t := range []string{"r2000", "i860"} {
		for _, k := range paperKinds {
			c := cell{target: t, kind: k}
			gen := s.total(c, func(r run) int64 { return r.generated })
			exe := s.total(c, func(r run) int64 { return r.executed })
			fmt.Fprintf(&sb, "%-8s %-9s %10d %12d %9.2f\n", t, k, gen, exe, float64(exe)/float64(gen))
		}
	}
	return sb.String()
}

// ---------------------------------------------------------------------
// Table 4 — Livermore kernels: execution time and actual/estimated,
// where the estimate weights the scheduler's block costs by the
// simulator's block counts (the paper's method).

// table4Row is one kernel: simulated seconds with the cache on, then
// actual/estimated with the cache on and with it off, per paperKinds.
type table4Row struct {
	exec, on, off [3]float64
}

func (s *sweep) table4Rows() []table4Row {
	rows := make([]table4Row, len(s.runs[cell{target: table4Target, kind: strategy.Postpass}]))
	for si, k := range paperKinds {
		for i, r := range s.runs[cell{target: table4Target, kind: k}] {
			rows[i].exec[si] = float64(r.cached) / clockHz
			rows[i].on[si] = float64(r.cached) / float64(r.profiled)
			rows[i].off[si] = float64(r.cycles) / float64(r.profiled)
		}
	}
	return rows
}

// table4 renders Table 4 with arithmetic-mean times and harmonic-mean
// ratios, like the paper.
func (s *sweep) table4() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-4s %9s %9s %9s   %6s %6s %6s   %6s %6s %6s\n",
		"Ker", "Postp", "IPS", "RASE", "r.Pp", "r.IPS", "r.RASE", "off.Pp", "o.IPS", "o.RASE")
	line := func(label string, r table4Row) {
		fmt.Fprintf(&sb, "%-4s %9.5f %9.5f %9.5f   %6.2f %6.2f %6.2f   %6.3f %6.3f %6.3f\n", label,
			r.exec[0], r.exec[1], r.exec[2], r.on[0], r.on[1], r.on[2], r.off[0], r.off[1], r.off[2])
	}
	rows := s.table4Rows()
	var mean table4Row
	for i, r := range rows {
		line(fmt.Sprint(i+1), r)
		for j := range 3 {
			mean.exec[j] += r.exec[j] / float64(len(rows))
			mean.on[j] += 1 / r.on[j]
			mean.off[j] += 1 / r.off[j]
		}
	}
	for j := range 3 {
		mean.on[j] = float64(len(rows)) / mean.on[j]
		mean.off[j] = float64(len(rows)) / mean.off[j]
	}
	line("Mean", mean)
	return sb.String()
}

// ---------------------------------------------------------------------
// §5 — strategy comparison: total cycles per target and strategy,
// against Naive and Postpass on the same target.

func (s *sweep) speedups() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-8s %-9s %12s %9s %11s\n", "Target", "Strategy", "Cycles", "vs naive", "vs postpass")
	for _, t := range speedTargets {
		cycles := func(k strategy.Kind) int64 {
			return s.total(cell{target: t, kind: k}, func(r run) int64 { return r.cycles })
		}
		naive, postpass := float64(cycles(strategy.Naive)), float64(cycles(strategy.Postpass))
		for _, k := range speedKinds {
			n := cycles(k)
			fmt.Fprintf(&sb, "%-8s %-9s %12d %8.2fx %10.2fx\n", t, k, n, naive/float64(n), postpass/float64(n))
		}
	}
	return sb.String()
}

// ---------------------------------------------------------------------
// Ablations — each §4 design choice switched on its own.

func (s *sweep) ablations() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-20s %-7s %-10s %-17s %8s %-19s %8s %6s\n",
		"Choice", "Target", "Measure", "Default", "", "Switched", "", "Ratio")
	for _, a := range ablations {
		measure, what := func(r run) int64 { return r.cycles }, "simulated"
		if a.opts.NoAnti {
			measure, what = func(r run) int64 { return r.estimated }, "estimated"
		}
		base := s.total(cell{target: a.target, kind: strategy.Postpass}, measure)
		arm := s.total(cell{target: a.target, kind: a.kind, opts: a.opts}, measure)
		fmt.Fprintf(&sb, "%-20s %-7s %-10s %-17s %8d %-19s %8d %5.3fx\n",
			a.name, a.target, what, a.base, base, a.arm, arm, float64(arm)/float64(base))
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

// Figure7 compiles the fragment for the i860 under Postpass and renders
// the schedule of its blocks, showing packed long-instruction words.
func Figure7() (string, error) {
	c, err := driver.Compile("i860", "c", "fig7.c", Figure7Source, driver.Config{
		Strategy: strategy.Postpass,
	})
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("Cycle  instruction (| = packed into the same long word)\n")
	words, instrs := 0, 0
	for _, b := range c.Prog.Lookup("frag").Blocks {
		last, lastWord := int32(-2), int32(-2)
		for _, in := range b.Insts {
			instrs++
			if in.Cycle < 0 || in.Cycle != lastWord {
				words++
			}
			lastWord = in.Cycle
			mark, cyc := " ", "     "
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
	fmt.Fprintf(&sb, "%d instructions in %d words\n", instrs, words)
	return sb.String(), nil
}
