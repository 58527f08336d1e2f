package experiments

import (
	"strings"
	"sync"
	"testing"

	"marion/internal/driver"
	"marion/internal/livermore"
	"marion/internal/mach"
	"marion/internal/strategy"
	"marion/internal/targets"
)

var (
	sweepOnce sync.Once
	sweepRes  *sweep
	sweepErr  error
)

// testSweep runs the evaluation sweep once per test binary: the pinned
// record and every shape test read the one result. None of them is
// parallel; the sweep fans out on its own.
func testSweep(t *testing.T) *sweep {
	t.Helper()
	sweepOnce.Do(func() { sweepRes, sweepErr = runSweep() })
	if sweepErr != nil {
		t.Fatal(sweepErr)
	}
	return sweepRes
}

// cycles is one cell's total simulated cycles, cache model off.
func (s *sweep) cycles(target string, k strategy.Kind) float64 {
	return float64(s.total(cell{target: target, kind: k}, func(r run) int64 { return r.cycles }))
}

// Table 1: only the i860 needs clocks, long-word elements and classes,
// and it requires the most escapes (sequences).
func TestTable1Shape(t *testing.T) {
	stats := map[string]mach.Stats{}
	for _, name := range []string{"m88000", "r2000", "i860"} {
		m, err := targets.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		stats[name] = m.Stat()
	}
	for name, st := range stats {
		if name == "i860" {
			if st.Clocks == 0 || st.Elements == 0 || st.Classes == 0 {
				t.Errorf("i860: clocks %d, elements %d, classes %d; want each > 0", st.Clocks, st.Elements, st.Classes)
			}
		} else if st.Clocks != 0 || st.Elements != 0 || st.Classes != 0 {
			t.Errorf("%s: clocks %d, elements %d, classes %d; want none", name, st.Clocks, st.Elements, st.Classes)
		}
		if st.Seqs > stats["i860"].Seqs {
			t.Errorf("%s: %d escapes, more than the i860's %d", name, st.Seqs, stats["i860"].Seqs)
		}
	}
}

func TestTable2(t *testing.T) {
	rows, err := table2Rows("../..")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 { // the paper's four phases and the three whole-tree totals
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[4].lines <= rows[0].lines+rows[1].lines+rows[2].lines+rows[3].lines || rows[5].lines < 1000 || rows[6].lines < 1000 {
		t.Errorf("whole-tree totals %d / %d / %d do not contain the phases", rows[4].lines, rows[5].lines, rows[6].lines)
	}
	for _, r := range rows {
		if r.lines < 100 {
			t.Errorf("%s only %d lines", r.phase, r.lines)
		}
	}
	// TSI is the bulk of the system, like the paper.
	if rows[1].lines < rows[0].lines {
		t.Errorf("TSI (%d) should exceed CGG (%d)", rows[1].lines, rows[0].lines)
	}
}

// §5: IPS clearly beats Postpass on the R2000, and every scheduler at
// least matches Naive. The weak shapes: RASE changes nothing where
// registers are plentiful, and IPS barely moves the i860. A change that
// improves either flips these on purpose.
func TestSpeedupShape(t *testing.T) {
	s := testSweep(t)
	if ips, pp := s.cycles("r2000", strategy.IPS), s.cycles("r2000", strategy.Postpass); ips > 0.92*pp {
		t.Errorf("r2000: IPS %.0f cycles is not 8%% under Postpass %.0f", ips, pp)
	}
	for _, target := range speedTargets {
		if pp, naive := s.cycles(target, strategy.Postpass), s.cycles(target, strategy.Naive); pp > naive {
			t.Errorf("%s: Postpass %.0f cycles, Naive %.0f", target, pp, naive)
		}
	}
	for _, target := range []string{"r2000", "m88000", "rs6000", "i860"} {
		if rase, pp := s.cycles(target, strategy.RASE), s.cycles(target, strategy.Postpass); rase != pp {
			t.Errorf("%s: RASE %.0f cycles, Postpass %.0f; EXPERIMENTS.md says they are equal", target, rase, pp)
		}
	}
	if ips, pp := s.cycles("i860", strategy.IPS), s.cycles("i860", strategy.Postpass); ips < 0.99*pp || ips > 1.01*pp {
		t.Errorf("i860: IPS %.0f cycles is not within 1%% of Postpass %.0f", ips, pp)
	}
}

// Table 4: cache misses put actual above the estimate; without the
// cache, scheduler and simulator share one timing model, and only stalls
// across block boundaries, which the per-block estimate cannot see,
// separate the two (at most 0.2 %, IPS on loop 9).
func TestTable4Shape(t *testing.T) {
	rows := testSweep(t).table4Rows()
	if len(rows) != len(livermore.Kernels) {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		for j, k := range paperKinds {
			if r.on[j] < 0.75 || r.on[j] > 3.0 || r.off[j] < 1.0 || r.off[j] > 1.0025 {
				t.Errorf("loop%d/%s: actual/estimated %.4f with the cache, %.4f without", livermore.Kernels[i].ID, k, r.on[j], r.off[j])
			}
		}
	}
}

// Figure 7: packed long words, and the multiplier and adder
// sub-operations with the T-register chain (a1m).
func TestFigure7DualOperation(t *testing.T) {
	out, err := Figure7()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "|") {
		t.Error("no packed long-instruction words in the Figure 7 schedule")
	}
	for _, mn := range []string{"m1", "a1", "a1m", "awb"} {
		if !strings.Contains(out, " "+mn+" ") && !strings.Contains(out, " "+mn+"\n") {
			t.Errorf("sub-operation %s missing from the Figure 7 schedule", mn)
		}
	}
}

// Marion clearly beats local-only allocation on every target, RASE holds
// its own on the register-starved r2000s, and every kernel the sweep ran
// was checked against its reference.
func TestLocalBaselineAndStarvedRegisters(t *testing.T) {
	s := testSweep(t)
	for _, target := range speedTargets {
		if pp, local := s.cycles(target, strategy.Postpass), s.cycles(target, strategy.Local); local < 1.1*pp {
			t.Errorf("%s: Postpass %.0f cycles is not 1.1x faster than Local %.0f", target, pp, local)
		}
	}
	if rase, pp := s.cycles("r2000s", strategy.RASE), s.cycles("r2000s", strategy.Postpass); rase > 1.05*pp || rase < 0.95*pp {
		t.Errorf("r2000s: RASE %.0f cycles is not within 5%% of Postpass %.0f", rase, pp)
	}
	// Each §5 cell checks its kernels once, Table 4's cells twice, and
	// so does each ablation arm with options but the unrun NoAnti one.
	cells := len(speedTargets)*len(speedKinds) + len(paperKinds)
	for _, a := range ablations {
		if a.opts != (strategy.Options{}) && !a.opts.NoAnti {
			cells++
		}
	}
	if want := cells * len(livermore.Kernels); s.checked != want {
		t.Errorf("%d checksums checked, want %d", s.checked, want)
	}
}

// A compile the degradation ladder rescued measures a fallback rung, so
// the sweep refuses it, naming the function, the rung and the reason.
func TestSweepRefusesDegradation(t *testing.T) {
	comp := &driver.Compiled{}
	if err := undegraded(comp); err != nil {
		t.Fatalf("clean compile refused: %v", err)
	}
	comp.Degradations = []driver.Degradation{{
		Func: "kern", From: strategy.IPS, To: strategy.Postpass, Attempts: 2,
		Phase: "strategy", Reason: "deadlock at cycle 1000095",
	}}
	err := undegraded(comp)
	if err == nil {
		t.Fatal("degraded compile accepted")
	}
	for _, want := range []string{"kern", "postpass", "deadlock at cycle 1000095"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("refusal %q does not name %q", err, want)
		}
	}
}
