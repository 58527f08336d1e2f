package experiments

import (
	"strings"
	"testing"

	"marion/internal/strategy"
)

func TestTable1Shape(t *testing.T) {
	rows, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]Table1Row{}
	for _, r := range rows {
		byName[r.Target] = r
	}
	i860 := byName["I860"]
	r2k := byName["R2000"]
	m88k := byName["M88000"]
	// The paper's shape: only the i860 uses clocks, elements and classes;
	// its description is substantially larger.
	if i860.Clocks == 0 || r2k.Clocks != 0 || m88k.Clocks != 0 {
		t.Errorf("clock counts: i860=%d r2000=%d m88000=%d", i860.Clocks, r2k.Clocks, m88k.Clocks)
	}
	if i860.Classes == 0 || r2k.Classes != 0 {
		t.Errorf("class counts: i860=%d r2000=%d", i860.Classes, r2k.Classes)
	}
	if i860.Elements == 0 {
		t.Error("i860 has no long-word elements")
	}
	if i860.Funcs < r2k.Funcs {
		t.Errorf("i860 escapes (%d) should exceed r2000's (%d)", i860.Funcs, r2k.Funcs)
	}
	out := FormatTable1(rows)
	if !strings.Contains(out, "Clocks") {
		t.Error("format broken")
	}
}

func TestTable2(t *testing.T) {
	rows, err := Table2("../..")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 { // the paper's four phases and the three whole-tree totals
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[4].Lines <= rows[0].Lines+rows[1].Lines+rows[2].Lines+rows[3].Lines || rows[5].Lines < 1000 || rows[6].Lines < 1000 {
		t.Errorf("whole-tree totals %d / %d / %d do not contain the phases", rows[4].Lines, rows[5].Lines, rows[6].Lines)
	}
	for _, r := range rows {
		if r.Lines < 100 {
			t.Errorf("%s only %d lines", r.Phase, r.Lines)
		}
	}
	// TSI is the bulk of the system, like the paper.
	if rows[1].Lines < rows[0].Lines {
		t.Errorf("TSI (%d) should exceed CGG (%d)", rows[1].Lines, rows[0].Lines)
	}
}

func TestFigure7DualOperation(t *testing.T) {
	out, err := Figure7()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + out)
	// The schedule must contain packed words (the "|" marker): the i860
	// model overlaps multiplier and adder sub-operations.
	if !strings.Contains(out, "|") {
		t.Error("no packed long-instruction words in the Figure 7 schedule")
	}
	for _, mn := range []string{"m1", "a1", "a1m", "awb"} {
		if !strings.Contains(out, mn) {
			t.Errorf("sub-operation %s missing from schedule", mn)
		}
	}
}

func TestSpeedupShape(t *testing.T) {
	rows, err := Speedups("r2000", 1)
	if err != nil {
		t.Fatal(err)
	}
	by := map[strategy.Kind]SpeedupRow{}
	for _, r := range rows {
		by[r.Strategy] = r
	}
	// The paper's shape: every Marion strategy beats the local-only
	// baseline; IPS/RASE are at least as good as Postpass.
	if by[strategy.Postpass].VsNaive < 1.0 {
		t.Errorf("postpass slower than naive: %v", by[strategy.Postpass].VsNaive)
	}
	if by[strategy.IPS].VsPostpass < 0.97 {
		t.Errorf("IPS much slower than postpass: %v", by[strategy.IPS].VsPostpass)
	}
	if by[strategy.RASE].VsPostpass < 0.97 {
		t.Errorf("RASE much slower than postpass: %v", by[strategy.RASE].VsPostpass)
	}
	t.Log("\n" + FormatSpeedups(rows, "r2000"))
}

func TestTable4Shape(t *testing.T) {
	rows, err := Table4("r2000", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 14 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		for i := 0; i < 3; i++ {
			if r.Exec[i] <= 0 {
				t.Errorf("kernel %d exec[%d] = %v", r.Kernel, i, r.Exec[i])
			}
			// Actual includes cache misses the estimate ignores, so the
			// ratio sits at or above ~1 (paper: 0.99-1.15); allow slack
			// for cross-block effects.
			if r.Ratio[i] < 0.75 || r.Ratio[i] > 3.0 {
				t.Errorf("kernel %d ratio[%d] = %v out of plausible range", r.Kernel, i, r.Ratio[i])
			}
		}
	}
	t.Log("\n" + FormatTable4(rows))
}
