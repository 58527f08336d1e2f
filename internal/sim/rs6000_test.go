package sim

import (
	"testing"

	"marion/internal/driver"
	"marion/internal/strategy"
)

// TestRS6000MultiIssueExecution: the POWER-like model issues fixed-point
// and floating point work in the same cycle (per-functional-unit
// resources), with no branch delay slots.
func TestRS6000MultiIssue(t *testing.T) {
	src := `
double a[64], b[64];
void setup(int n) { int i; for (i = 0; i < n; i++) { a[i] = i; b[i] = i + 1; } }
double axpy(int n) {
    int i;
    double s = 0.0;
    for (i = 0; i < n; i++) s = s + 2.5 * a[i] + b[i];
    return s;
}`
	c, err := driver.Compile("rs6000", "t.c", src, driver.Config{Strategy: strategy.Postpass})
	if err != nil {
		t.Fatal(err)
	}
	s := New(c.Prog, Options{})
	if _, err := s.Run("setup", Int(64)); err != nil {
		t.Fatal(err)
	}
	st, err := s.Run("axpy", Int(64))
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for i := 0; i < 64; i++ {
		want = want + 2.5*float64(i) + float64(i+1)
	}
	if st.RetF != want {
		t.Fatalf("axpy = %v, want %v", st.RetF, want)
	}
	if st.Words >= st.Instrs {
		t.Errorf("no multi-issue: %d instrs in %d words", st.Instrs, st.Words)
	}
	// No delay-slot nops anywhere in the program.
	for _, f := range c.Prog.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Insts {
				if in.Tmpl == c.Machine.Nop {
					t.Errorf("unexpected nop on a no-delay-slot machine: %s", f.Name)
				}
			}
		}
	}
	t.Logf("rs6000: %d instrs in %d words, %d cycles (IPC %.2f)",
		st.Instrs, st.Words, st.Cycles, float64(st.Instrs)/float64(st.Cycles))
}
