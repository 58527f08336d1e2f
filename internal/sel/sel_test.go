package sel

import (
	"strings"
	"testing"

	"marion/internal/asm"
	"marion/internal/cc"
	"marion/internal/ilgen"
	"marion/internal/ir"
	"marion/internal/mach"
	"marion/internal/targets"
	"marion/internal/xform"
)

// compileOn runs source through the front end, glue and selection on the
// named target, returning the asm for the single function fname.
func compileOn(t *testing.T, target, src, fname string) (*mach.Machine, *asm.Func) {
	t.Helper()
	m, err := targets.Load(target)
	if err != nil {
		t.Fatalf("load %s: %v", target, err)
	}
	f, err := cc.Compile("t.c", src)
	if err != nil {
		t.Fatalf("cc: %v", err)
	}
	mod, err := ilgen.Lower(f)
	if err != nil {
		t.Fatalf("ilgen: %v", err)
	}
	fn := mod.Lookup(fname)
	if fn == nil {
		t.Fatalf("function %s missing", fname)
	}
	xform.Apply(m, fn)
	af, err := Select(m, fn)
	if err != nil {
		t.Fatalf("select: %v", err)
	}
	return m, af
}

func mnemonics(af *asm.Func) []string {
	var out []string
	for _, b := range af.Blocks {
		for _, in := range b.Insts {
			out = append(out, in.Tmpl.Mnemonic)
		}
	}
	return out
}

func asmText(af *asm.Func) string {
	var sb strings.Builder
	for _, b := range af.Blocks {
		sb.WriteString(b.Label() + ":\n")
		for _, in := range b.Insts {
			sb.WriteString("  " + in.String() + "\n")
		}
	}
	return sb.String()
}

func has(list []string, m string) bool {
	for _, x := range list {
		if x == m {
			return true
		}
	}
	return false
}

func TestSelectAdd(t *testing.T) {
	_, af := compileOn(t, "toyp", `int f(int a, int b) { return a + b; }`, "f")
	ms := mnemonics(af)
	if !has(ms, "add") || !has(ms, "ret") {
		t.Errorf("mnemonics = %v\n%s", ms, asmText(af))
	}
}

func TestSelectImmediateForm(t *testing.T) {
	_, af := compileOn(t, "toyp", `int f(int a) { return a + 5; }`, "f")
	ms := mnemonics(af)
	if !has(ms, "addi") {
		t.Errorf("expected addi, got %v", ms)
	}
	if has(ms, "add") {
		t.Errorf("ordered matching should prefer addi: %v", ms)
	}
}

func TestSelectBigConstantGlue(t *testing.T) {
	_, af := compileOn(t, "toyp", `int f(int a) { return a + 100000; }`, "f")
	ms := mnemonics(af)
	// 100000 does not fit const16: the glue splits it into lui+oril.
	if !has(ms, "lui") || !has(ms, "oril") {
		t.Errorf("big constant not synthesized: %v\n%s", ms, asmText(af))
	}
}

func TestSelectLoadStore(t *testing.T) {
	_, af := compileOn(t, "toyp", `
int g;
double d[4];
void f(int i) { g = i; d[0] = d[1]; }`, "f")
	ms := mnemonics(af)
	if !has(ms, "st") || !has(ms, "la") {
		t.Errorf("int store of global: %v\n%s", ms, asmText(af))
	}
	if !has(ms, "ld.d") || !has(ms, "st.d") {
		t.Errorf("double load/store: %v", ms)
	}
}

func TestSelectHardZeroRegister(t *testing.T) {
	m, af := compileOn(t, "toyp", `int f(int a) { return a + 0; }`, "f")
	// a + 0: addi a, 0 — or the zero binds r0 somewhere. Either way no li 0.
	for _, b := range af.Blocks {
		for _, in := range b.Insts {
			if in.Tmpl.Mnemonic == "li" && in.Args[1].Kind == asm.OpImm && in.Args[1].Imm == 0 {
				t.Errorf("materialized zero instead of using %s: %s", m.PhysName(m.RegSet("r").Phys(0)), asmText(af))
			}
		}
	}
}

func TestSelectCompareBranchGlue(t *testing.T) {
	_, af := compileOn(t, "toyp", `int f(int a, int b) { if (a < b) return 1; return 0; }`, "f")
	ms := mnemonics(af)
	// Glue expands a<b into (a::b) < 0: cmp + bge0 (inverted fallthrough).
	if !has(ms, "cmp") {
		t.Errorf("expected generic compare: %v\n%s", ms, asmText(af))
	}
	if !has(ms, "bge0") && !has(ms, "blt0") {
		t.Errorf("expected compare branch: %v", ms)
	}
}

func TestSelectBranchZeroDirect(t *testing.T) {
	_, af := compileOn(t, "toyp", `int f(int a) { if (a) return 1; return 0; }`, "f")
	ms := mnemonics(af)
	// "if (a)" must use beq0/bne0 directly, with no cmp against zero
	// (the %def zero guard suppresses the glue rule).
	if has(ms, "cmp") || has(ms, "cmpi") {
		t.Errorf("redundant compare for test against zero: %v\n%s", ms, asmText(af))
	}
	if !has(ms, "beq0") && !has(ms, "bne0") {
		t.Errorf("no zero branch: %v", ms)
	}
}

func TestSelectFloatCompare(t *testing.T) {
	_, af := compileOn(t, "toyp", `int f(double a, double b) { if (a < b) return 1; return 0; }`, "f")
	ms := mnemonics(af)
	if !has(ms, "fcmp") {
		t.Errorf("expected fcmp: %v\n%s", ms, asmText(af))
	}
}

func TestSelectFaddDouble(t *testing.T) {
	_, af := compileOn(t, "toyp", `double f(double a, double b) { return a + b; }`, "f")
	ms := mnemonics(af)
	if !has(ms, "fadd.d") {
		t.Errorf("expected fadd.d: %v", ms)
	}
}

func TestSelectSeqDoubleMove(t *testing.T) {
	// A plain double register copy goes through the movd %seq: two single
	// moves on the overlapping halves (the paper's *movd).
	_, af := compileOn(t, "toyp", `double f(double a) { double b = a; return b + b; }`, "f")
	found := 0
	for _, b := range af.Blocks {
		for _, in := range b.Insts {
			if in.Tmpl.Mnemonic == "add.m" {
				found++
				for _, a := range in.Args {
					if a.Kind == asm.OpPseudoHalf {
						return // halves present: the %seq expanded correctly
					}
				}
			}
		}
	}
	t.Errorf("movd %%seq not expanded into half moves (found %d add.m):\n%s", found, asmText(af))
}

func TestSelectCall(t *testing.T) {
	m, af := compileOn(t, "toyp", `
int g(int x);
int f(int a) { return g(a) + 1; }`, "f")
	var call *asm.Inst
	for _, b := range af.Blocks {
		for _, in := range b.Insts {
			if in.Tmpl.IsCall {
				call = in
			}
		}
	}
	if call == nil {
		t.Fatalf("no call:\n%s", asmText(af))
	}
	if len(call.ImpDefs()) == 0 || len(call.ImpUses()) != 1 {
		t.Errorf("call implicit effects: uses=%v defs=%v", call.ImpUses(), call.ImpDefs())
	}
	r := m.RegSet("r")
	if call.ImpUses()[0] != r.Phys(2) {
		t.Errorf("first int arg should be r2, got %v", call.ImpUses()[0])
	}
	if !af.UsesCalls {
		t.Error("UsesCalls not set")
	}
}

func TestSelectCSEMultiParent(t *testing.T) {
	// (a*b) used twice in one expression: must be computed once.
	_, af := compileOn(t, "toyp", `int f(int a, int b) { return (a*b) + (a*b); }`, "f")
	muls := 0
	for _, m := range mnemonics(af) {
		if m == "mul" {
			muls++
		}
	}
	if muls != 1 {
		t.Errorf("common subexpression computed %d times:\n%s", muls, asmText(af))
	}
}

func TestSelectFrameLocal(t *testing.T) {
	m, af := compileOn(t, "toyp", `
void g(int *p);
int f() { int v; g(&v); return v; }`, "f")
	// v lives at fp-8; the load must be fp-relative.
	fp := m.Cwvm.FP.Phys()
	found := false
	for _, b := range af.Blocks {
		for _, in := range b.Insts {
			if in.Tmpl.Mnemonic == "ld" {
				if in.Args[1].Kind == asm.OpPhys && in.Args[1].Phys == fp && in.Args[2].Imm == -8 {
					found = true
				}
			}
		}
	}
	if !found {
		t.Errorf("no fp-relative load of v:\n%s", asmText(af))
	}
}

func TestSelectErrorMessage(t *testing.T) {
	// A mini machine with no float support must report a clean error.
	m, err := targets.Load("toyp")
	if err != nil {
		t.Fatal(err)
	}
	_ = m
	f, err := cc.Compile("t.c", `float f(float a) { return a; }`)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := ilgen.Lower(f)
	if err != nil {
		t.Fatal(err)
	}
	fn := mod.Lookup("f")
	xform.Apply(m, fn)
	_, err = Select(m, fn)
	if err == nil {
		t.Fatal("expected selection error for float on TOYP")
	}
	if !strings.Contains(err.Error(), "float") && !strings.Contains(err.Error(), "no ") {
		t.Errorf("unhelpful error: %v", err)
	}
}

func TestBuildHelpers(t *testing.T) {
	m, err := targets.Load("toyp")
	if err != nil {
		t.Fatal(err)
	}
	af := &asm.Func{Name: "x", IR: ir.NewFunc("x", ir.Void)}
	r := m.RegSet("r")
	d := m.RegSet("d")

	ld, err := BuildLoad(m, af, asm.Phys(r.Phys(2)), m.Cwvm.SP.Phys(), 16, ir.I32)
	if err != nil || ld.Tmpl.Mnemonic != "ld" {
		t.Fatalf("BuildLoad: %v %v", ld, err)
	}
	st, err := BuildStore(m, af, asm.Phys(d.Phys(1)), m.Cwvm.FP.Phys(), -8, ir.F64)
	if err != nil || st.Tmpl.Mnemonic != "st.d" {
		t.Fatalf("BuildStore: %v %v", st, err)
	}
	ai, err := BuildAddImm(m, m.Cwvm.SP.Phys(), m.Cwvm.SP.Phys(), -64)
	if err != nil || ai.Tmpl.Mnemonic != "addi" {
		t.Fatalf("BuildAddImm: %v %v", ai, err)
	}
	mv, err := BuildMove(m, af, asm.Phys(r.Phys(3)), asm.Phys(r.Phys(2)))
	if err != nil || len(mv) != 1 || mv[0].Tmpl.Mnemonic != "add.m" {
		t.Fatalf("BuildMove: %v %v", mv, err)
	}
	// Double move expands via the movd %seq into two half moves.
	mv, err = BuildMove(m, af, asm.Phys(d.Phys(1)), asm.Phys(d.Phys(2)))
	if err != nil || len(mv) != 2 {
		t.Fatalf("BuildMove double: %v %v", mv, err)
	}
	// Out-of-range offset must error.
	if _, err := BuildLoad(m, af, asm.Phys(r.Phys(2)), m.Cwvm.SP.Phys(), 1<<20, ir.I32); err == nil {
		t.Error("expected range error")
	}
}
