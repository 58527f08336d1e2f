package ilgen

import (
	"math"
	"strings"
	"testing"

	"marion/internal/cc"
	"marion/internal/ir"
)

func lower(t *testing.T, src string) *ir.Module {
	t.Helper()
	f, err := cc.Compile("test.c", src)
	if err != nil {
		t.Fatalf("cc: %v", err)
	}
	m, err := Lower(f)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return m
}

func dumpFunc(fn *ir.Func) string {
	var sb strings.Builder
	for _, b := range fn.Blocks {
		sb.WriteString(b.Name() + ":\n")
		for _, s := range b.Stmts {
			sb.WriteString("  " + s.String() + "\n")
		}
	}
	return sb.String()
}

func TestLowerSimpleAdd(t *testing.T) {
	m := lower(t, `int add(int a, int b) { return a + b; }`)
	fn := m.Lookup("add")
	if fn == nil {
		t.Fatal("function missing")
	}
	if len(fn.ParamRegs) != 2 || fn.ParamRegs[0] == ir.NoReg {
		t.Fatalf("param regs = %v", fn.ParamRegs)
	}
	entry := fn.Blocks[0]
	last := entry.Stmts[len(entry.Stmts)-1]
	if last.Op != ir.Ret || len(last.Kids) != 1 || last.Kids[0].Op != ir.Add {
		t.Errorf("unexpected entry block:\n%s", dumpFunc(fn))
	}
}

func TestLowerGlobalAndLoadStore(t *testing.T) {
	m := lower(t, `
double x[10];
int n;
void set(int i, double v) { x[i] = v; n = i; }
`)
	if len(m.Globals) != 2 {
		t.Fatalf("globals = %d", len(m.Globals))
	}
	if m.Globals[0].Size != 80 || !m.Globals[0].IsArray {
		t.Errorf("x sym = %+v", m.Globals[0])
	}
	fn := m.Lookup("set")
	d := dumpFunc(fn)
	if !strings.Contains(d, "m[") {
		t.Errorf("no store emitted:\n%s", d)
	}
	// x[i] address should be Addr(x) + (i << 3).
	st := fn.Blocks[0].Stmts[0]
	if st.Op != ir.Store {
		t.Fatalf("first stmt = %v", st)
	}
	addr := st.Kids[0]
	if addr.Op != ir.Add || !addr.Kids[1].IsConst() {
		t.Errorf("address not canonical (base + const): %v", addr)
	}
	inner := addr.Kids[0]
	if inner.Op != ir.Add || inner.Kids[1].Op != ir.Shl {
		t.Errorf("index not scaled by shift: %v", inner)
	}
}

func TestLowerControlFlow(t *testing.T) {
	m := lower(t, `
int f(int n) {
    int s = 0;
    int i;
    for (i = 0; i < n; i++) s += i;
    return s;
}
`)
	fn := m.Lookup("f")
	// entry, head, body, post, end (+ possibly return block).
	if len(fn.Blocks) < 5 {
		t.Fatalf("blocks = %d:\n%s", len(fn.Blocks), dumpFunc(fn))
	}
	// The loop head must end with a conditional branch (inverted to exit).
	var sawBranch bool
	for _, b := range fn.Blocks {
		for _, s := range b.Stmts {
			if s.Op == ir.Branch {
				sawBranch = true
				if s.Kids[0].Op != ir.Ge {
					t.Errorf("loop branch not inverted: %v", s.Kids[0].Op)
				}
			}
		}
	}
	if !sawBranch {
		t.Error("no branch emitted")
	}
}

func TestLowerAddressTaken(t *testing.T) {
	m := lower(t, `
void init(double *p) { *p = 1.0; }
double use() { double v; init(&v); return v; }
`)
	fn := m.Lookup("use")
	if fn.LocalFrame < 8 {
		t.Errorf("v should be frame-resident, frame=%d", fn.LocalFrame)
	}
	if len(fn.Locals) != 1 || fn.Locals[0].Offset >= 0 {
		t.Errorf("locals = %+v", fn.Locals)
	}
	d := dumpFunc(fn)
	if !strings.Contains(d, "call init") {
		t.Errorf("missing call:\n%s", d)
	}
}

func TestLowerFloatPool(t *testing.T) {
	m := lower(t, `double f() { return 3.5; }`)
	var pool *ir.Sym
	for _, g := range m.Globals {
		if strings.HasPrefix(g.Name, ".fc") {
			pool = g
		}
	}
	if pool == nil || len(pool.InitF) != 1 || pool.InitF[0] != 3.5 {
		t.Fatalf("float pool sym = %+v", pool)
	}
}

// TestLowerFloatPoolKeepsSignedZero: -0.0 and 0.0 compare equal but
// are different constants, so each gets its own pool entry and each
// function loads its own.
func TestLowerFloatPoolKeepsSignedZero(t *testing.T) {
	m := lower(t, `double a(double x) { return x * -0.0; }
double b(double x) { return x * 0.0; }`)
	for _, c := range []struct {
		fn  string
		neg bool
	}{{"a", true}, {"b", false}} {
		var pool *ir.Sym
		var find func(n *ir.Node)
		find = func(n *ir.Node) {
			if n.Op == ir.Addr && strings.HasPrefix(n.Sym.Name, ".fc") {
				pool = n.Sym
			}
			for _, k := range n.Kids {
				find(k)
			}
		}
		for _, b := range m.Lookup(c.fn).Blocks {
			for _, s := range b.Stmts {
				find(s)
			}
		}
		if pool == nil || len(pool.InitF) != 1 || pool.InitF[0] != 0 || math.Signbit(pool.InitF[0]) != c.neg {
			t.Errorf("%s loads its zero from %+v, want one of sign bit %v", c.fn, pool, c.neg)
		}
	}
}

func TestLowerLogicalValue(t *testing.T) {
	m := lower(t, `int f(int a, int b) { return a && b; }`)
	fn := m.Lookup("f")
	if len(fn.Blocks) < 4 {
		t.Errorf("expected control-flow lowering of &&:\n%s", dumpFunc(fn))
	}
}

func TestLowerTernary(t *testing.T) {
	m := lower(t, `int max(int a, int b) { return a > b ? a : b; }`)
	fn := m.Lookup("max")
	d := dumpFunc(fn)
	if !strings.Contains(d, "branch") && !strings.Contains(d, "if") {
		t.Errorf("ternary lowering:\n%s", d)
	}
	// The temporary must be a global pseudo-register (live across blocks).
	found := false
	for _, ri := range fn.Regs {
		if ri.Global {
			found = true
		}
	}
	if !found {
		t.Error("expected a global pseudo-register for the ?: temporary")
	}
}

func TestLowerPostIncrement(t *testing.T) {
	m := lower(t, `
int g;
int f(int i) { g = i++; return i; }
`)
	fn := m.Lookup("f")
	d := dumpFunc(fn)
	// The store to g must use the OLD value: a temp captured before the
	// increment.
	entry := fn.Blocks[0]
	if len(entry.Stmts) < 3 {
		t.Fatalf("stmts:\n%s", d)
	}
	if entry.Stmts[0].Op != ir.Asgn {
		t.Errorf("expected temp capture first:\n%s", d)
	}
}

func TestLowerConstFold(t *testing.T) {
	m := lower(t, `int f() { return 2 + 3 * 4; }`)
	fn := m.Lookup("f")
	ret := fn.Blocks[0].Stmts[0]
	if ret.Op != ir.Ret || ret.Kids[0].Op != ir.Const || ret.Kids[0].IVal != 14 {
		t.Errorf("not folded: %v", ret)
	}
}

func TestLowerPointerArith(t *testing.T) {
	m := lower(t, `double f(double *p, int i) { return *(p + i); }`)
	fn := m.Lookup("f")
	ret := fn.Blocks[0].Stmts[len(fn.Blocks[0].Stmts)-1]
	ld := ret.Kids[0]
	if ld.Op != ir.Load {
		t.Fatalf("ret kid = %v", ld)
	}
	// p + (i << 3)
	addr := ld.Kids[0]
	if addr.Op != ir.Add {
		t.Fatalf("addr = %v", addr)
	}
	inner := addr.Kids[0]
	if inner.Op != ir.Add || inner.Kids[1].Op != ir.Shl {
		t.Errorf("pointer arith not scaled: %v", inner)
	}
}

func TestLowerMultiDim(t *testing.T) {
	m := lower(t, `
double u[4][3];
double get(int i, int j) { return u[i][j]; }
`)
	fn := m.Lookup("get")
	ret := fn.Blocks[0].Stmts[len(fn.Blocks[0].Stmts)-1]
	if ret.Kids[0].Op != ir.Load {
		t.Fatalf("expected load, got %v", ret.Kids[0])
	}
}

func TestLowerBreakContinue(t *testing.T) {
	m := lower(t, `
int f(int n) {
    int s = 0, i;
    for (i = 0; i < n; i++) {
        if (i == 3) continue;
        if (i == 7) break;
        s += i;
    }
    return s;
}
`)
	fn := m.Lookup("f")
	if len(fn.Blocks) < 6 {
		t.Errorf("blocks = %d", len(fn.Blocks))
	}
}

func TestLowerWhileShape(t *testing.T) {
	m := lower(t, `
int f(int n) {
    while (n > 0) n--;
    return n;
}
`)
	fn := m.Lookup("f")
	// Find the head block: ends with Branch, has two successors, and one
	// successor (the body) jumps back.
	var head *ir.Block
	for _, b := range fn.Blocks {
		if len(b.Stmts) > 0 && b.Stmts[len(b.Stmts)-1].Op == ir.Branch && len(b.Preds) >= 2 {
			head = b
		}
	}
	if head == nil {
		t.Fatalf("no loop head found:\n%s", dumpFunc(fn))
	}
}
