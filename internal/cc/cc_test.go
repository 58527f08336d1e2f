package cc

import (
	"strings"
	"testing"
)

func mustCompile(t *testing.T, src string) *File {
	t.Helper()
	f, err := Compile("test.c", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return f
}

func TestParseGlobals(t *testing.T) {
	f := mustCompile(t, `
int n = 42;
double x[10];
double u[5][2];
int tab[3] = {1, 2, 3};
double w[2][2] = {{1.0, 2.0}, {3.0, 4.0}};
int *p;
`)
	if len(f.Globals) != 6 {
		t.Fatalf("globals = %d", len(f.Globals))
	}
	n := f.Globals[0]
	if n.Type.Kind != kInt || len(n.InitI) != 1 || n.InitI[0] != 42 {
		t.Errorf("n = %+v", n)
	}
	u := f.Globals[2]
	if u.Type.Kind != KArray || u.Type.Len != 5 || u.Type.Elem.Len != 2 {
		t.Errorf("u type = %v", u.Type)
	}
	if u.Type.Size() != 5*2*8 {
		t.Errorf("u size = %d", u.Type.Size())
	}
	w := f.Globals[4]
	if len(w.InitF) != 4 || w.InitF[3] != 4.0 {
		t.Errorf("w init = %v", w.InitF)
	}
	p := f.Globals[5]
	if p.Type.Kind != KPtr || p.Type.Elem.Kind != kInt {
		t.Errorf("p type = %v", p.Type)
	}
}

func TestParseFunction(t *testing.T) {
	f := mustCompile(t, `
int add(int a, int b) { return a + b; }
double scale(double x) { return 2.0 * x; }
void nothing(void) { return; }
`)
	if len(f.Funcs) != 3 {
		t.Fatalf("funcs = %d", len(f.Funcs))
	}
	add := f.Funcs[0]
	if add.Obj.Name != "add" || len(add.Params) != 2 {
		t.Errorf("add = %+v", add.Obj)
	}
	if add.Obj.Type.Elem.Kind != kInt {
		t.Errorf("add return = %v", add.Obj.Type.Elem)
	}
}

func TestTypeCheckConversions(t *testing.T) {
	f := mustCompile(t, `
double g;
int main() {
    int i = 3;
    double d = i;      /* int -> double */
    g = d + i;         /* mixed add */
    i = (int) d;
    return i;
}
`)
	fn := f.Funcs[0]
	if len(fn.Locals) != 2 {
		t.Fatalf("locals = %d", len(fn.Locals))
	}
	// "double d = i" must carry an implicit cast.
	decl := fn.Body.List[1]
	if decl.Kind != SDecl || decl.DeclInit.Kind != ECast {
		t.Errorf("expected implicit cast in init, got %v", decl.DeclInit.Kind)
	}
	if decl.DeclInit.Type.Kind != kDouble {
		t.Errorf("cast type = %v", decl.DeclInit.Type)
	}
}

func TestArrayIndexTyping(t *testing.T) {
	f := mustCompile(t, `
double u[5][3];
double get(int i, int j) { return u[i][j]; }
`)
	ret := f.Funcs[0].Body.List[0]
	if ret.Kind != SReturn {
		t.Fatal("expected return")
	}
	if ret.E.Type.Kind != kDouble {
		t.Errorf("u[i][j] type = %v", ret.E.Type)
	}
	inner := ret.E.L
	if inner.Type.Kind != KArray || inner.Type.Len != 3 {
		t.Errorf("u[i] type = %v", inner.Type)
	}
}

func TestPointerArith(t *testing.T) {
	f := mustCompile(t, `
int sum(int *p, int n) {
    int s = 0;
    int i;
    for (i = 0; i < n; i++) s += *(p + i);
    return s;
}
`)
	if len(f.Funcs) != 1 {
		t.Fatal("func missing")
	}
}

func TestControlFlowParsing(t *testing.T) {
	mustCompile(t, `
int f(int n) {
    int s = 0, i = 0;
    while (i < n) { s += i; i++; }
    do { s--; } while (s > 100);
    for (i = 0; i < n; i++) {
        if (i % 2 == 0) continue;
        if (s > 1000) break;
        s += i;
    }
    return s > 0 ? s : -s;
}
`)
}

func TestLogicalOperators(t *testing.T) {
	mustCompile(t, `
int f(int a, int b) {
    if (a > 0 && b > 0) return 1;
    if (a < 0 || b < 0) return -1;
    return !a;
}
`)
}

func TestSemaErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"undeclared", `int f() { return x; }`, "undeclared"},
		{"redeclared", `int f() { int a; int a; return 0; }`, "redeclaration"},
		{"bad call arity", `int g(int a) { return a; } int f() { return g(1,2); }`, "expects 1"},
		{"call undeclared", `int f() { return g(); }`, "undeclared function"},
		{"assign to rvalue", `int f() { 3 = 4; return 0; }`, "non-lvalue"},
		{"break outside loop", `int f() { break; return 0; }`, "outside loop"},
		{"void value", `void g() {} int f() { return g(); }`, "bad return type"},
		{"deref int", `int f(int x) { return *x; }`, "non-pointer"},
		{"float mod", `double f(double x) { return x % 2.0; }`, "bad operands"},
		{"return in void", `void f() { return 3; }`, "returns a value"},
		{"returns array", `int g; int f[3]() { int a[3]; return a; }`, `t.c:1: function "f" cannot return int[3]`},
		{"prototype returns array", "int f[2]();\nint g() { return 0; }", `t.c:1: function "f" cannot return int[2]`},
		{"unsigned char", "int f(int x) {\n  unsigned char c[2];\n  c[0] = x;\n  return c[0];\n}",
			"t.c:2: unsigned char is not supported: the IL has no unsigned 8-bit type"},
		{"unsigned short", "unsigned short int g;\nint f() { return g; }",
			"t.c:1: unsigned short is not supported: the IL has no unsigned 16-bit type"},
		{"char unsigned", "int f(int x) {\n  char unsigned c[2];\n  c[0] = x;\n  return c[0];\n}",
			"t.c:2: unsigned char is not supported: the IL has no unsigned 8-bit type"},
		{"short unsigned", "int g;\nshort int unsigned h;\nint f() { return g; }",
			"t.c:2: unsigned short is not supported: the IL has no unsigned 16-bit type"},
		{"signed unsigned", "int f() { signed unsigned a; return 0; }", "t.c:1: bad type combination"},
		{"int int", "int f() { int int a; return 0; }", "t.c:1: bad type combination"},
		{"unsigned double", "unsigned double g;", "t.c:1: bad type combination"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Compile("t.c", c.src)
			if err == nil {
				t.Fatal("expected error")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q missing %q", err, c.want)
			}
		})
	}
}

// TestSpecifiersInAnyOrder: the type specifiers are a set, as in C, so
// every order of one set names one type, and signed sets only the sign.
func TestSpecifiersInAnyOrder(t *testing.T) {
	for _, c := range []struct{ spellings, want string }{
		{"char, signed char, char signed", "char"},
		{"short, short int, signed short, short signed, int short signed", "short"},
		{"int, signed, signed int, int signed, long, long int, signed long, long signed int", "int"},
		{"unsigned, unsigned int, int unsigned, unsigned long, long unsigned, long int unsigned", "unsigned"},
		{"double, long double, double long", "double"},
	} {
		for _, spelling := range strings.Split(c.spellings, ", ") {
			f, err := Compile("t.c", spelling+" g;")
			if err != nil {
				t.Errorf("%s: %v", spelling, err)
			} else if got := f.Globals[0].Type.String(); got != c.want {
				t.Errorf("%s is %s, want %s", spelling, got, c.want)
			}
		}
	}
}

func TestParseErrorsC(t *testing.T) {
	cases := []string{
		`int f( { return 0; }`,
		`int f() { return 0 }`,
		`int f() { if return; }`,
		`int 3x;`,
		`int a[0];`,
	}
	for _, src := range cases {
		if _, err := new(Scratch).parse("t.c", src); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

// An object larger than the 2^31-byte data space is refused where it
// is declared: laid out, it would overlap another (int a[2^30][8]
// wraps the simulator's 32-bit addresses onto g) or its size would
// overflow to 0 (int a[1 << 62]).
func TestObjectSizeBound(t *testing.T) {
	for _, src := range []string{
		"int a[1073741824][8];\nint g;",
		"int a[1 << 62];",
		"int f() { char a[2147483648]; return 0; }",
		"int f(int a[536870912]) { return 0; }",
	} {
		if _, err := new(Scratch).parse("t.c", src); err == nil || !strings.Contains(err.Error(), "t.c:1: a is larger than 2147483647 bytes") {
			t.Errorf("%q: err = %v", src, err)
		}
	}
	if _, err := new(Scratch).parse("t.c", "char a[2147483647];"); err != nil {
		t.Errorf("largest object refused: %v", err)
	}
}

func TestLexerLiterals(t *testing.T) {
	f := mustCompile(t, `
int a = 0x10;
int b = 'A';
double c = 1.5e3;
int d = 100000L;
`)
	if f.Globals[0].InitI[0] != 16 {
		t.Errorf("hex = %d", f.Globals[0].InitI[0])
	}
	if f.Globals[1].InitI[0] != 65 {
		t.Errorf("char = %d", f.Globals[1].InitI[0])
	}
	if f.Globals[2].InitF[0] != 1500 {
		t.Errorf("float = %v", f.Globals[2].InitF[0])
	}
	if f.Globals[3].InitI[0] != 100000 {
		t.Errorf("long = %d", f.Globals[3].InitI[0])
	}
}

func TestPrototypeThenDefinition(t *testing.T) {
	f := mustCompile(t, `
int twice(int x);
int use() { return twice(21); }
int twice(int x) { return x + x; }
`)
	if len(f.Funcs) != 2 {
		t.Fatalf("funcs = %d", len(f.Funcs))
	}
	if f.Funcs[0].Obj.Name != "use" {
		t.Errorf("first func = %s", f.Funcs[0].Obj.Name)
	}
}
