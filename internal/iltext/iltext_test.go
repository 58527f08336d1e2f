package iltext_test

import (
	"strings"
	"testing"

	"marion/internal/driver"
	"marion/internal/gentest"
	"marion/internal/iltext"
	"marion/internal/ir"
	"marion/internal/livermore"
	"marion/internal/mach"
	"marion/internal/sim"
	"marion/internal/strategy"
	"marion/internal/targets"
)

// roundTrip lowers C source, prints it as textual IL, parses it back,
// and requires (a) identical per-function fingerprints, (b) an
// idempotent re-print, and (c) byte-identical assembly from compiling
// the original and the reparsed module.
func roundTrip(t *testing.T, name, csrc, target string, strat strategy.Kind) {
	t.Helper()
	modA, err := driver.Frontend(name, csrc)
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	text := iltext.Print(modA)
	modB, err := iltext.Parse(modA.Name, text)
	if err != nil {
		t.Fatalf("parse printed IL: %v\n%s", err, text)
	}
	compareModules(t, modA, modB, text)

	if text2 := iltext.Print(modB); text2 != text {
		t.Errorf("print not idempotent:\n--- first\n%s\n--- second\n%s", text, text2)
	}

	cfg := driver.Config{Strategy: strat}
	m := mustMachine(t, target)
	progA, err := driver.CompileModule(m, modA, cfg)
	if err != nil {
		t.Fatalf("compile original: %v", err)
	}
	progB, err := driver.CompileModule(m, modB, cfg)
	if err != nil {
		t.Fatalf("compile reparsed: %v", err)
	}
	a, b := progA.Prog.Print(), progB.Prog.Print()
	if a != b {
		t.Errorf("%s on %s/%s: reparsed IL compiles differently\n--- original\n%s\n--- reparsed\n%s",
			name, target, strat, a, b)
	}
}

func compareModules(t *testing.T, modA, modB *ir.Module, text string) {
	t.Helper()
	if len(modA.Funcs) != len(modB.Funcs) {
		t.Fatalf("func count: %d != %d", len(modA.Funcs), len(modB.Funcs))
	}
	for i, fa := range modA.Funcs {
		fb := modB.Funcs[i]
		if fa.Name != fb.Name {
			t.Fatalf("func %d name: %q != %q", i, fa.Name, fb.Name)
		}
		if fa.Fingerprint() != fb.Fingerprint() {
			t.Errorf("func %s: fingerprint changed across round trip\n%s", fa.Name, text)
		}
	}
}

func mustMachine(t *testing.T, target string) *mach.Machine {
	t.Helper()
	m, err := targets.Load(target)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRoundTripExamples(t *testing.T) {
	for _, u := range gentest.Golden() {
		if u.Name == gentest.BigBlock || u.Name == gentest.Pressure {
			continue // the fixtures round-trip in driver's TestFrontEndSlabs
		}
		for _, target := range []string{"r2000", "i860"} {
			roundTrip(t, u.Name, u.Text, target, strategy.Postpass)
		}
		roundTrip(t, u.Name, u.Text, "m88000", strategy.RASE)
	}
}

// TestRoundTripLivermore pushes the whole 28-kernel suite module — the
// largest IL corpus in the tree, with cross-statement call sharing and
// deep loop nests — through the textual form.
func TestRoundTripLivermore(t *testing.T) {
	mod, err := livermore.SuiteModule()
	if err != nil {
		t.Fatal(err)
	}
	text := iltext.Print(mod)
	mod2, err := iltext.Parse(mod.Name, text)
	if err != nil {
		t.Fatalf("parse printed IL: %v", err)
	}
	compareModules(t, mod, mod2, "")

	m := mustMachine(t, "r2000")
	cfg := driver.Config{Strategy: strategy.Postpass}
	progA, err := driver.CompileModule(m, mod, cfg)
	if err != nil {
		t.Fatal(err)
	}
	progB, err := driver.CompileModule(m, mod2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if progA.Prog.Print() != progB.Prog.Print() {
		t.Error("livermore suite: reparsed IL compiles differently")
	}
}

// TestHandWrittenIL compiles IL written by hand (no C front end at all)
// and runs it on the simulator.
func TestHandWrittenIL(t *testing.T) {
	const src = `
# addmul(a, b) = a + b*3, by hand.
module hand.il
func addmul ret int
reg t0 int "a"
reg t1 int "b"
reg t2 int
param a int size 4 offset 0 reg t0
param b int size 4 offset 0 reg t1
frame 0
block L0 depth 0
(asgn int t2 (add int (reg int t0) (mul int (reg int t1) (const int 3))))
(ret int (reg int t2))
`
	c, err := driver.Compile("r2000", "il", "hand.il", src, driver.Config{Strategy: strategy.Postpass})
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.New(c.Prog, sim.Options{}).Run("addmul", sim.Int(2), sim.Int(5))
	if err != nil {
		t.Fatal(err)
	}
	if st.RetI != 17 {
		t.Errorf("addmul(2,5) = %d, want 17", st.RetI)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"unknown op", "func f ret int\nblock L0 depth 0\n(bogus int)\n", "unknown operator"},
		{"undeclared reg", "func f ret int\nblock L0 depth 0\n(ret int (reg int t0))\n", "not declared"},
		{"undeclared block", "func f ret void\nblock L0 depth 0\n(jump L9)\n", "never declared"},
		{"unknown global", "func f ret void\nblock L0 depth 0\n(ret void (load int (addr nosuch)))\n", "unknown global"},
		{"ambiguous global", "global x int size 4\nglobal x int size 4\nfunc f ret void\nblock L0 depth 0\n(store int (addr x) (const int 1))\n(ret)\n", "ambiguous global"},
		{"bad global index", "global x int size 4\nfunc f ret void\nblock L0 depth 0\n(store int (addr @7) (const int 1))\n(ret)\n", "bad global index"},
		{"fall off end", "func f ret int\nreg t0 int\nblock L0 depth 0\n(asgn int t0 (const int 1))\n", "falls off the end"},
		{"stmt outside block", "func f ret int\n(ret)\n", "statement outside block"},
		{"undefined ref", "func f ret int\nblock L0 depth 0\n(ret int $4)\n", "undefined node"},
		{"negative global size", "global a int size -16\nglobal b int size 4\n", "line 1: size -16 out of range"},
		{"huge global size", "global a int size 2147483648\n", "line 1: size 2147483648 out of range"},
		{"negative param size", "func f ret void\nparam p int size -4 offset 0\n", "line 2: size -4 out of range"},
		{"huge local size", "func f ret void\nlocal l int size 4294967296 offset 0\n", "line 2: size 4294967296 out of range"},
		{"bad arity", "func f ret int\nreg t0 int\nblock L0 depth 0\n(asgn int t0 (add int (const int 1)))\n(ret int (reg int t0))\n", "expects 2 operand"},
	}
	for _, c := range cases {
		if _, err := iltext.Parse(c.name, c.src); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want containing %q", c.name, err, c.want)
		}
	}
}

// TestSharingPreserved checks that a (def $N ...)/$N pair parses to one
// shared node, not two copies.
func TestSharingPreserved(t *testing.T) {
	const src = `
module share.il
func f ret int
reg t0 int
reg t1 int
frame 0
block L0 depth 0
(asgn int t0 (def $0 (call int g)))
(asgn int t1 (add int $0 (const int 1)))
(ret int (reg int t1))
`
	mod, err := iltext.Parse("share.il", src)
	if err != nil {
		t.Fatal(err)
	}
	b := mod.Funcs[0].Blocks[0]
	if b.Stmts[0].Kids[0] != b.Stmts[1].Kids[0].Kids[0] {
		t.Error("def/$ reference did not preserve node identity")
	}
}
