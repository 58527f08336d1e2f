package driver_test

import (
	"errors"
	"testing"

	"marion/internal/driver"
	"marion/internal/gentest"
	"marion/internal/iltext"
	"marion/internal/sim"
	"marion/internal/strategy"
	"marion/internal/targets"
)

// regressCall is one call of a regression unit's function and the
// value C gives it.
type regressCall struct {
	fn   string
	args []sim.Value
	ret  any // int64, or float64 for a double result
}

// TestRegressUnits runs every function of gentest.Regress on every
// target under every strategy, each on a simulator of its own, and
// holds it to the value C gives it.
func TestRegressUnits(t *testing.T) {
	want := []regressCall{
		{"ptradd", nil, int64(3)},
		{"ptrsub", nil, int64(2)},
		{"ptraddn", []sim.Value{sim.Int(2)}, int64(3)},
		{"ptrwalk", nil, int64(4)},
		{"dptradd", nil, 2.0},
		{"ptrinit", nil, int64(6)},
		{"cmpdmul", nil, int64(10)},
		{"cmpdadd", nil, int64(9)},
		{"narrowchar", []sim.Value{sim.Int(300)}, int64(44)},
		{"narrowchar", []sim.Value{sim.Int(200)}, int64(-56)},
		{"narrowshort", []sim.Value{sim.Int(70000)}, int64(4464)},
		{"castchar", []sim.Value{sim.Int(300)}, int64(44)},
		{"castchar", []sim.Value{sim.Int(200)}, int64(-56)},
		{"castconst", nil, int64(44)},
		{"castneg", nil, int64(-56)},
		{"cmpdchar", []sim.Value{sim.Int(100)}, int64(-56)},
		{"postincchar", []sim.Value{sim.Int(127)}, int64(-128)},
		{"preincchar", []sim.Value{sim.Int(127)}, int64(-128)},
	}
	u := gentest.Fixture(gentest.Regress)
	for _, target := range targets.Names() {
		runRegress(t, target, u.Name, u.Text, want)
	}
}

// storeC stores a char in memory and shortC a short, subwordC reads
// each back from a word whose other bytes hold a neighbour, and signedC
// reads back a signed char and a short signed (the specifiers in either
// order).
const (
	storeC = "char g;\nint ma(int x) { return g = x; }\n" +
		"int mc(int x) { g = 100; return g += x; }\nint mi(int x) { g = x; return ++g; }\n"
	shortC   = "short h;\nint ms(int x) { h = 30000; return h += x; }\n"
	subwordC = "int rc() { char cb[4]; cb[1] = 1; cb[0] = 5; return cb[0]; }\n" +
		"int rs(int x) { short s[2]; s[1] = 7; s[0] = x; return s[0]; }\n"
	signedC = "int sc(int x) { signed char c[2]; c[0] = x; return c[0]; }\n" +
		"int ss(int x) { short signed s[2]; s[0] = x; return s[0]; }\n"
)

// TestRegressStoreUnits: the value of an assignment, a compound
// assignment or a pre-increment of a sub-word in memory is the narrowed
// value, as the store keeps it, and a sub-word read widened to int
// reads only its own bytes.
func TestRegressStoreUnits(t *testing.T) {
	want := []regressCall{
		{"ma", []sim.Value{sim.Int(300)}, int64(44)},
		{"mc", []sim.Value{sim.Int(100)}, int64(-56)},
		{"mi", []sim.Value{sim.Int(127)}, int64(-128)},
	}
	for _, target := range targets.Names() {
		runRegress(t, target, "store.c", storeC, want)
		runRegress(t, target, "short.c", shortC, []regressCall{{"ms", []sim.Value{sim.Int(10000)}, int64(-25536)}})
		runRegress(t, target, "subword.c", subwordC, []regressCall{
			{"rc", nil, int64(5)},
			{"rs", []sim.Value{sim.Int(3)}, int64(3)},
		})
		runRegress(t, target, "signed.c", signedC, []regressCall{
			{"sc", []sim.Value{sim.Int(200)}, int64(-56)},
			{"ss", []sim.Value{sim.Int(40000)}, int64(-25536)},
		})
	}
}

// runRegress compiles C unit src on target under every strategy, with
// the verifier on, and makes each call in want, which must call every
// function of the unit.
func runRegress(t *testing.T, target, name, src string, want []regressCall) {
	t.Helper()
	called := map[string]bool{}
	for _, w := range want {
		called[w.fn] = true
	}
	for _, kind := range allKinds {
		c, err := driver.Compile(target, "c", name, src, driver.Config{Strategy: kind, Verify: true})
		if err != nil {
			t.Fatalf("%s/%s: %v", target, kind, err)
		}
		if !c.Verify.Empty() {
			t.Fatalf("%s/%s: findings:\n%s", target, kind, c.Verify)
		}
		if len(c.Prog.Funcs) != len(called) {
			t.Fatalf("%s/%s: %d functions, want %d", target, kind, len(c.Prog.Funcs), len(called))
		}
		for _, f := range c.Prog.Funcs {
			if !called[f.Name] {
				t.Fatalf("function %s has no call", f.Name)
			}
		}
		for _, w := range want {
			st, err := sim.New(c.Prog, sim.Options{}).Run(w.fn, w.args...)
			if err != nil {
				t.Errorf("%s/%s %s: %v", target, kind, w.fn, err)
				continue
			}
			var got any = st.RetI
			if _, ok := w.ret.(float64); ok {
				got = st.RetF
			}
			if got != w.ret {
				t.Errorf("%s/%s %s%+v = %v, want %v", target, kind, w.fn, w.args, got, w.ret)
			}
		}
	}
}

// floatC declares float registers, which no shipped target's general
// register sets hold; floatStoreC has none, but stores and loads a
// float, which selection would have to hold in one.
const (
	floatC      = "float fa(float a, float b) { return a * b; }\nint ok(int x) { return x; }\n"
	floatStoreC = "float g;\ndouble fm(int x) { g = 2; return g; }\nint ok(int x) { return x; }\n"
)

// TestRegisterTypeRefused: a function with a register of a type the
// target cannot hold, or a load or store of one, is refused once, before
// any phase runs, by a diagnostic naming the target and the type, not
// by a degradation ladder whose every rung fails in selection. The IL
// the C front end prints is refused as the C is.
func TestRegisterTypeRefused(t *testing.T) {
	want := map[string][2]string{
		"toyp": {"fa: registers: target TOYP has no general register set for type float",
			"fm: registers: target TOYP has no general register set for type float"},
		"r2000": {"fa: registers: target R2000 has no general register set for type float",
			"fm: registers: target R2000 has no general register set for type float"},
		"r2000s": {"fa: registers: target R2000S has no general register set for type float",
			"fm: registers: target R2000S has no general register set for type float"},
		"m88000": {"fa: registers: target M88000 has no general register set for type float",
			"fm: registers: target M88000 has no general register set for type float"},
		"i860": {"fa: registers: target I860 has no general register set for type float",
			"fm: registers: target I860 has no general register set for type float"},
		"rs6000": {"fa: registers: target RS6000 has no general register set for type float",
			"fm: registers: target RS6000 has no general register set for type float"},
	}
	if len(want) != len(targets.Names()) {
		t.Fatalf("messages for %d targets, %d ship", len(want), len(targets.Names()))
	}
	for _, target := range targets.Names() {
		for i, src := range []string{floatC, floatStoreC} {
			mod, err := driver.Lower("c", "fa.c", src)
			if err != nil {
				t.Fatal(err)
			}
			for _, lang := range []string{"c", "il"} {
				text := src
				if lang == "il" {
					text = iltext.Print(mod)
				}
				c, err := driver.Compile(target, lang, "fa.c", text, driver.Config{Strategy: strategy.RASE})
				var diags *driver.Diagnostics
				if c != nil || !errors.As(err, &diags) {
					t.Fatalf("%s %s: compiled %v, error %v; want a refusal", target, lang, c != nil, err)
				}
				if all := diags.All(); len(all) != 1 || all[0].Error() != want[target][i] {
					t.Errorf("%s %s: diagnostics %v, want the one %q", target, lang, all, want[target][i])
				}
			}
		}
	}
}
