package driver_test

import (
	"errors"
	"testing"

	"marion/internal/driver"
	"marion/internal/gentest"
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

// storeC stores a char in memory and shortC a short; toyp has no
// sub-word store (ROADMAP 17, missing stores), so both run on the other
// targets.
const (
	storeC = "char g;\nint ma(int x) { return g = x; }\n" +
		"int mc(int x) { g = 100; return g += x; }\nint mi(int x) { g = x; return ++g; }\n"
	shortC = "short h;\nint ms(int x) { h = 30000; return h += x; }\n"
)

// TestRegressStoreUnits: the value of an assignment, a compound
// assignment or a pre-increment of a sub-word in memory is the narrowed
// value, as the store keeps it.
func TestRegressStoreUnits(t *testing.T) {
	want := []regressCall{
		{"ma", []sim.Value{sim.Int(300)}, int64(44)},
		{"mc", []sim.Value{sim.Int(100)}, int64(-56)},
		{"mi", []sim.Value{sim.Int(127)}, int64(-128)},
	}
	for _, target := range targets.Names() {
		if target != "toyp" {
			runRegress(t, target, "store.c", storeC, want)
			runRegress(t, target, "short.c", shortC, []regressCall{{"ms", []sim.Value{sim.Int(10000)}, int64(-25536)}})
		}
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
// register sets hold.
const floatC = "float fa(float a, float b) { return a * b; }\nint ok(int x) { return x; }\n"

// TestRegisterTypeRefused: a function with a register of a type the
// target cannot hold is refused once, before any phase runs, by a
// diagnostic naming the target and the type, not by a degradation
// ladder whose every rung fails in selection.
func TestRegisterTypeRefused(t *testing.T) {
	for _, target := range targets.Names() {
		m, err := targets.Load(target)
		if err != nil {
			t.Fatal(err)
		}
		c, err := driver.Compile(target, "c", "fa.c", floatC, driver.Config{Strategy: strategy.RASE})
		var diags *driver.Diagnostics
		if c != nil || !errors.As(err, &diags) {
			t.Fatalf("%s: compiled %v, error %v; want a refusal", target, c != nil, err)
		}
		all := diags.All()
		want := "fa: registers: target " + m.Name + " has no general register set for type float"
		if len(all) != 1 || all[0].Error() != want {
			t.Errorf("%s: diagnostics %v, want the one %q", target, all, want)
		}
	}
}
