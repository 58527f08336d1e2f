package driver_test

import (
	"testing"

	"marion/internal/driver"
	"marion/internal/gentest"
	"marion/internal/sim"
	"marion/internal/targets"
)

// TestRegressUnits runs every function of gentest.Regress on every
// target under every strategy, each on a simulator of its own, and
// holds it to the value C gives it.
func TestRegressUnits(t *testing.T) {
	want := []struct {
		fn   string
		args []sim.Value
		ret  any // int64, or float64 for a double result
	}{
		{"ptradd", nil, int64(3)},
		{"ptrsub", nil, int64(2)},
		{"ptraddn", []sim.Value{sim.Int(2)}, int64(3)},
		{"ptrwalk", nil, int64(4)},
		{"dptradd", nil, 2.0},
		{"ptrinit", nil, int64(6)},
		{"cmpdmul", nil, int64(10)},
		{"cmpdadd", nil, int64(9)},
	}
	u := gentest.Fixture(gentest.Regress)
	for _, target := range targets.Names() {
		for _, kind := range allKinds {
			c, err := driver.Compile(target, u.Lang, u.Name, u.Text, driver.Config{Strategy: kind, Verify: true})
			if err != nil {
				t.Fatalf("%s/%s: %v", target, kind, err)
			}
			if len(c.Prog.Funcs) != len(want) || !c.Verify.Empty() {
				t.Fatalf("%s/%s: %d functions, want %d; findings:\n%s", target, kind, len(c.Prog.Funcs), len(want), c.Verify)
			}
			for i, w := range want {
				if name := c.Prog.Funcs[i].Name; name != w.fn {
					t.Fatalf("function %d is %s, want %s", i, name, w.fn)
				}
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
					t.Errorf("%s/%s %s = %v, want %v", target, kind, w.fn, got, w.ret)
				}
			}
		}
	}
}
