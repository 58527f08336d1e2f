package verify_test

import (
	"fmt"
	"sort"
	"testing"

	"marion/internal/asm"
	"marion/internal/driver"
	"marion/internal/livermore"
	"marion/internal/mach"
	"marion/internal/strategy"
	"marion/internal/targets"
	"marion/internal/verify"
)

// physSet renders a set of physical registers for comparison.
func physSet(m *mach.Machine, set map[mach.PhysID]bool) string {
	var names []string
	for p := range set {
		names = append(names, m.PhysName(p))
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// TestWalkerAgreesWithOracle holds the two readers of "what does this
// instruction read and write" against each other: for every
// instruction of the final Livermore code on every target, the physical
// registers the asm walker yields (the transformation side's reading,
// %equiv aliases expanded) must be exactly the registers the verifier's
// independent instDefs/instUses name, with their aliases.
func TestWalkerAgreesWithOracle(t *testing.T) {
	for _, target := range targets.Names() {
		m, err := targets.Load(target)
		if err != nil {
			t.Fatal(err)
		}
		for _, strat := range []strategy.Kind{strategy.Postpass, strategy.RASE} {
			mod, err := livermore.SuiteModule()
			if err != nil {
				t.Fatal(err)
			}
			c, err := driver.CompileModule(m, mod, driver.Config{Strategy: strat})
			if err != nil {
				t.Fatal(err)
			}
			check := func(where, side string, e asm.Effects, oracle []mach.PhysID) {
				walked := map[mach.PhysID]bool{}
				for e.Next() {
					if e.Key.IsPseudo(m) {
						t.Errorf("%s: %s walk yields pseudo t%d in final code", where, side, e.Key.Pseudo(m))
						continue
					}
					walked[e.Key.Phys()] = true
				}
				want := map[mach.PhysID]bool{}
				for _, p := range oracle {
					for _, al := range m.Aliases(p) {
						want[al] = true
					}
				}
				if got, want := physSet(m, walked), physSet(m, want); got != want {
					t.Errorf("%s: walker %s %s, oracle %s", where, side, got, want)
				}
			}
			for _, f := range c.Prog.Funcs {
				for _, b := range f.Blocks {
					for i, in := range b.Insts {
						where := fmt.Sprintf("%s/%s %s %s[%d] %q", target, strat, f.Name, b.Label(), i, in)
						check(where, "defs", in.RegDefs(m), verify.OracleDefs(in))
						check(where, "uses", in.RegUses(m), verify.OracleUses(in))
					}
				}
			}
		}
	}
}
