package driver_test

import (
	"fmt"
	"testing"

	"marion/internal/driver"
	"marion/internal/livermore"
	"marion/internal/strategy"
	"marion/internal/targets"
)

// TestIndexedSelectionIdentical compiles the same translation unit with
// the selection template index + memo caches on and with the linear
// brute-force reference path, for every registered target and strategy:
// the fast path must be unobservable in the emitted assembly.
func TestIndexedSelectionIdentical(t *testing.T) {
	for _, target := range targets.Names() {
		for _, kind := range allKinds {
			t.Run(fmt.Sprintf("%s/%s", target, kind), func(t *testing.T) {
				idx, err := driver.Compile(target, "par.c", parProg, driver.Config{Strategy: kind})
				if err != nil {
					t.Fatalf("indexed: %v", err)
				}
				lin, err := driver.Compile(target, "par.c", parProg, driver.Config{Strategy: kind, LinearSelect: true})
				if err != nil {
					t.Fatalf("linear: %v", err)
				}
				if a, b := idx.Prog.Print(), lin.Prog.Print(); a != b {
					t.Errorf("assembly differs between indexed and linear selection\n--- indexed ---\n%s\n--- linear ---\n%s", a, b)
				}
				if idx.Sel.Tried >= lin.Sel.Tried {
					t.Errorf("index tried %d templates, linear %d: index should prune", idx.Sel.Tried, lin.Sel.Tried)
				}
				if lin.Sel.MemoHits != 0 || lin.Sel.MemoMisses != 0 {
					t.Errorf("linear path used the memo caches: %+v", lin.Sel)
				}
			})
		}
	}
}

// TestIndexedSelectionIdenticalSuite repeats the byte-identity check on
// the full Livermore suite (28 functions) for one target, where the
// pattern mix is much richer than the unit program above.
func TestIndexedSelectionIdenticalSuite(t *testing.T) {
	compile := func(linear bool) string {
		mod, err := livermore.SuiteModule()
		if err != nil {
			t.Fatal(err)
		}
		m, err := targets.Load("r2000")
		if err != nil {
			t.Fatal(err)
		}
		c, err := driver.CompileModule(m, mod, driver.Config{
			Strategy: strategy.Postpass, LinearSelect: linear,
		})
		if err != nil {
			t.Fatalf("linear=%v: %v", linear, err)
		}
		return c.Prog.Print()
	}
	if idx, lin := compile(false), compile(true); idx != lin {
		t.Error("suite assembly differs between indexed and linear selection")
	}
}
