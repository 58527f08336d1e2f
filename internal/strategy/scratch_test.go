package strategy_test

import (
	"fmt"
	"testing"

	"marion/internal/asm"
	"marion/internal/driver"
	"marion/internal/gentest"
	"marion/internal/ir"
	"marion/internal/livermore"
	"marion/internal/mach"
	"marion/internal/sched"
	"marion/internal/sel"
	"marion/internal/strategy"
	"marion/internal/targets"
	"marion/internal/xform"
)

// TestScratchReuseMatchesFresh: scheduling every block of a function, in
// every pass, on one scratch emits what scheduling each block on a
// scratch of its own emits — nothing a block, a pass or a function
// leaves in the scratch reaches the next. The reuse side is the shipped
// path, driver.CompileModule with four workers (each worker's scratch
// serves every function it compiles; `go test -race` runs this too);
// the fresh side applies the strategy
// function by function, handing every block a zero scratch. Livermore's
// functions are multi-block and ips and rase schedule each block twice
// or three times; the big-block fixture has the long i860 blocks whose
// protection pass and closure words the scratch carries over.
func TestScratchReuseMatchesFresh(t *testing.T) {
	var bigSrc string
	for _, u := range gentest.Golden() {
		if u.Name == gentest.BigBlock {
			bigSrc = u.Text
		}
	}
	// Lowering is repeated per use: the back end consumes its module.
	modules := func() []*ir.Module {
		suite, err := livermore.SuiteModule()
		if err != nil {
			t.Fatal(err)
		}
		big, err := driver.Frontend(gentest.BigBlock, bigSrc)
		if err != nil {
			t.Fatal(err)
		}
		return []*ir.Module{suite, big}
	}
	text := func(m *mach.Machine, af *asm.Func) string {
		p := asm.Program{Machine: m, Funcs: []*asm.Func{af}}
		return p.Print()
	}
	for _, target := range []string{"r2000", "m88000", "i860"} {
		m, err := targets.Load(target)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []strategy.Kind{strategy.Postpass, strategy.IPS, strategy.RASE} {
			reuse, fresh := modules(), modules()
			for mi, mod := range reuse {
				c, err := driver.CompileModule(m, mod, driver.Config{Strategy: kind, Workers: 4})
				if err != nil {
					t.Fatalf("%s/%s %s: %v", target, kind, mod.Name, err)
				}
				for fi, fn := range fresh[mi].Funcs {
					where := fmt.Sprintf("%s/%s %s:%s", target, kind, mod.Name, fn.Name)
					xform.Apply(m, fn)
					af, err := sel.Select(m, fn)
					if err != nil {
						t.Fatalf("%s: select: %v", where, err)
					}
					perBlock := func() *sched.Scratch { return new(sched.Scratch) }
					if _, err := strategy.ApplyOnScratch(m, af, kind, strategy.Options{}, perBlock); err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					if got, want := text(m, c.Prog.Funcs[fi]), text(m, af); got != want {
						t.Errorf("%s: one scratch per function emits\n%s\na scratch per block\n%s", where, got, want)
					}
				}
			}
		}
	}
}
