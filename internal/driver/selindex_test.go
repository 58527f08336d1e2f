package driver_test

import (
	"fmt"
	"testing"

	"marion/internal/asm"
	"marion/internal/driver"
	"marion/internal/gentest"
	"marion/internal/targets"
)

// selIndexPins holds the assembly the linear brute-force selector — the
// paper's literal scan of every template, before the operator index and
// the memo caches — gave for the inputs below, recorded from it.
const selIndexPins = "testdata/selindex.sha256"

// pinLine renders a compiled program as a pin line, a part per function.
func pinLine(key string, p *asm.Program) (line string, byFn map[string]string) {
	l := gentest.NewLine(key)
	byFn = map[string]string{}
	for _, f := range p.Funcs {
		one := asm.Program{Machine: p.Machine, Name: p.Name, Funcs: []*asm.Func{f}}
		byFn[f.Name] = one.Print()
		l.Add(f.Name, byFn[f.Name])
	}
	return l.String(), byFn
}

// TestIndexedSelectionIdentical compiles one translation unit for every
// registered target and strategy: the index and the memo caches must be
// unobservable in the emitted assembly, which is what the linear path
// emitted.
func TestIndexedSelectionIdentical(t *testing.T) {
	pins := gentest.ReadPins(t, selIndexPins)
	for _, target := range targets.Names() {
		for _, kind := range allKinds {
			t.Run(fmt.Sprintf("%s/%s", target, kind), func(t *testing.T) {
				c, err := driver.Compile(target, "c", "par.c", parProg, driver.Config{Strategy: kind})
				if err != nil {
					t.Fatal(err)
				}
				line, byFn := pinLine(fmt.Sprintf("%s/%s", target, kind), c.Prog)
				if name, ok := pins.Check(t, line); !ok && name != "" {
					t.Errorf("%s now selects to\n%s", name, byFn[name])
				}
			})
		}
	}
}
