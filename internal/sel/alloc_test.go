package sel_test

import (
	"runtime"
	"testing"

	"marion/internal/driver"
	"marion/internal/gentest"
	"marion/internal/iltext"
	"marion/internal/ir"
	"marion/internal/livermore"
	"marion/internal/mach"
	"marion/internal/sel"
	"marion/internal/targets"
	"marion/internal/xform"
)

var allocTargets = []string{"r2000", "m88000", "i860"}

// selectAll selects every function of the glue-transformed module and
// returns the instructions emitted. Selection leaves the IL as it found
// it, so one module serves every run.
func selectAll(t testing.TB, m *mach.Machine, mod *ir.Module) int {
	insts := 0
	for _, fn := range mod.Funcs {
		af, _, err := sel.SelectOpts(m, fn, sel.Options{})
		if err != nil {
			t.Fatalf("%s %s: %v", m.Name, fn.Name, err)
		}
		for _, b := range af.Blocks {
			insts += len(b.Insts)
		}
	}
	return insts
}

// selectAllocsPerInst is the ceiling on allocations per selected
// instruction over the Livermore suite, about 15 % above what the code
// did when it was set (r2000 0.38, m88000 0.36, i860 0.30, 25 per
// function; the commit before allocated 6.32, 6.31 and 5.40, 412 to 443
// per function).
const selectAllocsPerInst = 0.44

func TestSelectAllocBudget(t *testing.T) {
	for _, target := range allocTargets {
		m, err := targets.Load(target)
		if err != nil {
			t.Fatal(err)
		}
		mod, err := livermore.SuiteModule()
		if err != nil {
			t.Fatal(err)
		}
		for _, fn := range mod.Funcs {
			xform.Apply(m, fn)
		}
		insts := selectAll(t, m, mod)
		allocs := testing.AllocsPerRun(5, func() { selectAll(t, m, mod) })
		per := allocs / float64(insts)
		t.Logf("%s: %.0f allocations, %d instructions, %.1f per function, %.2f per instruction",
			target, allocs, insts, allocs/float64(len(mod.Funcs)), per)
		if per > selectAllocsPerInst {
			t.Errorf("%s: selection allocates %.2f times per instruction, budget %.2f", target, per, selectAllocsPerInst)
		}
	}
}

// serveUnitBytes is what selecting each unit of gentest.Serve (the
// benchmark's serve_cold templates at seed 1: mixed leaf, loop and
// branchy functions, 8 to 20 a unit) and the 28-function Livermore suite
// allocated, summed over allocTargets, at the commit before selection
// took its operands and instructions from slabs. Small functions are the
// case a slab can lose: a chunk sized for a large function is mostly
// waste in a small one.
var serveUnitBytes = map[string]uint64{
	"mix10_1.c":  758472,
	"mix12_1.il": 1065032,
	"mix12_2.c":  895424,
	"mix14_3.c":  955024,
	"mix16_4.c":  1294904,
	"mix20_5.c":  1595032,
	"mix8_0.c":   665496,
	"mix8_0.il":  622408,
	"livermore":  4800192,
}

// frontEnds maps a gentest unit's language to its front end.
var frontEnds = map[string]func(name, src string) (*ir.Module, error){"c": driver.Frontend, "il": iltext.Parse}

func TestSelectBytesOnServeUnits(t *testing.T) {
	lower := func(u gentest.Unit) *ir.Module {
		var mod *ir.Module
		var err error
		if u.Name == "livermore" {
			mod, err = livermore.SuiteModule()
		} else {
			mod, err = frontEnds[u.Lang](u.Name, u.Text)
		}
		if err != nil {
			t.Fatalf("%s: %v", u.Name, err)
		}
		return mod
	}
	// serveUnitBytes has a figure for exactly these units.
	for _, u := range append(gentest.Serve(), gentest.Unit{Name: "livermore"}) {
		var got uint64
		for _, target := range allocTargets {
			m, err := targets.Load(target)
			if err != nil {
				t.Fatal(err)
			}
			mod := lower(u)
			for _, fn := range mod.Funcs {
				xform.Apply(m, fn)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			selectAll(t, m, mod)
			runtime.ReadMemStats(&after)
			got += after.TotalAlloc - before.TotalAlloc
		}
		t.Logf("%s: %d bytes, the parent %d", u.Name, got, serveUnitBytes[u.Name])
		if want := serveUnitBytes[u.Name]; got > want {
			t.Errorf("%s: selection allocated %d bytes, the parent %d", u.Name, got, want)
		}
	}
}
