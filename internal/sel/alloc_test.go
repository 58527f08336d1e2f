package sel_test

import (
	"testing"

	"marion/internal/driver"
	"marion/internal/gentest"
	"marion/internal/ir"
	"marion/internal/livermore"
	"marion/internal/mach"
	"marion/internal/sel"
	"marion/internal/targets"
	"marion/internal/xform"
)

var allocTargets = []string{"r2000", "m88000", "i860"}

// selectAll selects every function of the glue-transformed module on
// sc, as a pipeline worker does: the code arena rewound before each
// function, whose code is dead once it is counted. It returns the
// instructions emitted. Selection leaves the IL as it found it, so one
// module serves every run.
func selectAll(t testing.TB, sc *sel.Scratch, m *mach.Machine, mod *ir.Module) int {
	insts := 0
	for _, fn := range mod.Funcs {
		sc.Code.Rewind()
		af, _, err := sc.SelectOpts(m, fn, sel.Options{})
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
// did when it was set, selecting into a rewound arena as a worker does
// (r2000 0.031, m88000 0.030, i860 0.024: 2 per function, the
// asm.Func and a return's implicit uses; on fresh slabs it was 0.38,
// 0.36 and 0.30, 25 per function).
const selectAllocsPerInst = 0.035

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
		sc := new(sel.Scratch)
		insts := selectAll(t, sc, m, mod)
		allocs := testing.AllocsPerRun(5, func() { selectAll(t, sc, m, mod) })
		per := allocs / float64(insts)
		t.Logf("%s: %.0f allocations, %d instructions, %.1f per function, %.2f per instruction",
			target, allocs, insts, allocs/float64(len(mod.Funcs)), per)
		if per > selectAllocsPerInst {
			t.Errorf("%s: selection allocates %.2f times per instruction, budget %.2f", target, per, selectAllocsPerInst)
		}
	}
}

// serveUnitBytes is the ceiling on what selecting each unit of
// gentest.Serve (the benchmark's serve_cold templates at seed 1: mixed
// leaf, loop and branchy functions, 8 to 20 a unit) and the 28-function
// Livermore suite allocates, summed over allocTargets, into an arena
// warmed by the same unit and rewound before each function: about 15 %
// above what the code allocated when it was set (from 11 744 bytes for
// mix10_1.c to 27 752 for mix12_1.il; on fresh slabs, 261 408 to
// 1 631 504). What is left is each function's asm.Func and the heap
// lists of calls and returns.
var serveUnitBytes = map[string]uint64{
	"mix10_1.c":  13500,
	"mix12_1.il": 31900,
	"mix12_2.c":  16700,
	"mix14_3.c":  23600,
	"mix16_4.c":  20900,
	"mix20_5.c":  30900,
	"mix8_0.c":   21900,
	"mix8_0.il":  16200,
	"livermore":  16200,
}

func TestSelectBytesOnServeUnits(t *testing.T) {
	lower := func(u gentest.Unit) *ir.Module {
		var mod *ir.Module
		var err error
		if u.Name == "livermore" {
			mod, err = livermore.SuiteModule()
		} else {
			mod, err = driver.Lower(u.Lang, u.Name, u.Text)
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
			sc := new(sel.Scratch)
			_, bytes := gentest.AllocsPerRun(3, nil, func() { selectAll(t, sc, m, mod) })
			got += uint64(bytes)
		}
		t.Logf("%s: %d bytes, budget %d", u.Name, got, serveUnitBytes[u.Name])
		if want := serveUnitBytes[u.Name]; got > want {
			t.Errorf("%s: selection allocated %d bytes, budget %d", u.Name, got, want)
		}
	}
}
