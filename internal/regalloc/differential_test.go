package regalloc_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"marion/internal/asm"
	"marion/internal/driver"
	"marion/internal/ir"
	"marion/internal/livermore"
	"marion/internal/mach"
	"marion/internal/regalloc"
	"marion/internal/sel"
	"marion/internal/strategy"
	"marion/internal/targets"
	"marion/internal/xform"
)

// corpus lowers Livermore, every examples/c source and the driver's
// big-block and pressure fixtures. Each call lowers afresh: selection
// consumes the module it is given.
func corpus(t testing.TB) []*ir.Module {
	t.Helper()
	suite, err := livermore.SuiteModule()
	if err != nil {
		t.Fatal(err)
	}
	srcs, err := filepath.Glob("../../examples/c/*.c")
	if err != nil || len(srcs) == 0 {
		t.Fatalf("no examples/c sources: %v", err)
	}
	sort.Strings(srcs)
	srcs = append(srcs, "../driver/testdata/bigblock.c", "../driver/testdata/pressure.c")
	mods := []*ir.Module{suite}
	for _, path := range srcs {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		mod, err := driver.Frontend(filepath.Base(path), string(src))
		if err != nil {
			t.Fatal(err)
		}
		mods = append(mods, mod)
	}
	return mods
}

func selected(t testing.TB, m *mach.Machine, fn *ir.Func) *asm.Func {
	t.Helper()
	xform.Apply(m, fn)
	af, err := sel.Select(m, fn)
	if err != nil {
		t.Fatalf("%s %s: select: %v", m.Name, fn.Name, err)
	}
	return af
}

func text(m *mach.Machine, af *asm.Func) string {
	p := asm.Program{Machine: m, Funcs: []*asm.Func{af}}
	return p.Print()
}

// differ allocates two identical selections of one function, one with
// AllocateOpts and one with the reference, and requires the same
// outcome: the same error, or the same Result and instruction text. It
// returns the reference's result (nil on error).
func differ(t *testing.T, where string, m *mach.Machine, got, want *asm.Func, opts regalloc.Options) *regalloc.Result {
	t.Helper()
	g, gerr := regalloc.AllocateOpts(m, got, opts)
	w, _, werr := regalloc.ReferenceAllocate(m, want, opts)
	if gerr != nil || werr != nil {
		if fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Errorf("%s: error %v, reference %v", where, gerr, werr)
		}
		return nil
	}
	if g.Rounds != w.Rounds || g.Spills != w.Spills || g.SpillSlots != w.SpillSlots ||
		!reflect.DeepEqual(g.UsedCalleeSave, w.UsedCalleeSave) {
		t.Errorf("%s: rounds/spills/slots/callee-save %d/%d/%d/%v, reference %d/%d/%d/%v", where,
			g.Rounds, g.Spills, g.SpillSlots, g.UsedCalleeSave, w.Rounds, w.Spills, w.SpillSlots, w.UsedCalleeSave)
	}
	if a, b := text(m, got), text(m, want); a != b {
		t.Errorf("%s: allocated code differs from the reference's\n--- got ---\n%s--- reference ---\n%s", where, a, b)
	}
	return w
}

// TestAllocateMatchesReferenceOnCorpus: on every target, every function
// of Livermore, examples/c and the driver fixtures allocates exactly as
// the reference does, with and without SpillGlobals (the Local
// strategy's option).
func TestAllocateMatchesReferenceOnCorpus(t *testing.T) {
	for _, target := range targets.Names() {
		m, err := targets.Load(target)
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range []regalloc.Options{{}, {SpillGlobals: true}} {
			fns, spilled := 0, 0
			a, b := corpus(t), corpus(t)
			for mi := range a {
				for fi, fn := range a[mi].Funcs {
					where := fmt.Sprintf("%s %s:%s globals=%v", target, a[mi].Name, fn.Name, opts.SpillGlobals)
					res := differ(t, where, m, selected(t, m, fn), selected(t, m, b[mi].Funcs[fi]), opts)
					fns++
					if res != nil && res.Spills > 0 {
						spilled++
					}
				}
			}
			t.Logf("%s globals=%v: %d functions, %d spilled", target, opts.SpillGlobals, fns, spilled)
		}
	}
}

// genTargets are the machines the generated differential runs on: toyp
// (4 allocable ints, 2 doubles: spill code is most of the function) and
// the three bench targets.
var genTargets = []string{"toyp", "r2000", "m88000", "i860"}

const genPerTarget = 200

// TestAllocateMatchesReferenceOnGenerated samples what the golden
// corpus under-samples — spill choice, spill-list order, NoSpill
// temporaries, pair pressure, rounds past the second — on seeded
// high-pressure functions, and runs each through the whole back end
// with the emitted-code verifier on.
func TestAllocateMatchesReferenceOnGenerated(t *testing.T) {
	for _, target := range genTargets {
		m, err := targets.Load(target)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(1991))
		spilled, deep := 0, 0
		for i := 0; i < genPerTarget; i++ {
			src := genSource(r, genShapeFor(r))
			where := fmt.Sprintf("%s generated #%d", target, i)
			var afs [2]*asm.Func
			for j := range afs {
				mod, err := driver.Frontend("gen.c", src)
				if err != nil {
					t.Fatalf("%s: %v\n%s", where, err, src)
				}
				afs[j] = selected(t, m, mod.Lookup("f"))
			}
			res := differ(t, where, m, afs[0], afs[1], regalloc.Options{})
			if t.Failed() {
				t.Fatalf("%s: source:\n%s", where, src)
			}
			if res == nil {
				continue
			}
			if res.Spills > 0 {
				spilled++
			}
			if res.Rounds >= 3 {
				deep++
			}
			c, err := driver.Compile(target, "gen.c", src, driver.Config{Strategy: strategy.Postpass, Verify: true, Strict: true})
			if err != nil {
				t.Fatalf("%s: compile: %v\n%s", where, err, src)
			}
			if !c.Verify.Empty() {
				t.Fatalf("%s: verifier findings:\n%s\n%s", where, c.Verify, src)
			}
		}
		t.Logf("%s: %d generated, %d spilled, %d took >= 3 rounds", target, genPerTarget, spilled, deep)
		if spilled < genPerTarget/2 {
			t.Errorf("%s: only %d of %d generated functions spilled", target, spilled, genPerTarget)
		}
		if deep < genPerTarget/10 {
			t.Errorf("%s: only %d of %d generated functions took >= 3 rounds", target, deep, genPerTarget)
		}
	}
}
