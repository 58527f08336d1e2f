package xform_test

import (
	"fmt"
	"testing"

	"marion/internal/driver"
	"marion/internal/gentest"
	"marion/internal/iltext"
	"marion/internal/ir"
	"marion/internal/livermore"
	"marion/internal/targets"
	"marion/internal/xform"
)

// undoCorpus returns one lowering function per unit of Livermore,
// gentest.Golden, the serve units and 24 generated high-pressure bodies.
// Each call of a function lowers afresh.
func undoCorpus(t *testing.T) map[string]func() *ir.Module {
	t.Helper()
	units := map[string]func() *ir.Module{
		"livermore": func() *ir.Module {
			mod, err := livermore.SuiteModule()
			if err != nil {
				t.Fatal(err)
			}
			return mod
		},
	}
	for _, u := range append(append(gentest.Golden(), gentest.Serve()...), gentest.Generated(24)...) {
		units[u.Name] = func() *ir.Module {
			mod, err := frontEnds[u.Lang](u.Name, u.Text)
			if err != nil {
				t.Fatalf("%s: %v", u.Name, err)
			}
			return mod
		}
	}
	return units
}

// frontEnds maps a gentest unit's language to its front end.
var frontEnds = map[string]func(name, src string) (*ir.Module, error){"c": driver.Frontend, "il": iltext.Parse}

func fingerprints(mod *ir.Module) [][32]byte {
	out := make([][32]byte, len(mod.Funcs))
	for i, fn := range mod.Funcs {
		out[i] = fn.Fingerprint()
	}
	return out
}

func parentCounts(mod *ir.Module) []int {
	var out []int
	var visit func(w ir.Walk, n *ir.Node)
	visit = func(w ir.Walk, n *ir.Node) {
		if !w.Visit(n) {
			return
		}
		out = append(out, int(n.Parents))
		for _, k := range n.Kids {
			visit(w, k)
		}
	}
	for _, fn := range mod.Funcs {
		w := ir.NewWalk()
		for _, b := range fn.Blocks {
			for _, s := range b.Stmts {
				visit(w, s)
			}
		}
	}
	return out
}

// TestUndoIsExact holds the undo log to its contract on every function
// of the corpus and every target: after Apply + Undo the IL prints, is
// fingerprinted and counts parents as before Apply, and applying again
// yields the IL one Apply of a fresh lowering yields.
func TestUndoIsExact(t *testing.T) {
	rewrote := 0
	for _, target := range targets.Names() {
		m, err := targets.Load(target)
		if err != nil {
			t.Fatal(err)
		}
		for name, lower := range undoCorpus(t) {
			mod := lower()
			text, fps, parents := iltext.Print(mod), fingerprints(mod), parentCounts(mod)
			logs := make([]xform.Log, len(mod.Funcs))
			for i, fn := range mod.Funcs {
				logs[i].Apply(m, fn, new(ir.Slab))
			}
			if iltext.Print(mod) != text {
				rewrote++
			}
			for i, fn := range mod.Funcs {
				logs[i].Undo(fn)
			}
			if got := iltext.Print(mod); got != text {
				t.Fatalf("%s %s: IL after Apply + Undo differs from the IL as lowered:\n%s\nwas:\n%s", target, name, got, text)
			}
			for i, fp := range fingerprints(mod) {
				if fp != fps[i] {
					t.Errorf("%s %s %s: fingerprint changed by Apply + Undo", target, name, mod.Funcs[i].Name)
				}
			}
			if got := parentCounts(mod); fmt.Sprint(got) != fmt.Sprint(parents) {
				t.Errorf("%s %s: parent counts changed by Apply + Undo", target, name)
			}

			once := lower()
			for i, fn := range mod.Funcs {
				logs[i].Apply(m, fn, new(ir.Slab))
				xform.Apply(m, once.Funcs[i])
			}
			if got, want := iltext.Print(mod), iltext.Print(once); got != want {
				t.Errorf("%s %s: Apply, Undo, Apply differs from one Apply:\n%s\nwant:\n%s", target, name, got, want)
			}
			if got, want := parentCounts(mod), parentCounts(once); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s %s: parent counts after Apply, Undo, Apply differ from one Apply's", target, name)
			}
		}
	}
	if rewrote == 0 {
		t.Error("no unit was rewritten by any target's glue rules: the test lost its point")
	}
	t.Logf("%d (target, unit) pairs rewritten", rewrote)
}
