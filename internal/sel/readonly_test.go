package sel_test

import (
	"testing"

	"marion/internal/iltext"
	"marion/internal/ir"
	"marion/internal/livermore"
	"marion/internal/targets"
	"marion/internal/xform"
)

// TestSelectLeavesILUntouched is what lets the degradation ladder retry
// a function on the IL the failed attempt selected from: the glue
// transform's undo log covers every write to the IL only because
// selection makes none. Selection may stamp nodes (ir.Walk) and nothing
// else: the module prints and is fingerprinted the same before and
// after.
func TestSelectLeavesILUntouched(t *testing.T) {
	for _, target := range targets.Names() {
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
		type state struct {
			text    string
			fps     [][32]byte
			parents []int
		}
		snapshot := func() state {
			s := state{text: iltext.Print(mod)}
			for _, fn := range mod.Funcs {
				s.fps = append(s.fps, fn.Fingerprint())
				w := ir.NewWalk()
				var visit func(n *ir.Node)
				visit = func(n *ir.Node) {
					if w.Visit(n) {
						s.parents = append(s.parents, int(n.Parents))
						for _, k := range n.Kids {
							visit(k)
						}
					}
				}
				for _, b := range fn.Blocks {
					for _, st := range b.Stmts {
						visit(st)
					}
				}
			}
			return s
		}
		before := snapshot()
		selectAll(t, m, mod)
		after := snapshot()
		if after.text != before.text {
			t.Errorf("%s: selection changed the IL", target)
		}
		for i := range before.fps {
			if after.fps[i] != before.fps[i] {
				t.Errorf("%s %s: selection changed the fingerprint", target, mod.Funcs[i].Name)
			}
		}
		for i := range before.parents {
			if after.parents[i] != before.parents[i] {
				t.Fatalf("%s: selection changed a parent count", target)
			}
		}
	}
}
