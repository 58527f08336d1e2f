package driver

import (
	"go/ast"
	"go/token"
	"strings"
	"testing"

	"marion/internal/gentest"
)

// frontEndCalls are the calls that pick a front end by hand.
var frontEndCalls = map[string]bool{
	"marion/internal/iltext.Parse":    true,
	"marion/internal/iltext.ParseOn":  true,
	"marion/internal/cc.Compile":      true,
	"marion/internal/ilgen.Lower":     true,
	"marion/internal/driver.Frontend": true,
}

// frontDoorOwners may call a front end directly: the front ends
// themselves, this package, and the benchmark module (which pins the
// names it imports).
var frontDoorOwners = map[string]bool{"internal/driver": true, "internal/cc": true,
	"internal/ilgen": true, "internal/iltext": true}

// sideDoors returns where f calls a front end other than through Lower
// or LowerScoped.
func sideDoors(f gentest.GoFile) []*ast.SelectorExpr {
	var bad []*ast.SelectorExpr
	ast.Inspect(f.AST, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if x, ok := sel.X.(*ast.Ident); ok && frontEndCalls[f.Imports[x.Name]+"."+sel.Sel.Name] {
				bad = append(bad, sel)
			}
		}
		return true
	})
	return bad
}

// TestSourceHasOneFrontDoor keeps the choice of front end in Lower and
// LowerScoped, which share their code: outside frontDoorOwners and
// bench/, no shipped file calls a front end directly.
func TestSourceHasOneFrontDoor(t *testing.T) {
	t.Run("planted", func(t *testing.T) {
		f := gentest.Planted(t, "internal/p/p.go", `package p
import (
	front "marion/internal/cc"
	"marion/internal/driver"
	"marion/internal/iltext"
)
func f() {
	front.Compile("a.c", "")
	iltext.Parse("a.il", "")
	iltext.ParseOn(nil, "a.il", "")
	driver.Frontend("a.c", "")
	driver.Lower("c", "a.c", "")
	driver.LowerScoped("c", "a.c", "")
}`)
		if got := len(sideDoors(f)); got != 4 {
			t.Fatalf("found %d of the 4 planted side doors", got)
		}
	})

	fset := token.NewFileSet()
	for _, f := range gentest.Shipped(t, fset) {
		if frontDoorOwners[f.Dir] || f.Dir == "bench" || strings.HasPrefix(f.Dir, "bench/") {
			continue
		}
		for _, sel := range sideDoors(f) {
			t.Errorf("%s: %s.%s: choose the front end through driver.Lower",
				fset.Position(sel.Pos()), sel.X.(*ast.Ident).Name, sel.Sel.Name)
		}
	}
}

// lifetimeCalls are the methods that end what a slab or an arena
// handed out, by name, which no other method of the module has:
// ir.Slab's and asm.Arena's Rewind, and asm.Func's CopyOut, which frees
// the arena a function was built in to be rewound. Each maps to what
// only the driver knows.
var lifetimeCalls = map[string]string{
	"Rewind":  "only the driver knows when a unit's IL or a worker's code is dead",
	"CopyOut": "only the driver copies a finished function out of its worker's code arena",
}

// slabRewinds returns where f names one of lifetimeCalls: a call, or a
// method value to call later.
func slabRewinds(f gentest.GoFile) []*ast.SelectorExpr {
	var found []*ast.SelectorExpr
	ast.Inspect(f.AST, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && lifetimeCalls[sel.Sel.Name] != "" {
			found = append(found, sel)
		}
		return true
	})
	return found
}

// TestSlabHasOneRewinder keeps the decisions "is this IL dead?" and "is
// this code dead?" with the driver: no shipped file outside this
// package rewinds an ir.Slab or an asm.Arena, or copies a function out
// of its arena. So the only nodes ever zeroed and carved again are
// those of a unit lowered by LowerScoped, once its done has emptied the
// module's blocks, and the only code those of an attempt that failed or
// of a function copied out. A front end or a phase that built IL drops
// its slab with the IL instead, and a scratch nobody rewinds keeps the
// code built in it.
func TestSlabHasOneRewinder(t *testing.T) {
	t.Run("planted", func(t *testing.T) {
		f := gentest.Planted(t, "internal/p/p.go", `package p
import (
	"marion/internal/ir"
	"marion/internal/sel"
)
type keep struct{ nodes ir.Slab }
func f(s *ir.Slab, k *keep, sc *sel.Scratch) {
	s.Rewind()
	k.nodes.Rewind()
	_ = s.Const(ir.I32, 0)
	k.nodes = ir.Slab{}
	rewind := s.Rewind
	_ = rewind
	sc.Code.Rewind()
	af, _, _ := sc.SelectOpts(nil, nil, sel.Options{})
	af.CopyOut()
}`)
		if got := len(slabRewinds(f)); got != 5 {
			t.Fatalf("found %d of the 5 planted rewinds and copies", got)
		}
	})

	fset := token.NewFileSet()
	for _, f := range gentest.Shipped(t, fset) {
		if f.Dir == "internal/driver" {
			continue
		}
		for _, sel := range slabRewinds(f) {
			t.Errorf("%s: %s: %s", fset.Position(sel.Pos()), sel.Sel.Name, lifetimeCalls[sel.Sel.Name])
		}
	}
}
