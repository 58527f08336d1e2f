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
	"marion/internal/cc.Compile":      true,
	"marion/internal/ilgen.Lower":     true,
	"marion/internal/driver.Frontend": true,
}

// frontDoorOwners may call a front end directly: the front ends
// themselves, this package, and the benchmark module (which pins the
// names it imports).
var frontDoorOwners = map[string]bool{"internal/driver": true, "internal/cc": true,
	"internal/ilgen": true, "internal/iltext": true}

// sideDoors returns where f calls a front end other than through Lower.
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

// TestSourceHasOneFrontDoor keeps the choice of front end in Lower:
// outside frontDoorOwners and bench/, no shipped file calls a front end
// directly.
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
	driver.Frontend("a.c", "")
	driver.Lower("c", "a.c", "")
}`)
		if got := len(sideDoors(f)); got != 3 {
			t.Fatalf("found %d of the 3 planted side doors", got)
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
