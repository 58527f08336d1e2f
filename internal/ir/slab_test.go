package ir_test

import (
	"go/ast"
	"go/token"
	"testing"

	"marion/internal/gentest"
)

// slabOwners are the packages that build IL.
var slabOwners = map[string]bool{"internal/cc": true, "internal/ilgen": true, "internal/iltext": true, "internal/xform": true}

// nodesOutsideSlab returns where f builds an ir.Node other than through
// a Slab: &ir.Node{...} or new(ir.Node). A plain ir.Node{...} value is
// what Slab.Node copies, and is allowed.
func nodesOutsideSlab(f *ast.File) []ast.Node {
	isIRNode := func(x ast.Expr) bool {
		sel, ok := x.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		pkg, ok := sel.X.(*ast.Ident)
		return ok && pkg.Name == "ir" && sel.Sel.Name == "Node"
	}
	var bad []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if lit, ok := n.X.(*ast.CompositeLit); ok && n.Op == token.AND && isIRNode(lit.Type) {
				bad = append(bad, n)
			}
		case *ast.CallExpr:
			if fun, ok := n.Fun.(*ast.Ident); ok && fun.Name == "new" && len(n.Args) == 1 && isIRNode(n.Args[0]) {
				bad = append(bad, n)
			}
		}
		return true
	})
	return bad
}

// TestFrontEndsBuildFromSlabs fails when shipped code of a package that
// builds IL — the C parser, the lowering, the textual parser, the glue
// rewrites — makes a node outside its owner's slab.
func TestFrontEndsBuildFromSlabs(t *testing.T) {
	t.Run("planted", func(t *testing.T) {
		f := gentest.Planted(t, "internal/cc/planted.go", `package p
func f(s *ir.Slab, k *ir.Node) {
	_ = &ir.Node{Op: ir.Ret}
	_ = new(ir.Node)
	_ = s.Node(ir.Node{Op: ir.Ret})
	_ = s.New(ir.Neg, ir.I32, k)
	_ = ir.NewWalk()
}`)
		if got := len(nodesOutsideSlab(f.AST)); got != 2 {
			t.Fatalf("found %d of the 2 planted nodes built outside a slab", got)
		}
	})

	fset := token.NewFileSet()
	for _, f := range gentest.Shipped(t, fset) {
		if !slabOwners[f.Dir] {
			continue
		}
		for _, n := range nodesOutsideSlab(f.AST) {
			t.Errorf("%s: builds an ir.Node outside the slab", fset.Position(n.Pos()))
		}
	}
}
