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

// edgeFields are the fields of an ir.Block that only the CFG that built
// it fills.
var edgeFields = map[string]bool{"Succs": true, "Preds": true, "Stmts": true}

// blocksOutsideCFG returns where f composes an ir.Block (a literal,
// new or make) or appends to a field named Succs, Preds or Stmts that is
// not a field its own package declares (cdag's graph nodes have Succs
// and Preds of their own): a block's edges and statements are the
// CFG's to copy out.
func blocksOutsideCFG(f gentest.GoFile, own map[string]bool) []ast.Node {
	isBlock := func(x ast.Expr) bool {
		if arr, ok := x.(*ast.ArrayType); ok {
			x = arr.Elt
		}
		sel, ok := x.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		pkg, ok := sel.X.(*ast.Ident)
		return ok && f.Imports[pkg.Name] == "marion/internal/ir" && sel.Sel.Name == "Block"
	}
	var bad []ast.Node
	ast.Inspect(f.AST, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			if isBlock(n.Type) {
				bad = append(bad, n)
			}
		case *ast.CallExpr:
			fun, ok := n.Fun.(*ast.Ident)
			if !ok || len(n.Args) == 0 {
				break
			}
			switch fun.Name {
			case "new", "make":
				if isBlock(n.Args[0]) {
					bad = append(bad, n)
				}
			case "append":
				if sel, ok := n.Args[0].(*ast.SelectorExpr); ok && edgeFields[sel.Sel.Name] && !own[sel.Sel.Name] {
					bad = append(bad, n)
				}
			}
		}
		return true
	})
	return bad
}

// fieldNames returns the names of the struct fields f declares.
func fieldNames(f *ast.File, into map[string]bool) {
	ast.Inspect(f, func(n ast.Node) bool {
		if st, ok := n.(*ast.StructType); ok {
			for _, fl := range st.Fields.List {
				for _, name := range fl.Names {
					into[name.Name] = true
				}
			}
		}
		return true
	})
}

// TestBlocksComeFromTheCFG fails when shipped code outside internal/ir
// makes a block or grows a block's edges or statements itself: a
// function's blocks are built in an ir.CFG and copied out once.
func TestBlocksComeFromTheCFG(t *testing.T) {
	t.Run("planted", func(t *testing.T) {
		f := gentest.Planted(t, "internal/ilgen/planted.go", `package p
import "marion/internal/ir"
type node struct{ Insts []int }
func f(b, s *ir.Block, n *ir.Node, x *node) {
	_ = &ir.Block{ID: 1}
	_ = ir.Block{}
	_ = new(ir.Block)
	_ = make([]ir.Block, 2)
	_ = []ir.Block{{}}
	b.Succs = append(b.Succs, s)
	s.Preds = append(s.Preds, b)
	b.Stmts = append(b.Stmts, n)
	x.Insts = append(x.Insts, 1)
	_ = []*ir.Block{b}
}`)
		own := map[string]bool{}
		fieldNames(f.AST, own)
		if got := len(blocksOutsideCFG(f, own)); got != 8 {
			t.Fatalf("found %d of the 8 planted blocks and appends made outside the CFG", got)
		}
	})

	fset := token.NewFileSet()
	files := gentest.Shipped(t, fset)
	own := map[string]map[string]bool{}
	for _, f := range files {
		if own[f.Dir] == nil {
			own[f.Dir] = map[string]bool{}
		}
		fieldNames(f.AST, own[f.Dir])
	}
	for _, f := range files {
		if f.Dir == "internal/ir" {
			continue
		}
		for _, n := range blocksOutsideCFG(f, own[f.Dir]) {
			t.Errorf("%s: makes a block or grows its edges or statements outside ir.CFG", fset.Position(n.Pos()))
		}
	}
}
