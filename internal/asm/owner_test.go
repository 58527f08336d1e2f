package asm

import (
	"go/ast"
	"go/token"
	"path"
	"strings"
	"testing"

	"marion/internal/gentest"
)

// effectReaders are the packages allowed to range over an instruction's
// DefOps/UseOps/ImpDefs()/ImpUses() themselves: asm owns the walker, verify
// is the deliberately independent oracle, cache is the entry codec and
// mach computes the lists. Everyone else asks Inst.RegDefs/RegUses.
var effectReaders = map[string]bool{"asm": true, "verify": true, "cache": true, "mach": true}

// effectRanges returns the lists f ranges over.
func effectRanges(f gentest.GoFile) []*ast.SelectorExpr {
	lists := map[string]bool{"DefOps": true, "UseOps": true, "ImpDefs": true, "ImpUses": true}
	var bad []*ast.SelectorExpr
	ast.Inspect(f.AST, func(n ast.Node) bool {
		if r, ok := n.(*ast.RangeStmt); ok {
			x := r.X
			if call, ok := x.(*ast.CallExpr); ok {
				x = call.Fun // in.ImpDefs()
			}
			if sel, ok := x.(*ast.SelectorExpr); ok && lists[sel.Sel.Name] {
				bad = append(bad, sel)
			}
		}
		return true
	})
	return bad
}

// TestRegisterEffectsHaveOneReader keeps private copies of the def/use
// traversal from growing back: no non-test file under internal/ or cmd/
// outside effectReaders may range over one of the four lists.
func TestRegisterEffectsHaveOneReader(t *testing.T) {
	t.Run("planted", func(t *testing.T) {
		f := gentest.Planted(t, "internal/p/p.go", `package p
func f(in *asm.Inst) {
	for range in.Tmpl.DefOps {}
	for range in.ImpUses() {}
	for range in.RegDefs(nil) {}
}`)
		if got := len(effectRanges(f)); got != 2 {
			t.Fatalf("found %d of the 2 planted ranges", got)
		}
	})

	fset := token.NewFileSet()
	for _, f := range gentest.Shipped(t, fset) {
		if !strings.HasPrefix(f.Dir, "internal/") && !strings.HasPrefix(f.Dir, "cmd/") || effectReaders[path.Base(f.Dir)] {
			continue
		}
		for _, sel := range effectRanges(f) {
			t.Errorf("%s: range over .%s: ask asm.Inst.RegDefs/RegUses what the instruction reads and writes",
				fset.Position(sel.Pos()), sel.Sel.Name)
		}
	}
}
