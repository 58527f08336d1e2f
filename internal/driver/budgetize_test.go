package driver

import (
	"go/ast"
	"go/token"
	"testing"

	"marion/internal/gentest"
)

// deadlineNames returns where f names context.DeadlineExceeded.
func deadlineNames(f gentest.GoFile) []*ast.SelectorExpr {
	var found []*ast.SelectorExpr
	ast.Inspect(f.AST, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "DeadlineExceeded" {
			if x, ok := sel.X.(*ast.Ident); ok && f.Imports[x.Name] == "context" {
				found = append(found, sel)
			}
		}
		return true
	})
	return found
}

// TestDeadlineHasOneOwner keeps the decision "was this deadline a
// budget?" in budgetize: no shipped file outside this package names
// context.DeadlineExceeded, so a phase returns its context's error as it
// is and only the runner, which sees the attempt's context and the
// run's, types it.
func TestDeadlineHasOneOwner(t *testing.T) {
	t.Run("planted", func(t *testing.T) {
		f := gentest.Planted(t, "internal/p/p.go", `package p
import (
	"context"
	"errors"
	stdctx "context"
)
func f(err error) bool {
	return err == context.DeadlineExceeded || errors.Is(err, stdctx.DeadlineExceeded) || errors.Is(err, context.Canceled)
}`)
		if got := len(deadlineNames(f)); got != 2 {
			t.Fatalf("found %d of the 2 planted deadline checks", got)
		}
	})

	fset := token.NewFileSet()
	for _, f := range gentest.Shipped(t, fset) {
		if f.Dir == "internal/driver" {
			continue
		}
		for _, sel := range deadlineNames(f) {
			t.Errorf("%s: context.DeadlineExceeded: return the context's error and let driver's budgetize classify it",
				fset.Position(sel.Pos()))
		}
	}
}
