package gentest

import (
	"go/ast"
	"go/token"
	"strconv"
	"strings"
	"testing"
)

// corpusNames returns the string literals in f that name a fixture or
// the examples directory.
func corpusNames(f GoFile) []*ast.BasicLit {
	forbidden := []string{BigBlock, Pressure, Regress, "testdata/serve", "examples/c"}
	var bad []*ast.BasicLit
	ast.Inspect(f.AST, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			s, _ := strconv.Unquote(lit.Value)
			for _, name := range forbidden {
				if strings.Contains(s, name) {
					bad = append(bad, lit)
					break
				}
			}
		}
		return true
	})
	return bad
}

// TestCorpusHasOneOwner keeps private corpus loaders from growing back:
// no _test.go file outside this package may name a fixture or the
// examples directory in a string literal.
func TestCorpusHasOneOwner(t *testing.T) {
	t.Run("planted", func(t *testing.T) {
		f := Planted(t, "internal/p/p_test.go", `package p
var a = "../gentest/testdata/bigblock.c"
var b = "../../examples/c/*.c"
var c = "serve"`)
		if got := len(corpusNames(f)); got != 2 {
			t.Fatalf("found %d of the 2 planted corpus names", got)
		}
	})

	fset := token.NewFileSet()
	for _, f := range TestFiles(t, fset) {
		if f.Dir == "internal/gentest" {
			continue
		}
		for _, lit := range corpusNames(f) {
			t.Errorf("%s: %s names the corpus: range over gentest.Golden, Serve or Generated", fset.Position(lit.Pos()), lit.Value)
		}
	}
}
