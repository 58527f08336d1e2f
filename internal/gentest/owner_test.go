package gentest

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestCorpusHasOneOwner keeps private corpus loaders from growing back:
// no _test.go file outside this package may name a fixture or the
// examples directory in a string literal.
func TestCorpusHasOneOwner(t *testing.T) {
	forbidden := []string{BigBlock, Pressure, "testdata/serve", "examples/c"}
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(root(), func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && (d.Name() == "gentest" || strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				s, _ := strconv.Unquote(lit.Value)
				for _, name := range forbidden {
					if strings.Contains(s, name) {
						t.Errorf("%s: %q names %s: range over gentest.Golden, Serve or Generated", fset.Position(lit.Pos()), s, name)
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil || files < 50 {
		t.Fatalf("%d test files scanned: %v", files, err)
	}
}
