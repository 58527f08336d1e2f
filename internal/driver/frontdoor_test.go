package driver

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

// TestSourceHasOneFrontDoor keeps the choice of front end in Lower:
// outside the front ends themselves, this package and the benchmark
// module (which pins the names it imports), no shipped file calls a
// front end directly.
func TestSourceHasOneFrontDoor(t *testing.T) {
	banned := map[string]bool{
		"marion/internal/iltext.Parse":    true,
		"marion/internal/cc.Compile":      true,
		"marion/internal/ilgen.Lower":     true,
		"marion/internal/driver.Frontend": true,
	}
	owners := map[string]bool{"bench": true, "internal/driver": true, "internal/cc": true,
		"internal/ilgen": true, "internal/iltext": true}
	const root = "../.."
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if owners[filepath.ToSlash(rel)] || rel != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		imports := map[string]string{} // local name -> import path
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = p
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && banned[imports[x.Name]+"."+sel.Sel.Name] {
					t.Errorf("%s: %s.%s: choose the front end through driver.Lower",
						fset.Position(sel.Pos()), x.Name, sel.Sel.Name)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("only %d files scanned: wrong working directory?", files)
	}
}
