package asm

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// effectReaders are the packages allowed to range over an instruction's
// DefOps/UseOps/ImpDefs()/ImpUses() themselves: asm owns the walker, verify
// is the deliberately independent oracle, cache is the entry codec and
// mach computes the lists. Everyone else asks Inst.RegDefs/RegUses.
var effectReaders = map[string]bool{"asm": true, "verify": true, "cache": true, "mach": true}

// TestRegisterEffectsHaveOneReader keeps private copies of the def/use
// traversal from growing back: no non-test file under internal/ or cmd/
// outside effectReaders may range over one of the four lists.
func TestRegisterEffectsHaveOneReader(t *testing.T) {
	lists := map[string]bool{"DefOps": true, "UseOps": true, "ImpDefs": true, "ImpUses": true}
	fset := token.NewFileSet()
	files := 0
	for _, root := range []string{"../../internal", "../../cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			if effectReaders[filepath.Base(filepath.Dir(path))] {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files++
			ast.Inspect(f, func(n ast.Node) bool {
				if r, ok := n.(*ast.RangeStmt); ok {
					x := r.X
					if call, ok := x.(*ast.CallExpr); ok {
						x = call.Fun // in.ImpDefs()
					}
					if sel, ok := x.(*ast.SelectorExpr); ok && lists[sel.Sel.Name] {
						t.Errorf("%s: range over .%s: ask asm.Inst.RegDefs/RegUses what the instruction reads and writes",
							fset.Position(r.Pos()), sel.Sel.Name)
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if files < 50 {
		t.Fatalf("only %d files scanned: wrong working directory?", files)
	}
}
