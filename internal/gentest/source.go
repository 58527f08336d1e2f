package gentest

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// GoFile is one parsed Go file of the module, for the go/ast guards:
// its path and package directory relative to the module root,
// slash-separated ("internal/ir/slab.go", "internal/ir"; "." for the
// root package), and its imports by the name the file uses for them.
type GoFile struct {
	Path, Dir string
	AST       *ast.File
	Imports   map[string]string // local name -> import path
}

// Shipped parses every non-test Go file of the module, bench/ included.
// Hidden directories and testdata are skipped. Fewer than 50 files
// means the walk started in the wrong place, and fails t.
func Shipped(t testing.TB, fset *token.FileSet) []GoFile { return walkGo(t, fset, false) }

// TestFiles is Shipped for the _test.go files.
func TestFiles(t testing.TB, fset *token.FileSet) []GoFile { return walkGo(t, fset, true) }

// Planted parses src as the file at rel, for a guard's planted breach.
func Planted(t testing.TB, rel, src string) GoFile {
	t.Helper()
	f, err := parseGo(token.NewFileSet(), rel, rel, src)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func walkGo(t testing.TB, fset *token.FileSet, tests bool) []GoFile {
	t.Helper()
	top := root()
	var files []GoFile
	err := filepath.WalkDir(top, func(p string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && p != top && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata"):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") != tests:
			return nil
		}
		rel, _ := filepath.Rel(top, p)
		f, err := parseGo(fset, p, filepath.ToSlash(rel), nil)
		files = append(files, f)
		return err
	})
	if err != nil || len(files) < 50 {
		t.Fatalf("%d Go files parsed under %s: %v", len(files), top, err)
	}
	return files
}

// parseGo parses the file named filename (read from disk when src is
// nil), which sits at rel under the module root.
func parseGo(fset *token.FileSet, filename, rel string, src any) (GoFile, error) {
	f, err := parser.ParseFile(fset, filename, src, parser.SkipObjectResolution)
	if err != nil {
		return GoFile{}, err
	}
	imports := map[string]string{}
	for _, im := range f.Imports {
		p, _ := strconv.Unquote(im.Path.Value)
		name := path.Base(p)
		if im.Name != nil {
			name = im.Name.Name
		}
		imports[name] = p
	}
	return GoFile{Path: rel, Dir: path.Dir(rel), AST: f, Imports: imports}, nil
}
