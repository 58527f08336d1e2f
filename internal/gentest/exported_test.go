package gentest

import (
	"go/ast"
	"go/token"
	"path"
	"slices"
	"strings"
	"testing"
)

// exportAllowed are the exported names under internal/ that no shipped
// file outside their package names, kept on purpose: package directory
// and name ("Type.Method" for a method), and why.
var exportAllowed = map[string]string{
	"internal/trace.Trace.Coverage": "what the trace drills in trace, server and cmd/mariond assert of a kept trace",
	"internal/mach.Machine.InstrByLabel": "finalize resolves %seq labels through it, and the tests of eight " +
		"packages build instructions by label or mnemonic with it",
}

// interfaceMethods are method names a standard-library interface calls
// (fmt, errors, sort, flag, net/http, encoding, io): a method by one of
// these names has a caller the source does not show.
var interfaceMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Is": true, "As": true, "Format": true,
	"Len": true, "Less": true, "Swap": true, "Set": true, "ServeHTTP": true, "WriteHeader": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"Read": true, "Write": true, "Close": true,
}

// exempt are the packages whose exports need no caller: gentest's API is
// test support, and core is the benchmark module's alias file.
var exempt = map[string]bool{"internal/gentest": true, "internal/core": true}

// export is one exported top-level name of a package under internal/.
type export struct {
	dir, name, method string // name is "Type.Method" for a method, whose own name is method
	pos               token.Pos
	mentions          ast.Expr // signature, declared type, or type definition
	file              GoFile   // the declaring file
}

// unusedExports returns the exported names declared under internal/
// that no file outside their package names: a function, type, variable
// or constant through a package selector, a method by its name in any
// selector. A type is also used when a used name's signature, declared
// type or exported field mentions it.
func unusedExports(files []GoFile) []export {
	var decls []export
	for _, f := range files {
		if !strings.HasPrefix(f.Dir, "internal/") || exempt[f.Dir] {
			continue
		}
		add := func(name *ast.Ident, mentions ast.Expr) *export {
			decls = append(decls, export{dir: f.Dir, name: name.Name, pos: name.Pos(), mentions: mentions, file: f})
			return &decls[len(decls)-1]
		}
		for _, d := range f.AST.Decls {
			if d, ok := d.(*ast.FuncDecl); ok && d.Name.IsExported() {
				if e := add(d.Name, d.Type); d.Recv != nil {
					e.method, e.name = e.name, recvName(d.Recv.List[0].Type)+"."+e.name
				}
			}
			d, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			var typ ast.Expr // a const group's type carries over to later specs
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						add(s.Name, s.Type)
					}
				case *ast.ValueSpec:
					if s.Type != nil || len(s.Values) > 0 {
						typ = s.Type
					}
					for _, n := range s.Names {
						if n.IsExported() {
							add(n, typ)
						}
					}
				}
			}
		}
	}

	named := map[string]bool{}           // "dir.Name" selected through a package outside dir
	methodUsers := map[string][]string{} // any other selector's name -> the directories selecting it
	for _, f := range files {
		ast.Inspect(f.AST, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && f.Imports[x.Name] != "" {
				if dir := strings.TrimPrefix(f.Imports[x.Name], "marion/"); dir != f.Dir {
					named[dir+"."+sel.Sel.Name] = true
				}
			} else {
				methodUsers[sel.Sel.Name] = append(methodUsers[sel.Sel.Name], f.Dir)
			}
			return true
		})
	}

	used := make([]bool, len(decls))
	types := map[string]int{} // "dir.Name" of a type -> its decl
	var work []int
	for i, e := range decls {
		if e.method == "" {
			types[e.dir+"."+e.name] = i
		}
		if e.method == "" && named[e.dir+"."+e.name] || e.method != "" && (interfaceMethods[e.method] ||
			slices.ContainsFunc(methodUsers[e.method], func(d string) bool { return d != e.dir })) {
			used[i] = true
			work = append(work, i)
		}
	}
	for len(work) > 0 {
		e := decls[work[len(work)-1]]
		work = work[:len(work)-1]
		if e.mentions == nil {
			continue
		}
		ast.Inspect(e.mentions, func(n ast.Node) bool {
			key := ""
			switch n := n.(type) {
			case *ast.Field: // an unexported field mentions nothing
				return len(n.Names) == 0 || slices.ContainsFunc(n.Names, (*ast.Ident).IsExported)
			case *ast.Ident:
				key = e.dir + "." + n.Name
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					key = strings.TrimPrefix(e.file.Imports[x.Name], "marion/") + "." + n.Sel.Name
				}
			}
			if i, ok := types[key]; ok && !used[i] {
				used[i] = true
				work = append(work, i)
			}
			return true
		})
	}
	var unused []export
	for i, e := range decls {
		if !used[i] && exportAllowed[e.dir+"."+e.name] == "" {
			unused = append(unused, e)
		}
	}
	return unused
}

// recvName is the type name of a method's receiver (no shipped type
// has type parameters).
func recvName(x ast.Expr) string {
	if star, ok := x.(*ast.StarExpr); ok {
		x = star.X
	}
	return x.(*ast.Ident).Name
}

// TestExportedHasACaller keeps test-only code out of the shipped
// packages: every exported function, method, type, variable and
// constant under internal/ is named by a shipped file outside its
// package (cmd/, the root package, examples/, another internal package,
// or bench/, which pins what it imports), is mentioned by the signature
// of one that is, or is on exportAllowed with a reason. What only its own
// package uses is unexported; what only tests use moves into _test.go
// files, or into this package when tests of several packages share it.
func TestExportedHasACaller(t *testing.T) {
	t.Run("planted", func(t *testing.T) {
		files := []GoFile{
			Planted(t, "internal/p/p.go", `package p
type Used struct{ F Kept; g Hidden }
type Kept int
type Hidden int
type Lone int
func Called() Used { return Used{} }
func Unused() {}
func (Used) Method() {}
func (Used) Orphan() {}
func (Used) String() string { return "" }
const Const = 1`),
			Planted(t, "cmd/c/main.go", `package main
import "marion/internal/p"
func main() { p.Called().Method() }`),
		}
		var got []string
		for _, e := range unusedExports(files) {
			got = append(got, e.name)
		}
		if want := []string{"Hidden", "Lone", "Unused", "Used.Orphan", "Const"}; !slices.Equal(got, want) {
			t.Fatalf("unused exports %v, want %v", got, want)
		}
	})

	fset := token.NewFileSet()
	for _, e := range unusedExports(Shipped(t, fset)) {
		t.Errorf("%s: %s.%s has no caller outside its package: unexport it, move it to a test file, or delete it",
			fset.Position(e.pos), path.Base(e.dir), e.name)
	}
}
