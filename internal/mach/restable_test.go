package mach

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
)

// TestResTableMatchesModel drives a ResTable and a map from absolute
// cycle to held resources with the same seeded random operations, for
// every window from 1 to 8. Advances run past the window, so the ring
// wraps and is cleared wholesale, and a copy taken at a random moment
// must answer as the original did then.
func TestResTableMatchesModel(t *testing.T) {
	for window := 1; window <= 8; window++ {
		rng := rand.New(rand.NewSource(int64(window)))
		var tab, snap ResTable
		var model, snapModel map[int]ResSet
		now, snapNow := 0, 0
		reset := func() {
			tab.Reset(window)
			model, now = map[int]ResSet{}, 0
			snap.CopyFrom(&tab)
			snapModel, snapNow = map[int]ResSet{}, 0
		}
		reset()
		vector := func() []ResSet {
			vec := make([]ResSet, rng.Intn(window+1))
			for c := range vec {
				vec[c] = ResSet(rng.Intn(16)) << uint(rng.Intn(3)) // often empty or disjoint
			}
			return vec
		}
		fits := func(model map[int]ResSet, now int, vec []ResSet, issueOnly bool) bool {
			for c, rs := range vec {
				if (c == 0 || !issueOnly) && rs&model[now+c] != 0 {
					return false
				}
			}
			return true
		}
		for step := 0; step < 4000; step++ {
			switch op := rng.Intn(20); {
			case op == 0:
				reset()
			case op == 1:
				snap.CopyFrom(&tab)
				snapNow, snapModel = now, map[int]ResSet{}
				for c, rs := range model {
					snapModel[c] = rs
				}
			case op < 6:
				n := rng.Intn(2*window + 2) // 0 .. past the window
				tab.Advance(n)
				now += n
			case op < 12:
				vec := vector()
				tab.Reserve(vec)
				for c, rs := range vec {
					model[now+c] |= rs
				}
			default:
				vec, issueOnly := vector(), rng.Intn(3) == 0
				if got, want := tab.Fits(vec, issueOnly), fits(model, now, vec, issueOnly); got != want {
					t.Fatalf("window %d step %d: Fits(%v, %v) = %v at cycle %d, model says %v", window, step, vec, issueOnly, got, now, want)
				}
				if got, want := snap.Fits(vec, issueOnly), fits(snapModel, snapNow, vec, issueOnly); got != want {
					t.Fatalf("window %d step %d: the copy's Fits(%v, %v) = %v, model says %v", window, step, vec, issueOnly, got, want)
				}
			}
			if tab.Window() != window {
				t.Fatalf("window %d step %d: Window() = %d", window, step, tab.Window())
			}
		}
	}
}

// resVecReader reports whether the file at path is one of the places
// allowed to look inside an instruction's resource vector: mach builds
// the vectors and owns the reservation table, verify is the deliberately
// independent oracle, and the delay-slot filler compares two vectors at
// a distance no table holds. Everyone else hands the vector to a
// ResTable.
func resVecReader(path string) bool {
	dir := filepath.Base(filepath.Dir(path))
	return dir == "mach" || dir == "verify" || dir == "sched" && filepath.Base(path) == "slots.go"
}

// TestResVecHasOneReader keeps private reservation rings from growing
// back: no other non-test file under internal/ or cmd/ may range over or
// index a .ResVec (passing it on, or taking its length, is fine), and the
// simulator's old sliding window stays gone.
func TestResVecHasOneReader(t *testing.T) {
	gone := map[string]bool{"busy": true, "busyBase": true, "busyAt": true, "reserve": true}
	fset := token.NewFileSet()
	files := 0
	for _, root := range []string{"../../internal", "../../cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files++
			inSim := filepath.Base(filepath.Dir(path)) == "sim"
			ast.Inspect(f, func(n ast.Node) bool {
				var x ast.Expr // what is ranged over, indexed or sliced
				switch n := n.(type) {
				case *ast.RangeStmt:
					x = n.X
				case *ast.IndexExpr:
					x = n.X
				case *ast.SliceExpr:
					x = n.X
				case *ast.Ident:
					if inSim && gone[n.Name] {
						t.Errorf("%s: %s: the simulator's hazards live in its mach.ResTable", fset.Position(n.Pos()), n.Name)
					}
				}
				if sel, ok := x.(*ast.SelectorExpr); ok && sel.Sel.Name == "ResVec" && !resVecReader(path) {
					t.Errorf("%s: reads inside a .ResVec: ask a mach.ResTable", fset.Position(n.Pos()))
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
