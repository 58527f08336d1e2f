package mach

import (
	"go/ast"
	"go/token"
	"math/rand"
	"path"
	"strings"
	"testing"

	"marion/internal/gentest"
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

// resVecReader reports whether file is one of the places
// allowed to look inside an instruction's resource vector: mach builds
// the vectors and owns the reservation table, verify is the deliberately
// independent oracle, and the delay-slot filler compares two vectors at
// a distance no table holds. Everyone else hands the vector to a
// ResTable.
func resVecReader(file string) bool {
	dir := path.Dir(file)
	return dir == "internal/mach" || dir == "internal/verify" || file == "internal/sched/slots.go"
}

// resVecReads returns where f looks inside a .ResVec (ranges over,
// indexes or slices it) and, in the simulator, names its old sliding
// window.
func resVecReads(f gentest.GoFile) []ast.Node {
	gone := map[string]bool{"busy": true, "busyBase": true, "busyAt": true, "reserve": true}
	var bad []ast.Node
	ast.Inspect(f.AST, func(n ast.Node) bool {
		var x ast.Expr // what is ranged over, indexed or sliced
		switch n := n.(type) {
		case *ast.RangeStmt:
			x = n.X
		case *ast.IndexExpr:
			x = n.X
		case *ast.SliceExpr:
			x = n.X
		case *ast.Ident:
			if f.Dir == "internal/sim" && gone[n.Name] {
				bad = append(bad, n)
			}
		}
		if sel, ok := x.(*ast.SelectorExpr); ok && sel.Sel.Name == "ResVec" {
			bad = append(bad, n)
		}
		return true
	})
	return bad
}

// TestResVecHasOneReader keeps private reservation rings from growing
// back: no other non-test file under internal/ or cmd/ may range over or
// index a .ResVec (passing it on, or taking its length, is fine), and the
// simulator's old sliding window stays gone.
func TestResVecHasOneReader(t *testing.T) {
	t.Run("planted", func(t *testing.T) {
		f := gentest.Planted(t, "internal/sim/p.go", `package sim
func f(in *mach.Instr, t *mach.ResTable) {
	for range in.ResVec {}
	_ = in.ResVec[0]
	_ = in.ResVec[1:]
	var busy []mach.ResSet
	t.Reserve(in.ResVec)
	_ = len(in.ResVec)
}`)
		if got := len(resVecReads(f)); got != 4 {
			t.Fatalf("found %d of the 4 planted reads", got)
		}
	})

	fset := token.NewFileSet()
	for _, f := range gentest.Shipped(t, fset) {
		if !strings.HasPrefix(f.Dir, "internal/") && !strings.HasPrefix(f.Dir, "cmd/") || resVecReader(f.Path) {
			continue
		}
		for _, n := range resVecReads(f) {
			t.Errorf("%s: reads inside a .ResVec or keeps a sliding window: ask a mach.ResTable", fset.Position(n.Pos()))
		}
	}
}
