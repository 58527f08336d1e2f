package ir

import (
	"go/ast"
	"go/token"
	"math/bits"
	"reflect"
	"strings"
	"testing"

	"marion/internal/gentest"
)

// past is a length of int64s whose storage is past keepBytes.
const past = keepBytes/8 + 1

// filled returns a list of n values, all non-zero, with cap == n.
func filled(n int) []int64 {
	l := make([]int64, n)
	for i := range l {
		l[i] = int64(i + 1)
	}
	return l
}

// allZero reports whether every slot of l up to its cap is zero.
func allZero(l []int64) bool {
	for _, v := range l[:cap(l)] {
		if v != 0 {
			return false
		}
	}
	return true
}

func TestGrow(t *testing.T) {
	s := filled(100)
	if g := Grow(s, 60); len(g) != 60 || &g[0] != &s[0] || !allZero(g[:60:60]) {
		t.Errorf("Grow to 60 of 100: len %d, same storage %v, zeroed %v", len(g), &g[0] == &s[0], allZero(g[:60:60]))
	}
	s = filled(100)
	if g := Grow(s, 101); len(g) != 101 || !allZero(g) {
		t.Errorf("Grow past the storage: len %d, zero up to cap %v", len(g), allZero(g))
	}

	// A growing run of requests reallocates O(log n) times.
	var g []int64
	reallocs, n := 0, 1<<14
	for want := 1; want <= n; want++ {
		was := cap(g)
		g = Grow(g, want)
		if cap(g) != was {
			reallocs++
		}
	}
	if limit := 4 * bits.Len(uint(n)); reallocs > limit {
		t.Errorf("a run of sizes 1..%d reallocated %d times, want at most %d", n, reallocs, limit)
	}

	big := filled(past)
	if g := Grow(big, 10); &g[0] == &big[0] || cap(g) >= past {
		t.Errorf("Grow to 10 of a table past the bound kept its storage (cap %d)", cap(g))
	}
	big = filled(past + 10)
	if g := Grow(big, past); &g[0] != &big[0] || !allZero(g[:past:past]) {
		t.Error("Grow to a request past the bound did not reuse the storage past it, zeroed")
	}
}

func TestKeep(t *testing.T) {
	l := filled(100)[:3]
	if k := Keep(l); len(k) != 0 || cap(k) != 100 || &k[:1][0] != &l[0] || !allZero(k) {
		t.Errorf("Keep of 3 in 100: len %d, cap %d, zero up to cap %v", len(k), cap(k), allZero(k))
	}
	if k := Keep(filled(past)[:1]); k != nil {
		t.Errorf("Keep of a list past the bound kept %d slots", cap(k))
	}
	if k := Keep([]int64(nil)); k != nil {
		t.Error("Keep of nil is not nil")
	}
}

func TestKeepMap(t *testing.T) {
	id := func(m map[int64]int64) uintptr { return reflect.ValueOf(m).Pointer() }
	fill := func(n int) map[int64]int64 {
		m := make(map[int64]int64, n)
		for i := range n {
			m[int64(i)] = 1
		}
		return m
	}
	if m := KeepMap[int64, int64](nil); m == nil || len(m) != 0 {
		t.Error("KeepMap of nil is not an empty map")
	}
	small := fill(100)
	if m := KeepMap(small); id(m) != id(small) || len(m) != 0 {
		t.Errorf("KeepMap of 100 entries: same map %v, len %d", id(m) == id(small), len(m))
	}
	entries := keepBytes/16 + 1 // 16 bytes of key and value each
	big := fill(entries)
	if m := KeepMap(big); id(m) == id(big) || len(m) != 0 {
		t.Errorf("KeepMap of %d entries kept the map", entries)
	}
}

// keepBounds returns where f decides what a pooled scratch keeps by
// bytes: a call of unsafe.Sizeof, or a constant or variable named
// keep... (keepBytes, keepEntries).
func keepBounds(f gentest.GoFile) []ast.Node {
	var found []ast.Node
	ast.Inspect(f.AST, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok && n.Sel.Name == "Sizeof" && f.Imports[x.Name] == "unsafe" {
				found = append(found, n)
			}
		case *ast.ValueSpec:
			for _, name := range n.Names {
				if strings.HasPrefix(name.Name, "keep") {
					found = append(found, name)
				}
			}
		}
		return true
	})
	return found
}

// TestKeepBoundHasOneOwner keeps the decision "how much of a table does
// a pooled scratch keep" in this package (Grow, Keep, KeepMap and
// Chunks, to keepBytes): no shipped file outside it calls unsafe.Sizeof
// or declares a keep bound of its own.
func TestKeepBoundHasOneOwner(t *testing.T) {
	t.Run("planted", func(t *testing.T) {
		f := gentest.Planted(t, "internal/p/p.go", `package p
import (
	"unsafe"
	u "unsafe"
)
const (
	keepBytes   = 512 << 10
	keepEntries = 8 << 10
	kept        = 1
)
var a = unsafe.Sizeof(0) + u.Sizeof(1)
var b = unsafe.Alignof(0)`)
		if got := len(keepBounds(f)); got != 4 {
			t.Fatalf("found %d of the 4 planted keep bounds", got)
		}
	})

	fset := token.NewFileSet()
	for _, f := range gentest.Shipped(t, fset) {
		if f.Dir == "internal/ir" {
			continue
		}
		for _, n := range keepBounds(f) {
			t.Errorf("%s: a keep bound of its own: size and empty kept tables with ir.Grow, ir.Keep and ir.KeepMap",
				fset.Position(n.Pos()))
		}
	}
}
