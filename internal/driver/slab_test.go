package driver_test

import (
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"marion/internal/driver"
	"marion/internal/gentest"
	"marion/internal/iltext"
	"marion/internal/ir"
	"marion/internal/livermore"
)

// TestFrontEndSlabs lowers the Livermore kernels, gentest.Golden and the
// serve units through both front ends — a C unit through Frontend, then
// its printed IL through iltext.Parse; an IL unit through iltext.Parse
// twice — and holds the nodes they carve from slabs to what the back end
// relies on: every kid list has cap == len, appending to one node's Kids
// changes no other node, and the textual IL round-trips byte for byte.
func TestFrontEndSlabs(t *testing.T) {
	var units []gentest.Unit
	for _, k := range livermore.Kernels {
		units = append(units, gentest.Unit{Name: fmt.Sprintf("loop%d.c", k.ID), Lang: "c", Text: k.Source})
	}
	units = append(append(units, gentest.Golden()...), gentest.Serve()...)
	for _, u := range units {
		mod, err := driver.Lower(u.Lang, u.Name, u.Text)
		if err != nil {
			t.Fatal(err)
		}
		text := iltext.Print(mod)
		parsed, err := iltext.Parse(u.Name, text)
		if err != nil {
			t.Fatal(err)
		}
		if got := iltext.Print(parsed); got != text {
			t.Errorf("%s: Print(Parse(Print(IL))) differs from Print(IL)", u.Name)
		}
		checkKidLists(t, u.Name+" ("+u.Lang+")", mod)
		checkKidLists(t, u.Name+" (IL)", parsed)
	}
}

// checkKidLists checks every node of mod for cap(Kids) == len(Kids),
// then appends a kid to every node and checks that no node's kid list
// as it was before saw the write. It leaves mod's IL changed.
func checkKidLists(t *testing.T, name string, mod *ir.Module) {
	t.Helper()
	var nodes []*ir.Node
	var visit func(w ir.Walk, n *ir.Node)
	visit = func(w ir.Walk, n *ir.Node) {
		if !w.Visit(n) {
			return
		}
		nodes = append(nodes, n)
		for _, k := range n.Kids {
			visit(w, k)
		}
	}
	for _, fn := range mod.Funcs {
		w := ir.NewWalk()
		for _, b := range fn.Blocks {
			for _, s := range b.Stmts {
				visit(w, s)
			}
		}
	}
	was := make([][]*ir.Node, len(nodes))
	kids := make([][]*ir.Node, len(nodes))
	for i, n := range nodes {
		if cap(n.Kids) != len(n.Kids) {
			t.Fatalf("%s: %s: %d kids with room for %d", name, n, len(n.Kids), cap(n.Kids))
		}
		was[i], kids[i] = n.Kids, slices.Clone(n.Kids)
	}
	extra := new(ir.Slab).Const(ir.I32, 0)
	for _, n := range nodes {
		n.Kids = append(n.Kids, extra)
	}
	for i := range nodes {
		if !slices.Equal(was[i], kids[i]) {
			t.Fatalf("%s: appending to a node's kids rewrote another node's", name)
		}
	}
	if len(nodes) == 0 {
		t.Fatalf("%s: no nodes", name)
	}
}

// TestFrontEndCFGViews lowers the Livermore kernels, gentest.Golden and
// the serve units through both front ends — each unit as it comes, then
// its printed IL — each to keep (Lower) and scoped (LowerScoped, given
// back after the check), and holds every function to the shape its CFG
// was copied out in: its blocks are one array; its Blocks, then every
// block's Succs, then every block's Preds are views of one list, each
// with cap == len; and appending to one block's edges or statements
// changes no other block's.
func TestFrontEndCFGViews(t *testing.T) {
	var units []gentest.Unit
	for _, k := range livermore.Kernels {
		units = append(units, gentest.Unit{Name: fmt.Sprintf("loop%d.c", k.ID), Lang: "c", Text: k.Source})
	}
	units = append(append(units, gentest.Golden()...), gentest.Serve()...)
	funcs := 0
	for _, u := range units {
		mod, err := driver.Lower(u.Lang, u.Name, u.Text)
		if err != nil {
			t.Fatal(err)
		}
		text := iltext.Print(mod)
		for _, src := range []gentest.Unit{u, {Name: u.Name, Lang: "il", Text: text}} {
			for _, scoped := range []bool{false, true} {
				what := fmt.Sprintf("%s (%s, scoped %v)", u.Name, src.Lang, scoped)
				mod, done := lowerUnitScoped(t, src, scoped)
				for _, fn := range mod.Funcs {
					checkCFGViews(t, what+" "+fn.Name, fn)
					funcs++
				}
				done()
			}
		}
	}
	if funcs == 0 {
		t.Fatal("no function checked")
	}
}

// lowerUnitScoped lowers u, scoped or to keep; done gives a scoped
// unit's IL back.
func lowerUnitScoped(t *testing.T, u gentest.Unit, scoped bool) (*ir.Module, func()) {
	t.Helper()
	if !scoped {
		mod, err := driver.Lower(u.Lang, u.Name, u.Text)
		if err != nil {
			t.Fatal(err)
		}
		return mod, func() {}
	}
	mod, done, err := driver.LowerScoped(u.Lang, u.Name, u.Text)
	if err != nil {
		t.Fatal(err)
	}
	return mod, done
}

// checkCFGViews checks fn's blocks and edge lists against the layout
// ir.CFG copies them out in, then appends to every block's edges and
// statements and checks that no other block saw it. It leaves fn's
// lists changed.
func checkCFGViews(t *testing.T, what string, fn *ir.Func) {
	t.Helper()
	n := len(fn.Blocks)
	if n == 0 || cap(fn.Blocks) != n {
		t.Fatalf("%s: %d blocks with room for %d", what, n, cap(fn.Blocks))
	}
	blocks := unsafe.Slice(fn.Blocks[0], n)
	total := n
	for i, b := range fn.Blocks {
		if b != &blocks[i] {
			t.Fatalf("%s: block %d is not in the array of block 0", what, i)
		}
		total += len(b.Succs) + len(b.Preds)
	}
	list := unsafe.Slice(&fn.Blocks[0], total)
	at := n
	for _, edges := range []func(*ir.Block) []*ir.Block{
		func(b *ir.Block) []*ir.Block { return b.Succs },
		func(b *ir.Block) []*ir.Block { return b.Preds },
	} {
		for _, b := range fn.Blocks {
			l := edges(b)
			if cap(l) != len(l) {
				t.Fatalf("%s: %s has %d edges with room for %d", what, b.Name(), len(l), cap(l))
			}
			if len(l) > 0 && &l[0] != &list[at] {
				t.Fatalf("%s: %s's edges are not at %d of the function's list", what, b.Name(), at)
			}
			at += len(l)
		}
	}
	type lists struct {
		succs, preds []*ir.Block
		stmts        []*ir.Node
	}
	was := make([]lists, n)
	for i, b := range fn.Blocks {
		if cap(b.Stmts) != len(b.Stmts) {
			t.Fatalf("%s: %s has %d statements with room for %d", what, b.Name(), len(b.Stmts), cap(b.Stmts))
		}
		was[i] = lists{slices.Clone(b.Succs), slices.Clone(b.Preds), slices.Clone(b.Stmts)}
	}
	stmt := new(ir.Slab).New(ir.Ret, ir.Void)
	for _, b := range fn.Blocks {
		b.Succs = append(b.Succs, b)
		b.Preds = append(b.Preds, b)
		b.Stmts = append(b.Stmts, stmt)
	}
	for i, b := range fn.Blocks {
		if !slices.Equal(b.Succs[:len(b.Succs)-1], was[i].succs) || !slices.Equal(b.Preds[:len(b.Preds)-1], was[i].preds) ||
			!slices.Equal(b.Stmts[:len(b.Stmts)-1], was[i].stmts) {
			t.Fatalf("%s: appending to the blocks' edges and statements rewrote %s's", what, b.Name())
		}
	}
	if !slices.Equal(list[:n], blockPtrs(blocks)) {
		t.Fatalf("%s: appending to the blocks' edges rewrote the function's blocks", what)
	}
}

func blockPtrs(blocks []ir.Block) []*ir.Block {
	ptrs := make([]*ir.Block, len(blocks))
	for i := range blocks {
		ptrs[i] = &blocks[i]
	}
	return ptrs
}
