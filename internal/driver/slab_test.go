package driver_test

import (
	"fmt"
	"slices"
	"testing"

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
