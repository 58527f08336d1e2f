package cdag_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"marion/internal/asm"
	"marion/internal/cdag"
	"marion/internal/driver"
	"marion/internal/ir"
	"marion/internal/livermore"
	"marion/internal/mach"
	"marion/internal/regalloc"
	"marion/internal/sel"
	"marion/internal/strategy"
	"marion/internal/targets"
	"marion/internal/xform"
)

// protectReference is the protection pass as it stood before the
// descendant closure: a fresh backward search per alternate entry and a
// fresh forward reachability search per clock-affecting ancestor. It is
// the oracle the closure-based pass is compared against, and works on
// the exported graph only.
func protectReference(g *cdag.Graph) {
	n := len(g.Nodes)
	if n == 0 || len(g.M.Clocks) == 0 {
		return
	}
	addEdge := func(from, to int) {
		for _, e := range g.Nodes[from].Succs {
			if e.To == to {
				return
			}
		}
		g.Nodes[from].Succs = append(g.Nodes[from].Succs, cdag.Edge{To: to, Type: cdag.Extra, Clock: -1})
		g.Nodes[to].Preds = append(g.Nodes[to].Preds, cdag.Edge{To: from, Type: cdag.Extra, Clock: -1})
	}

	// reach reports whether there is a path from a to b (for cycle
	// avoidance when inserting protection edges).
	var reach func(a, b int, seen []bool) bool
	reach = func(a, b int, seen []bool) bool {
		if a == b {
			return true
		}
		if seen[a] {
			return false
		}
		seen[a] = true
		for _, e := range g.Nodes[a].Succs {
			if reach(e.To, b, seen) {
				return true
			}
		}
		return false
	}

	for k := range g.M.Clocks {
		headK := make([]int, n)
		isMember := make([]bool, n)
		for i := range headK {
			headK[i] = i
		}
		for i := range g.Nodes {
			for _, e := range g.Nodes[i].Preds {
				if e.Type == cdag.True && e.Clock == k {
					headK[i] = headK[e.To]
					isMember[i] = true
				}
			}
		}

		for i := range g.Nodes {
			if !isMember[i] {
				continue
			}
			h := headK[i]
			for _, e := range g.Nodes[i].Preds {
				if e.Type == cdag.True && e.Clock == k && headK[e.To] == h {
					continue // the in-sequence temporal edge itself
				}
				visited := make([]bool, n)
				stack := []int{e.To}
				for len(stack) > 0 {
					z := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					if visited[z] {
						continue
					}
					visited[z] = true
					if g.Nodes[z].Inst.Tmpl.AffectsClock == k && headK[z] != h && z != h {
						switch {
						case !reach(h, z, make([]bool, n)):
							addEdge(z, h)
						case headK[z] != z && headK[z] != h && !reach(h, headK[z], make([]bool, n)):
							addEdge(headK[z], h)
						}
					}
					for _, pe := range g.Nodes[z].Preds {
						stack = append(stack, pe.To)
					}
				}
			}
		}
	}
}

// edgeSet renders a graph's edges, as seen from Succs and from Preds,
// in a canonical order.
func edgeSet(g *cdag.Graph) (succs, preds []string) {
	for i, nd := range g.Nodes {
		for _, e := range nd.Succs {
			succs = append(succs, fmt.Sprintf("%d->%d l%d t%d c%d", i, e.To, e.Latency, e.Type, e.Clock))
		}
		for _, e := range nd.Preds {
			preds = append(preds, fmt.Sprintf("%d->%d l%d t%d c%d", e.To, i, e.Latency, e.Type, e.Clock))
		}
	}
	sort.Strings(succs)
	sort.Strings(preds)
	return succs, preds
}

// checkBlock compares the protection pass with the reference on one
// block; it returns the number of protection edges the block needed.
func checkBlock(t *testing.T, m *mach.Machine, b *asm.Block, where string) int {
	t.Helper()
	got := cdag.Build(m, b, cdag.Options{})
	want := cdag.Build(m, b, cdag.Options{NoProtect: true})
	before, _ := edgeSet(want)
	protectReference(want)
	gs, gp := edgeSet(got)
	ws, wp := edgeSet(want)
	if fmt.Sprint(gs) != fmt.Sprint(ws) {
		t.Errorf("%s: successor edges differ from the reference\n got %v\nwant %v", where, gs, ws)
	}
	if fmt.Sprint(gp) != fmt.Sprint(wp) {
		t.Errorf("%s: predecessor edges differ from the reference\n got %v\nwant %v", where, gp, wp)
	}
	if fmt.Sprint(gs) != fmt.Sprint(gp) {
		t.Errorf("%s: Succs and Preds disagree", where)
	}
	return len(ws) - len(before)
}

// stripped returns the block as a strategy hands it to a rescheduling
// pass: delay-slot nops removed, issue cycles forgotten.
func stripped(m *mach.Machine, b *asm.Block) *asm.Block {
	out := &asm.Block{IR: b.IR}
	for _, in := range b.Insts {
		if in.Tmpl == m.Nop && len(in.Args) == 0 {
			continue
		}
		c := *in
		c.Cycle = -1
		out.Insts = append(out.Insts, &c)
	}
	return out
}

// TestProtectMatchesReference: on every clocked target, the closure
// protection pass inserts exactly the reference's edges on every block
// of Livermore, examples/c and the big-block fixture — as selected, as
// allocated, and as emitted by postpass, ips and rase (both as packed
// words and stripped for rescheduling, which is the order the second
// scheduling pass sees temporal sequences interleaved in).
func TestProtectMatchesReference(t *testing.T) {
	srcs, err := filepath.Glob("../../examples/c/*.c")
	if err != nil || len(srcs) == 0 {
		t.Fatalf("no examples/c sources: %v", err)
	}
	sort.Strings(srcs)
	srcs = append(srcs, "../driver/testdata/bigblock.c")
	// Lowering is repeated per use: selection and strategies consume
	// the module they are given.
	modules := func() []*ir.Module {
		suite, err := livermore.SuiteModule()
		if err != nil {
			t.Fatal(err)
		}
		mods := []*ir.Module{suite}
		for _, path := range srcs {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			mod, err := driver.Frontend(filepath.Base(path), string(src))
			if err != nil {
				t.Fatal(err)
			}
			mods = append(mods, mod)
		}
		return mods
	}

	clocked := 0
	for _, target := range targets.Names() {
		m, err := targets.Load(target)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Clocks) == 0 {
			continue
		}
		clocked++
		blocks, edges := 0, 0
		for _, mod := range modules() {
			for _, fn := range mod.Funcs {
				xform.Apply(m, fn)
				af, err := sel.Select(m, fn)
				if err != nil {
					t.Fatalf("%s %s: select: %v", target, fn.Name, err)
				}
				for bi, b := range af.Blocks {
					edges += checkBlock(t, m, b, fmt.Sprintf("%s %s:%s block %d selected", target, mod.Name, fn.Name, bi))
					blocks++
				}
				if _, err := regalloc.Allocate(m, af); err != nil {
					t.Fatalf("%s %s: allocate: %v", target, fn.Name, err)
				}
				for bi, b := range af.Blocks {
					edges += checkBlock(t, m, b, fmt.Sprintf("%s %s:%s block %d allocated", target, mod.Name, fn.Name, bi))
					blocks++
				}
			}
		}
		for _, kind := range []strategy.Kind{strategy.Postpass, strategy.IPS, strategy.RASE} {
			for _, mod := range modules() {
				c, err := driver.CompileModule(m, mod, driver.Config{Strategy: kind})
				if err != nil {
					t.Fatalf("%s/%s %s: %v", target, kind, mod.Name, err)
				}
				for _, af := range c.Prog.Funcs {
					for bi, b := range af.Blocks {
						where := fmt.Sprintf("%s/%s %s:%s block %d", target, kind, mod.Name, af.Name, bi)
						edges += checkBlock(t, m, b, where+" emitted")
						edges += checkBlock(t, m, stripped(m, b), where+" stripped")
						blocks += 2
					}
				}
			}
		}
		if edges == 0 {
			t.Errorf("%s: no block of the corpus needed a protection edge", target)
		}
		t.Logf("%s: %d block states, %d protection edges", target, blocks, edges)
	}
	if clocked == 0 {
		t.Error("no registered target declares a clock")
	}
}
