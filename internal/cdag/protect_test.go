package cdag_test

import (
	"fmt"
	"reflect"
	"testing"

	"marion/internal/asm"
	"marion/internal/cdag"
	"marion/internal/driver"
	"marion/internal/gentest"
	"marion/internal/iltext"
	"marion/internal/ir"
	"marion/internal/livermore"
	"marion/internal/mach"
	"marion/internal/regalloc"
	"marion/internal/sched"
	"marion/internal/sel"
	"marion/internal/strategy"
	"marion/internal/targets"
	"marion/internal/xform"
)

// addReferenceEdge adds the latency-0 Extra edge from -> to unless the
// pair has an edge already.
func addReferenceEdge(g *cdag.Graph, from, to int) {
	for _, e := range g.Nodes[from].Succs {
		if int(e.To) == to {
			return
		}
	}
	g.Nodes[from].Succs = append(g.Nodes[from].Succs, cdag.Edge{To: int32(to), Type: cdag.Extra, Clock: -1})
	g.Nodes[to].Preds = append(g.Nodes[to].Preds, cdag.Edge{To: int32(from), Type: cdag.Extra, Clock: -1})
}

// branchLastReference is the branch-last rule as the paper states it
// (§4.1): every other node gets an edge to the final control transfer.
func branchLastReference(g *cdag.Graph) {
	n := len(g.Nodes)
	if n == 0 || !g.Nodes[n-1].Inst.Tmpl.Transfers() {
		return
	}
	for i := 0; i < n-1; i++ {
		addReferenceEdge(g, i, n-1)
	}
}

// protectReference is the protection pass as the paper states it
// (§4.6): a backward search per alternate entry, a forward reachability
// search per clock-affecting ancestor, and an edge for every ancestor
// found, implied by a path or not. It is the oracle the shipped pass is
// compared against — for the partial order and the schedule, not the
// edge list — and works on the exported graph only.
func protectReference(g *cdag.Graph) {
	n := len(g.Nodes)
	if n == 0 || len(g.M.Clocks) == 0 {
		return
	}
	addEdge := func(from, to int) { addReferenceEdge(g, from, to) }

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
			if reach(int(e.To), b, seen) {
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
				if e.Type == cdag.True && int(e.Clock) == k {
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
				if e.Type == cdag.True && int(e.Clock) == k && headK[e.To] == h {
					continue // the in-sequence temporal edge itself
				}
				visited := make([]bool, n)
				stack := []int{int(e.To)}
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
						stack = append(stack, int(pe.To))
					}
				}
			}
		}
	}
}

// closureOf returns the reachability closure of g: row a lists, as a
// bitset, the nodes a reaches by one or more edges.
func closureOf(g *cdag.Graph) [][]uint64 {
	n := len(g.Nodes)
	rows := make([][]uint64, n)
	var fill func(a int)
	fill = func(a int) {
		rows[a] = make([]uint64, (n+63)/64)
		for _, e := range g.Nodes[a].Succs {
			if rows[e.To] == nil {
				fill(int(e.To))
			}
			for w, x := range rows[e.To] {
				rows[a][w] |= x
			}
			rows[a][e.To>>6] |= 1 << (uint(e.To) & 63)
		}
	}
	for a := range g.Nodes {
		if rows[a] == nil {
			fill(a)
		}
	}
	return rows
}

// edgeSet returns a graph's Succs edges keyed by (from, to), checking
// on the way that Preds holds the same edges.
func edgeSet(t *testing.T, g *cdag.Graph, where string) map[[2]int32]cdag.Edge {
	t.Helper()
	set := map[[2]int32]cdag.Edge{}
	for i, nd := range g.Nodes {
		for _, e := range nd.Succs {
			set[[2]int32{int32(i), e.To}] = e
		}
	}
	preds := 0
	for i, nd := range g.Nodes {
		for _, e := range nd.Preds {
			preds++
			s, ok := set[[2]int32{e.To, int32(i)}]
			if s.To = e.To; !ok || s != e {
				t.Errorf("%s: Preds edge %d->%d %+v is not in Succs", where, e.To, i, e)
			}
		}
	}
	if preds != len(set) {
		t.Errorf("%s: %d edges in Preds, %d distinct in Succs", where, preds, len(set))
	}
	return set
}

// schedOptions returns the option sets the strategies schedule a block
// of af under: the default, the ablations, IPS's prepass limit and
// RASE's tight estimate.
func schedOptions(m *mach.Machine, af *asm.Func) map[string]sched.Options {
	_, cross := af.PseudoHomes()
	liveOut := sched.LiveOutPseudos(af, cross)
	ips, rase := map[*mach.RegSet]int{}, map[*mach.RegSet]int{}
	for _, rs := range m.RegSets {
		if k := len(m.AllocableIn(rs)); k > 0 {
			ips[rs] = max(k-1, 2)
			if k > 2 {
				rase[rs] = k - 2
			}
		}
	}
	return map[string]sched.Options{
		"default":          {},
		"FIFO":             {FIFO: true},
		"CurrentCycleOnly": {CurrentCycleOnly: true},
		"ips":              {MaxLive: ips, LiveOut: liveOut},
		"rase":             {MaxLive: rase, LiveOut: liveOut},
	}
}

// blockStats counts what checkBlock saw.
type blockStats struct {
	states, edges, refEdges int // Extra edges: shipped, reference
}

// checkBlock holds the shipped graph of one block state to what is
// promised of it against the reference graph — the dependence edges
// plus the paper's branch-last and protection edge sets, every edge
// present: the same reachability closure, a subset of the edges, and
// the same schedule from sched.Run under every option set.
func checkBlock(t *testing.T, m *mach.Machine, af *asm.Func, b *asm.Block, where string, st *blockStats) {
	t.Helper()
	got := cdag.Build(m, b, cdag.Options{})
	want := cdag.Build(m, b, cdag.Options{NoProtect: true})
	branchLastReference(want)
	protectReference(want)

	if !reflect.DeepEqual(closureOf(got), closureOf(want)) {
		t.Errorf("%s: reachability closure differs from the reference's", where)
	}
	ws := edgeSet(t, want, where+" (reference)")
	for at, e := range edgeSet(t, got, where) {
		if w, ok := ws[at]; !ok || w != e {
			t.Errorf("%s: edge %d->%d %+v is not in the reference", where, at[0], at[1], e)
		}
	}
	for name, opts := range schedOptions(m, af) {
		gr, gerr := sched.Run(m, af, b, got, opts)
		wr, werr := sched.Run(m, af, b, want, opts)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) || !reflect.DeepEqual(gr, wr) {
			t.Errorf("%s: %s schedule differs from the reference graph's:\n got %v %v\nwant %v %v", where, name, gr, gerr, wr, werr)
		}
	}
	st.states++
	for i := range got.Nodes {
		for _, e := range got.Nodes[i].Succs {
			if e.Type == cdag.Extra {
				st.edges++
			}
		}
		for _, e := range want.Nodes[i].Succs {
			if e.Type == cdag.Extra {
				st.refEdges++
			}
		}
	}
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

// frontEnds maps a gentest unit's language to its front end.
var frontEnds = map[string]func(name, src string) (*ir.Module, error){"c": driver.Frontend, "il": iltext.Parse}

// TestProtectMatchesReference: on r2000 and m88000 (the branch-last
// rule) and on every clocked target (the protection pass as well), the
// shipped graph of every block of Livermore, gentest.Golden, the serve
// units and 24 generated high-pressure bodies has the reference's
// closure, a subset of its edges and its schedules — as selected, as
// allocated, and as emitted by postpass, ips and rase (both as packed
// words and stripped for rescheduling, which is the order the second
// scheduling pass sees temporal sequences interleaved in).
func TestProtectMatchesReference(t *testing.T) {
	units := append(append(gentest.Golden(), gentest.Serve()...), gentest.Generated(24)...)
	// Lowering is repeated per use: selection and strategies consume
	// the module they are given.
	modules := func() []*ir.Module {
		suite, err := livermore.SuiteModule()
		if err != nil {
			t.Fatal(err)
		}
		mods := []*ir.Module{suite}
		for _, u := range units {
			mod, err := frontEnds[u.Lang](u.Name, u.Text)
			if err != nil {
				t.Fatalf("%s: %v", u.Name, err)
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
		if len(m.Clocks) > 0 {
			clocked++
		} else if target != "r2000" && target != "m88000" {
			continue
		}
		var st blockStats
		for _, mod := range modules() {
			for _, fn := range mod.Funcs {
				xform.Apply(m, fn)
				af, err := sel.Select(m, fn)
				if err != nil {
					t.Fatalf("%s %s: select: %v", target, fn.Name, err)
				}
				for bi, b := range af.Blocks {
					checkBlock(t, m, af, b, fmt.Sprintf("%s %s:%s block %d selected", target, mod.Name, fn.Name, bi), &st)
				}
				if _, err := regalloc.Allocate(m, af); err != nil {
					t.Fatalf("%s %s: allocate: %v", target, fn.Name, err)
				}
				for bi, b := range af.Blocks {
					checkBlock(t, m, af, b, fmt.Sprintf("%s %s:%s block %d allocated", target, mod.Name, fn.Name, bi), &st)
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
						checkBlock(t, m, af, b, where+" emitted", &st)
						checkBlock(t, m, af, stripped(m, b), where+" stripped", &st)
					}
				}
			}
		}
		if st.edges == 0 || st.edges >= st.refEdges {
			t.Errorf("%s: %d Extra edges where the reference has %d: the corpus shows no implied edge being dropped", target, st.edges, st.refEdges)
		}
		t.Logf("%s: %d block states, %d Extra edges, %d in the reference", target, st.states, st.edges, st.refEdges)
	}
	if clocked == 0 {
		t.Error("no registered target declares a clock")
	}
}
