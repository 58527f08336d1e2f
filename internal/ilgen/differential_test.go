package ilgen_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"marion/internal/cc"
	"marion/internal/gentest"
	"marion/internal/ilgen"
	"marion/internal/ir"
	"marion/internal/livermore"
)

// tree returns a copy of the expression under n with nothing shared:
// the statement as it was before any CSE.
func tree(n *ir.Node) *ir.Node {
	c := *n
	c.Kids = make([]*ir.Node, len(n.Kids))
	for i, k := range n.Kids {
		c.Kids[i] = tree(k)
	}
	return &c
}

// trees returns an unshared copy of every block's statements.
func trees(fn *ir.Func) []*ir.Block {
	out := make([]*ir.Block, len(fn.Blocks))
	for i, b := range fn.Blocks {
		out[i] = &ir.Block{}
		for _, s := range b.Stmts {
			out[i].Stmts = append(out[i].Stmts, tree(s))
		}
	}
	return out
}

// dump renders a block's statement DAG with its sharing: nodes are
// numbered at their first visit and a revisit prints the number.
func dump(b *ir.Block) string {
	var sb strings.Builder
	num := map[*ir.Node]int{}
	var walk func(n *ir.Node)
	walk = func(n *ir.Node) {
		if id, ok := num[n]; ok {
			fmt.Fprintf(&sb, "#%d ", id)
			return
		}
		num[n] = len(num)
		fmt.Fprintf(&sb, "(%d:%v %v %v r%d i%d p%d", num[n], n.Op, n.Type, n.From, n.Reg, n.IVal, n.Parents)
		if n.Sym != nil {
			sb.WriteString(" " + n.Sym.Name)
		}
		sb.WriteByte(' ')
		for _, k := range n.Kids {
			walk(k)
		}
		sb.WriteString(") ")
	}
	for _, s := range b.Stmts {
		walk(s)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestCSEMatchesReference: on every function of Livermore,
// gentest.Golden and 100 generated high-pressure bodies, the pass shares
// exactly the nodes the map-based pass it replaced shared, recorded in
// testdata/cse.sha256. (None of these sources holds a -0.0 or a NaN
// constant, the one place the two are meant to differ:
// TestCSEConstantsByBits.)
func TestCSEMatchesReference(t *testing.T) {
	var units []gentest.Unit
	for _, k := range livermore.Kernels {
		units = append(units, gentest.Unit{Name: fmt.Sprintf("loop%d.c", k.ID), Lang: "c", Text: k.Source})
	}
	units = append(append(units, gentest.Golden()...), gentest.Generated(100)...)

	pins := gentest.ReadPins(t, "testdata/cse.sha256")
	line := gentest.NewLine("cse")
	answers := map[string]string{}
	// One table for the whole corpus, as Lower keeps one for a unit:
	// every block finds it sized and filled by a different block.
	var tab ilgen.CSETable
	fns, shared := 0, 0
	for _, u := range units {
		file, err := cc.Compile(u.Name, u.Text)
		if err != nil {
			t.Fatalf("%s: %v", u.Name, err)
		}
		mod, err := ilgen.Lower(file)
		if err != nil {
			t.Fatalf("%s: %v", u.Name, err)
		}
		for _, fn := range mod.Funcs {
			fns++
			got := trees(fn)
			ilgen.CSEFunc(&tab, got, len(fn.Regs))
			var sb strings.Builder
			for bi, b := range got {
				fmt.Fprintf(&sb, "block %d\n%s", bi, dump(b))
			}
			name := u.Name + ":" + fn.Name
			line.Add(name, sb.String())
			answers[name] = sb.String()
			shared += strings.Count(sb.String(), "#")
		}
	}
	if name, ok := pins.Check(t, line.String()); !ok && name != "" {
		t.Errorf("%s now shares\n%s", name, answers[name])
	}
	if shared == 0 {
		t.Error("no common subexpression in the whole corpus")
	}
	t.Logf("%d functions, %d shared references", fns, shared)
}

// TestCSEConstantsByBits: floating constants are one value when their
// bits are equal. +0.0 and -0.0 compare equal as float64 but are
// different values (1/x tells them apart), and a NaN is the same value
// as itself although it compares unequal.
func TestCSEConstantsByBits(t *testing.T) {
	var slab ir.Slab
	nan := math.NaN()
	negZero := math.Copysign(0, -1)
	store := func(v float64) *ir.Node {
		return slab.New(ir.Store, ir.F64, slab.New(ir.Frame, ir.Ptr), slab.FConst(ir.F64, v))
	}
	b := &ir.Block{Stmts: []*ir.Node{store(0), store(negZero), store(0), store(nan), store(nan), store(1.5), store(1.5)}}
	ilgen.CSEFunc(new(ilgen.CSETable), []*ir.Block{b}, 0)
	val := func(i int) *ir.Node { return b.Stmts[i].Kids[1] }
	if val(0) == val(1) {
		t.Error("+0.0 and -0.0 share a node")
	}
	if val(0) != val(2) || math.Signbit(val(0).Float()) || !math.Signbit(val(1).Float()) {
		t.Error("the two +0.0 do not share a node, or a zero changed sign")
	}
	if val(3) != val(4) {
		t.Error("two NaNs of equal bits do not share a node")
	}
	if val(5) != val(6) {
		t.Error("two 1.5 do not share a node")
	}
}
