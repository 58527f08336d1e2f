package ir

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTypeSizes(t *testing.T) {
	cases := []struct {
		t    Type
		size int
	}{
		{Void, 0}, {I8, 1}, {I16, 2}, {I32, 4}, {U32, 4}, {F32, 4}, {F64, 8}, {Ptr, 4},
	}
	for _, c := range cases {
		if c.t.Size() != c.size {
			t.Errorf("%s size = %d, want %d", c.t, c.t.Size(), c.size)
		}
	}
	if !F64.IsFloat() || I32.IsFloat() {
		t.Error("IsFloat wrong")
	}
	if !Ptr.IsInt() || F32.IsInt() {
		t.Error("IsInt wrong")
	}
}

func TestOpClassification(t *testing.T) {
	for _, op := range []Op{Eq, Ne, Lt, Le, Gt, Ge} {
		if !op.IsRel() {
			t.Errorf("%s should be relational", op)
		}
	}
	if Add.IsRel() || Cmp.IsRel() {
		t.Error("non-relational misclassified")
	}
	if !Add.Commutative() || Sub.Commutative() || Shl.Commutative() {
		t.Error("commutativity wrong")
	}
}

func TestNodeStringForms(t *testing.T) {
	var slab Slab
	n := slab.New(Add, I32, slab.Const(I32, 1), slab.Reg(I32, 3))
	if got := n.String(); got != "(1 + t3)" {
		t.Errorf("string = %q", got)
	}
	s := &Sym{Name: "g"}
	ld := slab.New(Load, F64, slab.New(Add, Ptr, slab.Addr(s), slab.Const(I32, 8)))
	if !strings.Contains(ld.String(), "&g") {
		t.Errorf("load string = %q", ld.String())
	}
}

func TestCloneIsDeep(t *testing.T) {
	var slab Slab
	n := slab.New(Add, I32, slab.Const(I32, 1), slab.Const(I32, 2))
	c := n.Clone()
	c.Kids[0].IVal = 99
	if n.Kids[0].IVal != 1 {
		t.Error("clone aliased the original")
	}
}

func TestCountParents(t *testing.T) {
	fn := NewFunc("f", I32)
	b := fn.NewBlock()
	var slab Slab
	shared := slab.New(Mul, I32, slab.Reg(I32, 0), slab.Reg(I32, 1))
	sum := slab.New(Add, I32, shared, shared)
	b.Stmts = []*Node{{Op: Asgn, Type: I32, Reg: 2, Kids: []*Node{sum}}}
	b.CountParents()
	if shared.Parents != 2 {
		t.Errorf("shared parents = %d, want 2", shared.Parents)
	}
	if sum.Parents != 1 {
		t.Errorf("sum parents = %d, want 1", sum.Parents)
	}
}

func TestMarkGlobalRegs(t *testing.T) {
	var slab Slab
	fn := NewFunc("f", I32)
	local := fn.NewReg(I32, "local")
	global := fn.NewReg(I32, "global")
	b1 := fn.NewBlock()
	b2 := fn.NewBlock()
	b1.Stmts = []*Node{
		{Op: Asgn, Type: I32, Reg: local, Kids: []*Node{slab.Const(I32, 1)}},
		{Op: Asgn, Type: I32, Reg: global, Kids: []*Node{slab.Reg(I32, local)}},
	}
	b2.Stmts = []*Node{
		{Op: Asgn, Type: I32, Reg: global, Kids: []*Node{slab.New(Add, I32, slab.Reg(I32, global), slab.Const(I32, 1))}},
	}
	fn.MarkGlobalRegs()
	if fn.Regs[local].Global {
		t.Error("local marked global")
	}
	if !fn.Regs[global].Global {
		t.Error("global not marked")
	}
}

func TestCFGEdges(t *testing.T) {
	fn := NewFunc("f", Void)
	a := fn.NewBlock()
	b := fn.NewBlock()
	a.AddEdge(b)
	if len(a.Succs) != 1 || a.Succs[0] != b || len(b.Preds) != 1 || b.Preds[0] != a {
		t.Error("edge bookkeeping wrong")
	}
	if a.Name() == b.Name() {
		t.Error("block names collide")
	}
}

// Property: Clone never shares Node pointers with the original tree.
func TestCloneNoSharingProperty(t *testing.T) {
	var slab Slab
	f := func(depth uint8, vals [8]int8) bool {
		var build func(d int, i *int) *Node
		build = func(d int, i *int) *Node {
			v := int64(vals[*i%8])
			*i++
			if d <= 0 {
				return slab.Const(I32, v)
			}
			return slab.New(Add, I32, build(d-1, i), build(d-1, i))
		}
		idx := 0
		n := build(int(depth%4), &idx)
		c := n.Clone()
		ptrs := map[*Node]bool{}
		var collect func(x *Node)
		collect = func(x *Node) {
			ptrs[x] = true
			for _, k := range x.Kids {
				collect(k)
			}
		}
		collect(n)
		ok := true
		var check func(x *Node)
		check = func(x *Node) {
			if ptrs[x] {
				ok = false
			}
			for _, k := range x.Kids {
				check(k)
			}
		}
		check(c)
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
