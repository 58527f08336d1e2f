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
	b := new(Block)
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
	var cfg CFG
	fn := NewFunc("f", I32)
	cfg.Begin(fn)
	local := cfg.NewReg(I32, "local")
	global := cfg.NewReg(I32, "global")
	cfg.Start(cfg.NewBlock(), 0)
	cfg.Append(
		&Node{Op: Asgn, Type: I32, Reg: local, Kids: []*Node{slab.Const(I32, 1)}},
		&Node{Op: Asgn, Type: I32, Reg: global, Kids: []*Node{slab.Reg(I32, local)}},
	)
	cfg.Start(cfg.NewBlock(), 0)
	cfg.Append(
		&Node{Op: Asgn, Type: I32, Reg: global, Kids: []*Node{slab.New(Add, I32, slab.Reg(I32, global), slab.Const(I32, 1))}},
		slab.New(Ret, Void),
	)
	if err := cfg.Finish(&slab, false); err != nil {
		t.Fatal(err)
	}
	cfg.MarkGlobalRegs(fn)
	if fn.Regs[local].Global {
		t.Error("local marked global")
	}
	if !fn.Regs[global].Global {
		t.Error("global not marked")
	}
}

// cfgFunc builds, in layout order, b0: branch to b2, falling through to
// b1; b1: jump to b3; d1: jump to d2; b2: jump to b3; d2: return; b3:
// return. d1 has no predecessor and d2 none but d1, which comes first.
func cfgFunc(cfg *CFG, slab *Slab) *Func {
	fn := NewFunc("f", Void)
	cfg.Begin(fn)
	b0, b1, d1, b2, d2, b3 := cfg.NewBlock(), cfg.NewBlock(), cfg.NewBlock(), cfg.NewBlock(), cfg.NewBlock(), cfg.NewBlock()
	cfg.Start(b0, 0)
	cfg.Append(cfg.Branch(slab, b2, slab.Const(I32, 1)))
	cfg.Start(b1, 0)
	cfg.Append(cfg.Jump(slab, b3))
	cfg.Start(d1, 0)
	cfg.Append(cfg.Jump(slab, d2))
	cfg.Start(b2, 2)
	cfg.Append(cfg.Jump(slab, b3))
	cfg.Start(d2, 0)
	cfg.Append(slab.New(Ret, Void))
	cfg.Start(b3, 0)
	cfg.Append(slab.New(Ret, Void))
	return fn
}

// TestCFGFinish: edges follow the statements and the layout, pruning
// drops the blocks nothing reaches in layout order, IDs survive, branch
// targets name the built blocks, and every list is a cap == len view.
func TestCFGFinish(t *testing.T) {
	var cfg CFG
	var slab Slab
	names := func(bs []*Block) string {
		var s []string
		for _, b := range bs {
			s = append(s, b.Name())
		}
		return strings.Join(s, " ")
	}
	for _, c := range []struct {
		prune              bool
		blocks, succs, pre string
	}{
		{true, "L0 L1 L3 L5", "L3 L1|L5|L5|", "|L0|L0|L1 L3"},
		{false, "L0 L1 L2 L3 L4 L5", "L3 L1|L5|L4|L5||", "|L0||L0|L2|L1 L3"},
	} {
		fn := cfgFunc(&cfg, &slab)
		if err := cfg.Finish(&slab, c.prune); err != nil {
			t.Fatal(err)
		}
		var succs, preds []string
		for _, b := range fn.Blocks {
			succs, preds = append(succs, names(b.Succs)), append(preds, names(b.Preds))
			for _, l := range [][]*Block{b.Succs, b.Preds} {
				if cap(l) != len(l) {
					t.Errorf("%s: a list of cap %d holds %d", b.Name(), cap(l), len(l))
				}
			}
			if cap(b.Stmts) != len(b.Stmts) {
				t.Errorf("%s: statements of cap %d hold %d", b.Name(), cap(b.Stmts), len(b.Stmts))
			}
			if last := b.Stmts[len(b.Stmts)-1]; last.Target != nil && last.Target.Fn != fn {
				t.Errorf("%s: branch target outside the function", b.Name())
			}
			if want := map[string]int{"L3": 2}[b.Name()]; b.LoopDepth != want {
				t.Errorf("%s: loop depth %d, want %d", b.Name(), b.LoopDepth, want)
			}
		}
		if got := names(fn.Blocks); got != c.blocks || cap(fn.Blocks) != len(fn.Blocks) {
			t.Errorf("prune %v: blocks %q (cap %d), want %q", c.prune, got, cap(fn.Blocks), c.blocks)
		}
		if got := strings.Join(succs, "|"); got != c.succs {
			t.Errorf("prune %v: succs %q, want %q", c.prune, got, c.succs)
		}
		if got := strings.Join(preds, "|"); got != c.pre {
			t.Errorf("prune %v: preds %q, want %q", c.prune, got, c.pre)
		}
		if j := fn.Blocks[1].Stmts[0]; j.Target != fn.Blocks[len(fn.Blocks)-1] {
			t.Errorf("prune %v: L1's jump goes to %v", c.prune, j.Target)
		}
	}

	fn := NewFunc("f", Void)
	cfg.Begin(fn)
	b0 := cfg.NewBlock()
	cfg.Start(b0, 0)
	cfg.Append(cfg.Jump(&slab, cfg.Labeled(7)))
	if err := cfg.Finish(&slab, false); err == nil || err.Error() != "func f: referenced block L7 never declared" {
		t.Errorf("an undeclared target gives %v", err)
	}
	cfg.Begin(fn)
	cfg.Start(cfg.NewBlock(), 0)
	if err := cfg.Finish(&slab, false); err == nil || err.Error() != "func f: block L0 falls off the end of the function" {
		t.Errorf("a last block that falls through gives %v", err)
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
