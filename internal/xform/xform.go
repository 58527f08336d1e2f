// Package xform implements glue transformations: the tree-to-tree IL
// rewrites a Maril description declares with %glue, applied to every
// basic block before instruction selection (paper §3.4).
package xform

import (
	"marion/internal/ir"
	"marion/internal/mach"
)

// Apply rewrites every statement of the function according to the
// machine's glue rules. Each node is rewritten at most once (bottom-up,
// first matching rule wins), so rules whose right-hand side embeds their
// own left-hand side terminate.
func Apply(m *mach.Machine, fn *ir.Func) {
	if len(m.Glues) == 0 {
		return
	}
	x := &xformer{m: m, memo: map[*ir.Node]*ir.Node{}}
	for _, b := range fn.Blocks {
		for i, s := range b.Stmts {
			b.Stmts[i] = x.rewrite(s)
		}
		b.CountParents()
	}
}

type xformer struct {
	m    *mach.Machine
	memo map[*ir.Node]*ir.Node
}

// rewrite processes kids bottom-up, then tries the glue rules once at n.
// Shared subtrees are rewritten once (sharing preserved).
func (x *xformer) rewrite(n *ir.Node) *ir.Node {
	if out, ok := x.memo[n]; ok {
		return out
	}
	for i, k := range n.Kids {
		n.Kids[i] = x.rewrite(k)
	}
	out := n
	for _, g := range x.m.Glues {
		if b, ok := matchGlue(g, n); ok {
			out = instantiate(g.RHS, b, n)
			break
		}
	}
	x.memo[n] = out
	return out
}

// bindings maps glue metavariables (0-based) to matched IL subtrees; a
// branch-target metavariable binds the block instead.
type bindings struct {
	nodes  []*ir.Node
	blocks []*ir.Block
}

func matchGlue(g *mach.GlueRule, n *ir.Node) (*bindings, bool) {
	b := &bindings{
		nodes:  make([]*ir.Node, len(g.Operands)),
		blocks: make([]*ir.Block, len(g.Operands)),
	}
	if !matchSem(g.LHS, n, g.Operands, b) {
		return nil, false
	}
	if g.Guard != nil {
		v := fits(b.nodes[g.Guard.OpIdx], g.Guard.Def)
		if g.Guard.Negate {
			v = !v
		}
		if !v {
			return nil, false
		}
	}
	return b, true
}

func fits(n *ir.Node, d *mach.ImmDef) bool {
	if n == nil || n.Op != ir.Const || !n.Type.IsInt() {
		return false
	}
	return d.Fits(n.IVal)
}

func matchSem(p *mach.Sem, n *ir.Node, ops []mach.OperandSpec, b *bindings) bool {
	switch p.Kind {
	case mach.SemOperand:
		spec := ops[p.OpIdx]
		switch spec.Kind {
		case mach.OperandReg:
			if !spec.Set.HoldsLoose(n.Type) {
				return false
			}
		case mach.OperandImm:
			if n.Op != ir.Const || !n.Type.IsInt() {
				return false
			}
			if spec.Def != nil && !spec.Def.Fits(n.IVal) {
				return false
			}
		case mach.OperandLabel:
			return false // targets are bound via SemIfGoto
		}
		// A metavariable appearing twice must bind the same subtree.
		if prev := b.nodes[p.OpIdx]; prev != nil && prev != n {
			return false
		}
		b.nodes[p.OpIdx] = n
		return true

	case mach.SemConst:
		return n.Op == ir.Const && n.Type.IsInt() && n.IVal == p.IVal

	case mach.SemOp:
		if n.Op != p.Op || len(n.Kids) != len(p.Kids) {
			return false
		}
		for i := range p.Kids {
			if !matchSem(p.Kids[i], n.Kids[i], ops, b) {
				return false
			}
		}
		return true

	case mach.SemCvt:
		return n.Op == ir.Cvt && n.Type == p.CvtTo &&
			matchSem(p.Kids[0], n.Kids[0], ops, b)

	case mach.SemIfGoto:
		if n.Op != ir.Branch {
			return false
		}
		if !matchSem(p.Kids[0], n.Kids[0], ops, b) {
			return false
		}
		b.blocks[p.OpIdx] = n.Target
		return true
	}
	return false
}

// instantiate builds the replacement tree for a matched rule. orig is the
// matched node, whose type seeds type synthesis at the root.
func instantiate(p *mach.Sem, b *bindings, orig *ir.Node) *ir.Node {
	n := build(p, b, orig.Type)
	return n
}

func build(p *mach.Sem, b *bindings, want ir.Type) *ir.Node {
	switch p.Kind {
	case mach.SemOperand:
		return b.nodes[p.OpIdx]

	case mach.SemConst:
		if p.IsFloat {
			return ir.NewFConst(ir.F64, p.FVal)
		}
		return ir.NewConst(ir.I32, p.IVal)

	case mach.SemCvt:
		k := build(p.Kids[0], b, p.CvtTo)
		n := ir.New(ir.Cvt, p.CvtTo, k)
		n.From = k.Type
		return n

	case mach.SemIfGoto:
		cond := build(p.Kids[0], b, ir.I32)
		n := &ir.Node{Op: ir.Branch, Kids: []*ir.Node{cond}}
		n.Target = b.blocks[p.OpIdx]
		return n

	case mach.SemOp:
		kids := make([]*ir.Node, len(p.Kids))
		kidWant := want
		if p.Op.IsRel() || p.Op == ir.Cmp {
			kidWant = ir.Void // determined by the kids themselves
		}
		for i, k := range p.Kids {
			kids[i] = build(k, b, kidWant)
		}
		t := want
		switch {
		case p.Op.IsRel() || p.Op == ir.Cmp:
			t = ir.I32
		case p.Op == ir.High || p.Op == ir.Low:
			t = ir.I32
		case t == ir.Void && len(kids) > 0:
			t = kids[0].Type
		}
		return ir.New(p.Op, t, kids...)
	}
	return nil
}
