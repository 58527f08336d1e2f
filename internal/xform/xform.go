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
	new(Log).Apply(m, fn, new(ir.Slab))
}

// Log is the undo log of Apply: every write the rewrite makes into the
// function's own IL — a kid slot of a node, a statement slot of a block,
// and only when the rewritten node differs — is recorded before it
// happens, so Undo puts the IL back exactly, also after a panic part-way
// through Apply. Nodes a rule built are not logged: nothing reaches them
// once the slots are restored.
//
// The nodes rules build come from the slab the caller passes: they are
// spliced into the function's IL, so the slab is output, not the log's.
// A caller compiling functions in turn passes them one slab, so a built
// node costs a share of a chunk, not two allocations.
type Log struct {
	writes []write
}

type write struct {
	slot **ir.Node
	old  *ir.Node
}

// Apply is the package's Apply, recording its writes in l and building
// the rules' nodes in nodes.
func (l *Log) Apply(m *mach.Machine, fn *ir.Func, nodes *ir.Slab) {
	if len(m.Glues) == 0 {
		return
	}
	operands := 0
	for _, g := range m.Glues {
		operands = max(operands, len(g.Operands))
	}
	x := &xformer{m: m, log: l, slab: nodes, walk: ir.NewWalk(), b: bindings{
		nodes:  make([]*ir.Node, operands),
		blocks: make([]*ir.Block, operands),
	}}
	for _, b := range fn.Blocks {
		for i := range b.Stmts {
			x.rewriteSlot(&b.Stmts[i])
		}
	}
	// Counting parents starts walks of its own: not before ours is over.
	for _, b := range fn.Blocks {
		b.CountParents()
	}
}

// Keep empties the log and leaves the rewrites in place: the attempt
// that logged them was accepted.
func (l *Log) Keep() { l.writes = l.writes[:0] }

// Detach empties the log and drops the IL slots its storage still
// names, keeping the storage up to the bound.
func (l *Log) Detach() { l.writes = ir.Keep(l.writes) }

// Undo replays the log backwards and empties it, leaving fn's IL —
// Fingerprint, iltext.Print, parent counts — as before l's Apply calls.
func (l *Log) Undo(fn *ir.Func) {
	if len(l.writes) == 0 {
		return
	}
	for i := len(l.writes) - 1; i >= 0; i-- {
		*l.writes[i].slot = l.writes[i].old
	}
	l.writes = l.writes[:0]
	for _, b := range fn.Blocks {
		b.CountParents()
	}
}

type xformer struct {
	m    *mach.Machine
	log  *Log
	slab *ir.Slab
	// walk marks the nodes already rewritten; replaced maps the few of
	// them a rule replaced to their replacement (nil until one is).
	walk     ir.Walk
	replaced map[*ir.Node]*ir.Node
	// b is the one scratch every match attempt of this Apply call binds
	// into: kids are rewritten before their parent is matched, so no two
	// attempts overlap.
	b bindings
}

// rewriteSlot rewrites the node a kid or statement slot holds; when that
// yields a different node it logs the slot, then redirects it.
func (x *xformer) rewriteSlot(slot **ir.Node) {
	if out := x.rewrite(*slot); out != *slot {
		x.log.writes = append(x.log.writes, write{slot, *slot})
		*slot = out
	}
}

// rewrite processes kids bottom-up, then tries each glue rule once at n,
// its root first (that test inlines). Shared subtrees are rewritten once.
func (x *xformer) rewrite(n *ir.Node) *ir.Node {
	if !x.walk.Visit(n) {
		if x.replaced != nil {
			if out, ok := x.replaced[n]; ok {
				return out
			}
		}
		return n
	}
	for i := range n.Kids {
		x.rewriteSlot(&n.Kids[i])
	}
	for _, g := range x.m.Glues {
		if rootMatches(g.LHS, n) && matchGlue(g, n, &x.b) {
			out := x.build(g.RHS, n.Type)
			if x.replaced == nil {
				x.replaced = map[*ir.Node]*ir.Node{}
			}
			x.replaced[n] = out
			return out
		}
	}
	return n
}

// bindings maps glue metavariables (0-based) to matched IL subtrees; a
// branch-target metavariable binds the block instead.
type bindings struct {
	nodes  []*ir.Node
	blocks []*ir.Block
}

// matchGlue matches rule g at n, leaving the metavariables in b. Nearly
// every attempt fails on the root operator, so that is tested before b
// is touched; b is then cleared, because matchSem reads it (a
// metavariable appearing twice must bind the same subtree) and the
// previous attempt, matched or not, left its bindings behind.
func matchGlue(g *mach.GlueRule, n *ir.Node, b *bindings) bool {
	if !rootMatches(g.LHS, n) {
		return false
	}
	clear(b.nodes)
	clear(b.blocks)
	if !matchSem(g.LHS, n, g.Operands, b) {
		return false
	}
	if g.Guard != nil {
		v := fits(b.nodes[g.Guard.OpIdx], g.Guard.Def)
		if g.Guard.Negate {
			v = !v
		}
		if !v {
			return false
		}
	}
	return true
}

// rootMatches reports whether n has the operator pattern p demands at
// its root; matchSem applies it at every level before descending.
func rootMatches(p *mach.Sem, n *ir.Node) bool {
	switch p.Kind {
	case mach.SemOp:
		return n.Op == p.Op && len(n.Kids) == len(p.Kids)
	case mach.SemCvt:
		return n.Op == ir.Cvt && n.Type == p.CvtTo
	case mach.SemIfGoto:
		return n.Op == ir.Branch
	}
	return true
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
		if !rootMatches(p, n) {
			return false
		}
		for i := range p.Kids {
			if !matchSem(p.Kids[i], n.Kids[i], ops, b) {
				return false
			}
		}
		return true

	case mach.SemCvt:
		return rootMatches(p, n) && matchSem(p.Kids[0], n.Kids[0], ops, b)

	case mach.SemIfGoto:
		if !rootMatches(p, n) || !matchSem(p.Kids[0], n.Kids[0], ops, b) {
			return false
		}
		b.blocks[p.OpIdx] = n.Target
		return true
	}
	return false
}

// build instantiates the replacement tree for the matched rule whose
// bindings are in x.b, from the caller's slab; want is the matched node's
// type at the root, which seeds type synthesis.
func (x *xformer) build(p *mach.Sem, want ir.Type) *ir.Node {
	s := x.slab
	switch p.Kind {
	case mach.SemOperand:
		return x.b.nodes[p.OpIdx]

	case mach.SemConst:
		if p.IsFloat {
			return s.FConst(ir.F64, p.FVal)
		}
		return s.Const(ir.I32, p.IVal)

	case mach.SemCvt:
		k := x.build(p.Kids[0], p.CvtTo)
		return s.Node(ir.Node{Op: ir.Cvt, Type: p.CvtTo, From: k.Type}, k)

	case mach.SemIfGoto:
		cond := x.build(p.Kids[0], ir.I32)
		return s.Node(ir.Node{Op: ir.Branch, Target: x.b.blocks[p.OpIdx]}, cond)

	case mach.SemOp:
		kids := s.Kids(len(p.Kids))
		kidWant := want
		if p.Op.IsRel() || p.Op == ir.Cmp {
			kidWant = ir.Void // determined by the kids themselves
		}
		for i, k := range p.Kids {
			kids[i] = x.build(k, kidWant)
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
		n := s.New(p.Op, t)
		n.Kids = kids
		return n
	}
	return nil
}
