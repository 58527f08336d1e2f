// Package sel implements instruction selection: a recursive-descent
// brute-force tree pattern matcher that tries the description's
// instruction templates in order, selecting the first that matches
// (paper §2.1). It creates pseudo-registers for expression temporaries
// and expands %seq sequences.
//
// Two layers accelerate the paper's literal brute force without
// changing its result: the machine's operator-indexed template tables
// (mach's selIndex, built once per machine at Finalize time) restrict
// every matching loop to templates whose root can possibly match the
// node, and per-selector memo caches collapse the
// bindsSelectable → canSelect → bindsSelectable feasibility recursion
// that is otherwise exponential on deep expression trees. Both layers
// preserve description order within each candidate list, so first-match
// semantics — and the emitted assembly — are those of a linear scan of
// Machine.Instrs: TestSelIndexBuckets checks the buckets against the
// matcher on the corpus, and the driver's pins hold the output.
package sel

import (
	"fmt"
	"math"

	"marion/internal/asm"
	"marion/internal/ir"
	"marion/internal/mach"
)

// Options tune one selection run. None are left; the type stays for
// the callers that pass one.
type Options struct{}

// Counters reports how much pattern-matching work a selection run did.
type Counters struct {
	// Tried counts template candidates examined across match,
	// canSelect, canSelectInto, selectStore and selectBranch.
	Tried int64
	// MemoHits / MemoMisses count feasibility queries served from and
	// added to the canSelect/canSelectInto memo caches.
	MemoHits   int64
	MemoMisses int64
}

// Add accumulates another run's counters into c.
func (c *Counters) Add(o Counters) {
	c.Tried += o.Tried
	c.MemoHits += o.MemoHits
	c.MemoMisses += o.MemoMisses
}

// Select lowers an IL function to target instructions with
// pseudo-registers. The IL must already be glue-transformed.
func Select(m *mach.Machine, fn *ir.Func) (*asm.Func, error) {
	af, _, err := SelectOpts(m, fn, Options{})
	return af, err
}

// SelectOpts is Select with tuning options, also returning the
// selection work counters. It selects on a scratch of its own.
func SelectOpts(m *mach.Machine, fn *ir.Func, opts Options) (*asm.Func, Counters, error) {
	return new(Scratch).SelectOpts(m, fn, opts)
}

// Scratch is the storage selection works in: the selector with its
// bindings stack, the per-node memo, the feasibility answers, the
// remembered values, the IL-register map and the list a block's code
// is gathered in, reset at the start of each use, and the code arena
// the selected function is built in. The zero value is ready to use;
// selecting function after function on one scratch selects what a
// fresh scratch selects. A scratch has one owner and is never shared
// between goroutines.
type Scratch struct {
	s selector

	// Code is the arena every function selected here is built in, and
	// that the passes after selection build its code in too. Whoever
	// owns the scratch decides when that code is dead and rewinds Code;
	// until then each function's code is its own.
	Code asm.Arena
}

// SelectOpts is the package's SelectOpts on this scratch.
func (sc *Scratch) SelectOpts(m *mach.Machine, fn *ir.Func, _ Options) (*asm.Func, Counters, error) {
	s := &sc.s
	s.reset(m, fn, &sc.Code)
	af, err := s.run()
	return af, s.counters, err
}

// Detach drops what the scratch holds of the function it selected last
// — the function and the IL nodes, operands and instructions left in
// the tables — keeping the tables' storage up to the bound. It leaves
// Code as it is: rewinding it is for the scratch's owner.
func (sc *Scratch) Detach() {
	s := &sc.s
	*s = selector{irPseudo: ir.Trim(s.irPseudo), memo: ir.Trim(s.memo), intos: ir.Keep(s.intos), selOps: ir.Keep(s.selOps), binds: ir.Keep(s.binds), out: ir.Keep(s.out)}
}

// reset readies the selector for fn, built in code, keeping the storage
// of its tables.
func (s *selector) reset(m *mach.Machine, fn *ir.Func, code *asm.Arena) {
	nodes := fn.NodeCount()
	binds := s.binds[:0]
	if binds == nil {
		binds = s.bindBuf[:0]
	}
	*s = selector{
		m:        m,
		irFn:     fn,
		af:       code.Func(fn),
		irPseudo: ir.Grow(s.irPseudo, len(fn.Regs)),
		memo:     ir.Grow(s.memo, nodes),
		out:      s.out[:0],
		intos:    s.intos[:0],
		selOps:   s.selOps[:0],
		binds:    binds,
	}
}

// run selects the function reset named.
func (s *selector) run() (*asm.Func, error) {
	fn := s.irFn
	// Bind parameters to pseudo-registers up front so the entry moves
	// (inserted by the strategy) target the right pseudos.
	for _, r := range fn.ParamRegs {
		if r != ir.NoReg {
			if _, err := s.pseudoFor(r); err != nil {
				return nil, err
			}
		}
	}
	for i, b := range fn.Blocks {
		s.cur = s.af.Blocks[i]
		s.walk, s.next, s.selOps = ir.NewWalk(), 0, append(s.selOps[:0], asm.Operand{})
		s.dropFeasibility()
		s.out = s.out[:0]
		for _, stmt := range b.Stmts {
			if err := s.stmt(stmt); err != nil {
				return nil, fmt.Errorf("%s: %w", fn.Name, err)
			}
		}
		s.cur.Insts = s.af.List(s.out)
	}
	return s.af, nil
}

// nodeMemo is what the selector knows about one IL node of the current
// block, indexed by the number the block's walk gave the node: selection
// reads the IL and writes only its walk stamps.
type nodeMemo struct {
	// sel is the index in selOps of the register operand already holding
	// the node's value; 0 (selOps[0] is no operand) when none does yet.
	sel int32
	// can is canSelect's memoized answer (0 unknown, 1 no, 2 yes), valid
	// while gen is the selector's.
	gen uint32
	can uint8
}

// intoAnswer is one memoized canSelectInto answer.
type intoAnswer struct {
	n    *ir.Node
	phys mach.PhysID
	ok   bool
}

type selector struct {
	m    *mach.Machine
	irFn *ir.Func
	af   *asm.Func
	cur  *asm.Block
	// irPseudo is 1 + the asm pseudo of each IL pseudo-register, 0 for
	// none yet; out gathers the current block's instructions, which the
	// block gets a list of once it is selected.
	irPseudo []asm.PseudoID
	out      []*asm.Inst

	counters Counters

	// walk numbers the current block's nodes in first-visit order, next
	// being the next number; memo has an entry per node of the function,
	// so no block outgrows it; selOps are the block's remembered values.
	walk   ir.Walk
	next   uint32
	memo   []nodeMemo
	selOps []asm.Operand

	// Feasibility memos: nodeMemo.can and, for the few fixed-register
	// operands, the list intos. Both are pure functions of the machine
	// tables and the remembered values, so they stay valid exactly until
	// a value is remembered (noteSelected) or a new block starts: either
	// bumps gen, orphaning every can at once, and empties intos.
	gen   uint32
	intos []intoAnswer

	// binds is the stack match attempts take their bindings from: an
	// attempt pushes one binding per template operand (pushBinds) and
	// pops to its mark when it fails or has emitted. It starts in
	// bindBuf, part of the selector's own allocation.
	binds   []binding
	bindBuf [32]binding
}

// state returns n's memo entry, numbering n on its first visit.
func (s *selector) state(n *ir.Node) *nodeMemo {
	id := s.walk.Number(n, s.next)
	if id == s.next {
		s.next++
		s.memo[id] = nodeMemo{}
	}
	return &s.memo[id]
}

// selected returns the register operand already holding n's value.
func (s *selector) selected(n *ir.Node) (asm.Operand, bool) {
	i := s.state(n).sel
	return s.selOps[i], i != 0
}

func (s *selector) dropFeasibility() {
	s.gen++
	s.intos = s.intos[:0]
}

// pushBinds pushes zeroed bindings for a match attempt on tmpl; the
// caller pops them with s.binds = s.binds[:mark].
func (s *selector) pushBinds(tmpl *mach.Instr) (mark int, binds []binding) {
	mark = len(s.binds)
	for range tmpl.Operands {
		s.binds = append(s.binds, binding{})
	}
	return mark, s.binds[mark:]
}

func (s *selector) emit(in *asm.Inst) { s.out = append(s.out, in) }

// noteSelected caches the operand of a selected node and drops the
// feasibility memos: a new entry can flip canSelect (a call result
// becomes available) and canSelectInto (a value now pinned to a pseudo
// can no longer be produced in a fixed register) in either direction.
func (s *selector) noteSelected(n *ir.Node, op asm.Operand) {
	s.state(n).sel = int32(len(s.selOps))
	s.selOps = append(s.selOps, op)
	s.dropFeasibility()
}

// weight is the spill-cost increment for a reference at the current
// block's loop depth.
func (s *selector) weight() float64 {
	d := s.cur.IR.LoopDepth
	w := 1.0
	for i := 0; i < d && i < 6; i++ {
		w *= 10
	}
	return w
}

func (s *selector) addCost(op asm.Operand) {
	if op.Kind == asm.OpPseudo {
		s.af.Pseudos[op.Pseudo].SpillCost += s.weight()
	}
}

// pseudoFor returns the asm pseudo for an IL pseudo-register.
func (s *selector) pseudoFor(r ir.RegID) (asm.PseudoID, error) {
	if p := s.irPseudo[r]; p != 0 {
		return p - 1, nil
	}
	t := s.irFn.RegType(r)
	set := s.m.Cwvm.GeneralSet(t)
	if set == nil {
		return asm.NoPseudo, fmt.Errorf("no general register set holds type %s", t)
	}
	p := s.af.NewPseudo(set, r)
	s.irPseudo[r] = p + 1
	return p, nil
}

// typeOK checks an instruction's type constraint against a node type.
func typeOK(tc, nt ir.Type) bool {
	if tc == ir.Void || tc == nt {
		return true
	}
	// int-family leniency: (int) matches unsigned and pointer values.
	intFam := func(t ir.Type) bool { return t == ir.I32 || t == ir.U32 || t == ir.Ptr }
	return intFam(tc) && intFam(nt)
}

// stmt selects one statement root.
func (s *selector) stmt(n *ir.Node) error {
	switch n.Op {
	case ir.Asgn:
		p, err := s.pseudoFor(n.Reg)
		if err != nil {
			return err
		}
		return s.selectInto(n.Kids[0], asm.Reg(p))

	case ir.Store:
		return s.selectStore(n)

	case ir.Branch:
		return s.selectBranch(n)

	case ir.Jump:
		return s.selectJump(n)

	case ir.Call:
		_, err := s.selectCall(n)
		return err

	case ir.Ret:
		return s.selectRet(n)
	}
	// A bare value as a statement (result unused): select for effect.
	_, err := s.value(n)
	return err
}

// selectInto materializes the value of n in the destination register
// operand dst.
func (s *selector) selectInto(n *ir.Node, dst asm.Operand) error {
	// Value already available (CSE or register leaf): move. The reuse
	// is a reference like any other, so it contributes spill cost (as
	// the equivalent path in value does) — without it, CSE reached
	// through assignment destinations undercounts and skews
	// Chaitin/Briggs spill choices.
	if op, ok := s.selected(n); ok {
		s.addCost(op)
		return s.move(dst, op)
	}
	switch n.Op {
	case ir.Reg:
		p, err := s.pseudoFor(n.Reg)
		if err != nil {
			return err
		}
		return s.move(dst, asm.Reg(p))
	case ir.Frame:
		return s.move(dst, asm.Phys(s.m.Cwvm.FP.Phys()))
	case ir.Stack:
		return s.move(dst, asm.Phys(s.m.Cwvm.SP.Phys()))
	}
	op, err := s.match(n, &dst)
	if err != nil {
		return err
	}
	if op != dst {
		return s.move(dst, op)
	}
	// The destination may be a user variable that is reassigned later, so
	// it is NOT remembered for CSE; only immutable selector temporaries
	// (from value) are.
	return nil
}

// value selects n into some register and returns the operand.
func (s *selector) value(n *ir.Node) (asm.Operand, error) {
	if op, ok := s.selected(n); ok {
		s.addCost(op)
		return op, nil
	}
	switch n.Op {
	case ir.Reg:
		p, err := s.pseudoFor(n.Reg)
		if err != nil {
			return asm.Operand{}, err
		}
		op := asm.Reg(p)
		s.addCost(op)
		return op, nil
	case ir.Frame:
		return asm.Phys(s.m.Cwvm.FP.Phys()), nil
	case ir.Stack:
		return asm.Phys(s.m.Cwvm.SP.Phys()), nil
	case ir.Call:
		// Calls are selected as statements; a parent asking for the value
		// must find it in the selected map (populated by selectCall).
		return asm.Operand{}, fmt.Errorf("internal: call result of %s referenced before selection", n.Sym.Name)
	}
	op, err := s.match(n, nil)
	if err != nil {
		return asm.Operand{}, err
	}
	s.remember(n, op)
	return op, nil
}

// remember caches the operand of a selected node so later parents reuse
// it instead of re-evaluating (local CSE). Immutable leaves (addresses,
// constants) are always cached: sharing may be hidden behind a shared
// parent, and re-reading them is always safe.
func (s *selector) remember(n *ir.Node, op asm.Operand) {
	if n.Parents > 1 || n.Op == ir.Call || n.Op == ir.Addr || n.Op == ir.Const {
		s.noteSelected(n, op)
	}
}

// hardPhys returns a hard-wired register of the given set holding value
// v, if the machine has one.
func (s *selector) hardPhys(set *mach.RegSet, v int64) (mach.PhysID, bool) {
	for _, h := range s.m.Cwvm.Hard {
		if h.Value == v && h.Ref.Set == set {
			return h.Ref.Phys(), true
		}
	}
	return mach.NoPhys, false
}

// bindings collects the subtrees bound to a template's operands during
// matching.
type binding struct {
	// node is the bound subtree for register operands (selected later).
	node *ir.Node
	// op is a directly usable operand (immediates, labels, hard regs).
	op    asm.Operand
	hasOp bool
}

// valuePattern reports whether tmpl can produce the value of n at all,
// and returns its destination's operand index and spec. It must assign
// to a register operand (stores and temporal-register writers are not
// value patterns) an expression, not a bare register: an identity move
// would bind the node to itself and recurse forever, and moves are
// emitted explicitly. It must take n's type; and an untyped load needs a
// settable destination exactly as wide as the access (float loads need
// a typed template).
func valuePattern(tmpl *mach.Instr, n *ir.Node) (int, mach.OperandSpec, bool) {
	if tmpl.Sem.Kind != mach.SemAssign || tmpl.Sem.Kids[0].Kind != mach.SemOperand {
		return 0, mach.OperandSpec{}, false
	}
	if rv := tmpl.Sem.Kids[1]; rv.Kind == mach.SemOperand {
		if k := tmpl.Operands[rv.OpIdx].Kind; k == mach.OperandReg || k == mach.OperandFixedReg {
			return 0, mach.OperandSpec{}, false
		}
	}
	dstIdx := tmpl.Sem.Kids[0].OpIdx
	dst := tmpl.Operands[dstIdx]
	if !typeOK(tmpl.TypeConstraint, n.Type) || n.Op == ir.Load && tmpl.TypeConstraint == ir.Void &&
		(dst.Kind != mach.OperandReg || n.Type.Size() != dst.Set.Size || n.Type.IsFloat()) {
		return 0, mach.OperandSpec{}, false
	}
	return dstIdx, dst, true
}

// match tries every plausible instruction template in description order
// against value node n; dst, when non-nil, requests the result in that
// operand.
func (s *selector) match(n *ir.Node, dst *asm.Operand) (asm.Operand, error) {
	// The machine's operator bucket: the per-template guards below
	// re-check every condition, so the index only skips templates they
	// would have rejected.
	for _, tmpl := range s.m.ValueTmpls(n.Op) {
		s.counters.Tried++
		dstIdx, dstSpec, ok := valuePattern(tmpl, n)
		if !ok {
			continue
		}
		// The destination set must be able to hold the value.
		switch dstSpec.Kind {
		case mach.OperandReg:
			if !dstSpec.Set.HoldsLoose(n.Type) {
				continue
			}
			if dst != nil {
				if ds := operandSetOf(s.m, s.af, *dst); ds != nil && ds != dstSpec.Set {
					continue
				}
			}
		case mach.OperandFixedReg:
			if dst != nil && (dst.Kind != asm.OpPhys || dst.Phys != dstSpec.Phys()) {
				// Producing into a fixed register only helps when the
				// caller wants exactly that register.
				continue
			}
			if dst == nil {
				continue
			}
		default:
			continue
		}
		mark, binds := s.pushBinds(tmpl)
		// Brute force with backtracking (paper §2.1): if a bound subtree
		// cannot be selected by any pattern, proceed to the next pattern.
		if !s.matchSem(tmpl.Sem.Kids[1], n, tmpl, binds) || !s.bindsSelectable(tmpl, binds) {
			s.binds = s.binds[:mark]
			continue
		}
		op, err := s.emitMatched(tmpl, binds, dstIdx, dst)
		s.binds = s.binds[:mark]
		return op, err
	}
	return asm.Operand{}, fmt.Errorf("no pattern matches %s (type %s) on %s", n, n.Type, s.m.Name)
}

// bindsSelectable dry-runs selection feasibility for every bound subtree;
// subtrees bound to fixed-register operands must be producible into that
// exact register.
func (s *selector) bindsSelectable(tmpl *mach.Instr, binds []binding) bool {
	for i, b := range binds {
		if b.node == nil {
			continue
		}
		spec := tmpl.Operands[i]
		if spec.Kind == mach.OperandFixedReg {
			if !s.canSelectInto(b.node, spec.Phys()) {
				return false
			}
			continue
		}
		if !s.canSelect(b.node, spec.Set) {
			return false
		}
	}
	return true
}

// canSelectInto reports whether n can be produced in the specific
// physical register phys. Results are memoized per (node, register)
// until a value is remembered.
func (s *selector) canSelectInto(n *ir.Node, phys mach.PhysID) bool {
	if op, ok := s.selected(n); ok {
		return op.Kind == asm.OpPhys && op.Phys == phys
	}
	for _, a := range s.intos {
		if a.n == n && a.phys == phys {
			s.counters.MemoHits++
			return a.ok
		}
	}
	s.counters.MemoMisses++
	v := s.canSelectIntoSlow(n, phys)
	s.intos = append(s.intos, intoAnswer{n, phys, v})
	return v
}

// canSelectIntoSlow is the uncached template scan behind canSelectInto.
func (s *selector) canSelectIntoSlow(n *ir.Node, phys mach.PhysID) bool {
	for _, tmpl := range s.m.ValueFixedTmpls(n.Op, phys) {
		s.counters.Tried++
		// valuePattern approves no untyped load into a fixed register,
		// as match emits none.
		_, dstSpec, ok := valuePattern(tmpl, n)
		if !ok || dstSpec.Kind != mach.OperandFixedReg || dstSpec.Phys() != phys {
			continue
		}
		mark, binds := s.pushBinds(tmpl)
		ok = s.matchSem(tmpl.Sem.Kids[1], n, tmpl, binds) && s.bindsSelectable(tmpl, binds)
		s.binds = s.binds[:mark]
		if ok {
			return true
		}
	}
	return false
}

// canSelect reports whether some pattern chain can produce the value of
// n in a register, without emitting anything. want is the register set
// of the operand requesting the value (nil when unconstrained): a
// constant counts as selectable through a hard-wired register only when
// that register belongs to the wanted set — the same condition
// matchSem/hardPhys enforce when the binding is emitted, so feasibility
// can never approve a template whose emission then fails. Template-scan
// results are memoized per node until a value is remembered.
func (s *selector) canSelect(n *ir.Node, want *mach.RegSet) bool {
	if _, ok := s.selected(n); ok {
		return true
	}
	switch n.Op {
	case ir.Reg, ir.Frame, ir.Stack:
		return true
	case ir.Call:
		return false // must already be in the selected map
	}
	if n.Op == ir.Const && n.Type.IsInt() && want != nil {
		if _, ok := s.hardPhys(want, n.IVal); ok {
			return true
		}
	}
	st := s.state(n)
	if st.gen != s.gen {
		st.gen, st.can = s.gen, 0
	}
	if st.can != 0 {
		s.counters.MemoHits++
		return st.can == 2
	}
	s.counters.MemoMisses++
	v := s.canSelectSlow(n)
	st.can = 1
	if v {
		st.can = 2
	}
	return v
}

// canSelectSlow is the uncached template scan behind canSelect. It does
// not depend on the requesting set: the scan mirrors match, whose
// result a parent coerces into the wanted set afterwards.
func (s *selector) canSelectSlow(n *ir.Node) bool {
	for _, tmpl := range s.m.ValueRegTmpls(n.Op) {
		s.counters.Tried++
		_, dstSpec, ok := valuePattern(tmpl, n)
		if !ok || dstSpec.Kind != mach.OperandReg || !dstSpec.Set.HoldsLoose(n.Type) {
			continue
		}
		mark, binds := s.pushBinds(tmpl)
		ok = s.matchSem(tmpl.Sem.Kids[1], n, tmpl, binds) && s.bindsSelectable(tmpl, binds)
		s.binds = s.binds[:mark]
		if ok {
			return true
		}
	}
	return false
}

// matchSem structurally matches a semantics pattern against an IL node,
// filling operand bindings.
func (s *selector) matchSem(p *mach.Sem, n *ir.Node, tmpl *mach.Instr, binds []binding) bool {
	switch p.Kind {
	case mach.SemOperand:
		spec := tmpl.Operands[p.OpIdx]
		b := &binds[p.OpIdx]
		switch spec.Kind {
		case mach.OperandReg:
			if !spec.Set.HoldsLoose(n.Type) {
				return false
			}
			// A constant can bind to a hard-wired register.
			if n.Op == ir.Const && n.Type.IsInt() {
				if ph, ok := s.hardPhys(spec.Set, n.IVal); ok {
					if b.hasOp && b.op != asm.Phys(ph) {
						return false
					}
					b.op, b.hasOp = asm.Phys(ph), true
					return true
				}
			}
			if b.node != nil && b.node != n {
				return false
			}
			b.node = n
			return true

		case mach.OperandFixedReg:
			// Either a constant matching a hard register, or a subtree
			// that will be forced into the fixed register.
			if n.Op == ir.Const && n.Type.IsInt() {
				if v, ok := s.m.IsHard(spec.Phys()); ok && v == n.IVal {
					b.op, b.hasOp = asm.Phys(spec.Phys()), true
					return true
				}
				return false
			}
			if !spec.Set.HoldsLoose(n.Type) {
				return false
			}
			if b.node != nil && b.node != n {
				return false
			}
			b.node = n
			return true

		case mach.OperandImm:
			if n.Op == ir.Addr {
				if spec.Def == nil || !hasFlag(spec.Def.Flags, "addr") {
					return false
				}
				b.op, b.hasOp = asm.Operand{Kind: asm.OpSym, Sym: n.Sym}, true
				return true
			}
			if n.Op != ir.Const || !n.Type.IsInt() {
				return false
			}
			if spec.Def != nil && !spec.Def.Fits(n.IVal) {
				return false
			}
			b.op, b.hasOp = asm.Imm(n.IVal), true
			return true

		case mach.OperandLabel:
			return false // labels bind at statement level only
		}
		return false

	case mach.SemConst:
		if p.IsFloat {
			// By bits, as the IL tells constants apart: a 0.0 pattern
			// must not capture -0, and a NaN pattern matches its NaN.
			return n.Op == ir.Const && n.Type.IsFloat() &&
				math.Float64bits(n.Float()) == math.Float64bits(p.FVal)
		}
		return n.Op == ir.Const && n.Type.IsInt() && n.IVal == p.IVal

	case mach.SemOp:
		if n.Op != p.Op || len(n.Kids) != len(p.Kids) {
			return false
		}
		for i := range p.Kids {
			if !s.matchSem(p.Kids[i], n.Kids[i], tmpl, binds) {
				return false
			}
		}
		return true

	case mach.SemCvt:
		if n.Op != ir.Cvt || n.Type != p.CvtTo {
			return false
		}
		return s.matchSem(p.Kids[0], n.Kids[0], tmpl, binds)

	case mach.SemMem:
		if n.Op != ir.Load {
			return false
		}
		return s.matchSem(p.Kids[0], n.Kids[0], tmpl, binds)
	}
	return false
}

func hasFlag(flags []string, name string) bool {
	for _, f := range flags {
		if f == name {
			return true
		}
	}
	return false
}

// emitMatched selects bound subtrees and emits the instruction. dstIdx is
// the template operand index of the destination.
func (s *selector) emitMatched(tmpl *mach.Instr, binds []binding, dstIdx int, dst *asm.Operand) (asm.Operand, error) {
	args := s.af.Operands(len(tmpl.Operands))
	for i, spec := range tmpl.Operands {
		if i == dstIdx {
			continue
		}
		b := binds[i]
		switch {
		case b.hasOp:
			args[i] = b.op
		case b.node != nil:
			switch spec.Kind {
			case mach.OperandFixedReg:
				want := asm.Phys(spec.Phys())
				if err := s.selectInto(b.node, want); err != nil {
					return asm.Operand{}, err
				}
				args[i] = want
			default:
				op, err := s.value(b.node)
				if err != nil {
					return asm.Operand{}, err
				}
				op, err = s.coerce(op, spec.Set)
				if err != nil {
					return asm.Operand{}, err
				}
				args[i] = op
			}
		default:
			// Operand not referenced by the semantics (e.g. a fixed
			// register in a move template).
			switch spec.Kind {
			case mach.OperandFixedReg:
				args[i] = asm.Phys(spec.Phys())
			case mach.OperandImm:
				args[i] = asm.Imm(0)
			default:
				return asm.Operand{}, fmt.Errorf("template %s: unbound operand %d", tmpl.Mnemonic, i+1)
			}
		}
	}

	// Destination (absent for stores and branches).
	var out asm.Operand
	if dstIdx >= 0 {
		dstSpec := tmpl.Operands[dstIdx]
		switch {
		case dst != nil:
			out = *dst
		case dstSpec.Kind == mach.OperandFixedReg:
			out = asm.Phys(dstSpec.Phys())
		default:
			out = asm.Reg(s.af.NewPseudo(dstSpec.Set, ir.NoReg))
		}
		args[dstIdx] = out
	}
	for _, a := range args {
		s.addCost(a)
	}

	if err := s.emitExpanded(tmpl, args); err != nil {
		return asm.Operand{}, err
	}
	return out, nil
}

// emitExpanded emits a template instance, expanding %seq items.
func (s *selector) emitExpanded(tmpl *mach.Instr, args []asm.Operand) (err error) {
	if len(tmpl.Seq) > 0 {
		s.out, err = appendSeq(s.m, s.af, s.out, tmpl, args)
		return err
	}
	s.emit(asm.New(s.af, tmpl, args...))
	return nil
}

// coerce ensures op lives in the wanted register set, inserting a move
// when needed.
func (s *selector) coerce(op asm.Operand, set *mach.RegSet) (asm.Operand, error) {
	if set == nil {
		return op, nil
	}
	cur := operandSetOf(s.m, s.af, op)
	if cur == set {
		return op, nil
	}
	tmp := asm.Reg(s.af.NewPseudo(set, ir.NoReg))
	if err := s.move(tmp, op); err != nil {
		return asm.Operand{}, err
	}
	return tmp, nil
}
