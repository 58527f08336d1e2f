package sel

import (
	"fmt"

	"marion/internal/asm"
	"marion/internal/ir"
	"marion/internal/mach"
)

// storePattern reports whether tmpl can store the value of Store
// statement n at all: it must assign an operand to memory and take n's
// type, and an untyped store writes exactly one register width.
func storePattern(tmpl *mach.Instr, n *ir.Node) bool {
	if tmpl.Sem.Kind != mach.SemAssign || tmpl.Sem.Kids[0].Kind != mach.SemMem ||
		tmpl.Sem.Kids[1].Kind != mach.SemOperand || !typeOK(tmpl.TypeConstraint, n.Type) {
		return false
	}
	val := tmpl.Operands[tmpl.Sem.Kids[1].OpIdx]
	return tmpl.TypeConstraint != ir.Void ||
		val.Kind == mach.OperandReg && n.Type.Size() == val.Set.Size && !n.Type.IsFloat()
}

// selectStore matches store templates against a Store statement.
func (s *selector) selectStore(n *ir.Node) error {
	for _, tmpl := range s.m.StoreTmpls() {
		s.counters.Tried++
		if !storePattern(tmpl, n) {
			continue
		}
		mark, binds := s.pushBinds(tmpl)
		if !s.matchSem(tmpl.Sem.Kids[0].Kids[0], n.Kids[0], tmpl, binds) ||
			!s.matchSem(tmpl.Sem.Kids[1], n.Kids[1], tmpl, binds) || !s.bindsSelectable(tmpl, binds) {
			s.binds = s.binds[:mark]
			continue
		}
		_, err := s.emitMatched(tmpl, binds, -1, nil)
		s.binds = s.binds[:mark]
		return err
	}
	return fmt.Errorf("no store pattern matches %s (type %s) on %s", n, n.Type, s.m.Name)
}

// selectBranch matches conditional-branch templates.
func (s *selector) selectBranch(n *ir.Node) error {
	for _, tmpl := range s.m.BranchTmpls() {
		s.counters.Tried++
		if !tmpl.IsBranch {
			continue
		}
		mark, binds := s.pushBinds(tmpl)
		binds[tmpl.BranchOp] = binding{op: asm.Operand{Kind: asm.OpBlock, Block: n.Target}, hasOp: true}
		if !s.matchSem(tmpl.Sem.Kids[0], n.Kids[0], tmpl, binds) || !s.bindsSelectable(tmpl, binds) {
			s.binds = s.binds[:mark]
			continue
		}
		_, err := s.emitMatched(tmpl, binds, -1, nil)
		s.binds = s.binds[:mark]
		return err
	}
	return fmt.Errorf("no branch pattern matches %s on %s", n, s.m.Name)
}

// selectJump emits an unconditional jump.
func (s *selector) selectJump(n *ir.Node) error {
	for _, tmpl := range s.m.Instrs {
		if !tmpl.IsJump {
			continue
		}
		args := s.slab.args(len(tmpl.Operands))
		args[tmpl.BranchOp] = asm.Operand{Kind: asm.OpBlock, Block: n.Target}
		s.emit(s.slab.inst(tmpl, args))
		return nil
	}
	return fmt.Errorf("machine %s has no jump instruction", s.m.Name)
}

// selectRet moves the return value to the result register and emits the
// return instruction.
func (s *selector) selectRet(n *ir.Node) error {
	var imp []mach.PhysID
	if len(n.Kids) == 1 {
		v, err := s.value(n.Kids[0])
		if err != nil {
			return err
		}
		res, ok := s.m.Cwvm.ResultFor(n.Kids[0].Type)
		if !ok {
			return fmt.Errorf("no %%result register for type %s", n.Kids[0].Type)
		}
		if err := s.move(asm.Phys(res.Phys()), v); err != nil {
			return err
		}
		imp = append(imp, res.Phys())
	}
	tmpl := s.retTmpl()
	if tmpl == nil {
		return fmt.Errorf("machine %s has no return instruction", s.m.Name)
	}
	in := s.slab.inst(tmpl, s.slab.args(len(tmpl.Operands)))
	in.Imp = s.slab.implicit(append(imp, s.m.Cwvm.RetAddr.Phys()), nil)
	s.emit(in)
	return nil
}

func (s *selector) retTmpl() *mach.Instr {
	for _, tmpl := range s.m.Instrs {
		if tmpl.IsRet {
			return tmpl
		}
	}
	return nil
}

// selectCall lowers a call: arguments into the CWVM argument registers
// (or the outgoing stack area), the call instruction with its implicit
// effects, and a move of the result into a fresh pseudo.
func (s *selector) selectCall(n *ir.Node) (asm.Operand, error) {
	s.af.UsesCalls = true

	// Evaluate all arguments first, so an argument containing a nested
	// call cannot clobber already-placed argument registers.
	vals := make([]asm.Operand, len(n.Kids))
	for i, k := range n.Kids {
		v, err := s.value(k)
		if err != nil {
			return asm.Operand{}, err
		}
		vals[i] = v
	}

	types := make([]ir.Type, len(n.Kids))
	for i, k := range n.Kids {
		types[i] = k.Type
	}
	locs := s.m.Cwvm.AssignArgs(types)
	var argRegs []mach.PhysID
	outgoing := s.m.Cwvm.StackArgOffset
	for i, k := range n.Kids {
		loc := locs[i]
		if loc.InReg {
			if err := s.move(asm.Phys(loc.Ref.Phys()), vals[i]); err != nil {
				return asm.Operand{}, err
			}
			argRegs = append(argRegs, loc.Ref.Phys())
			continue
		}
		// Stack argument: store into the outgoing area at sp+off.
		st, err := BuildStore(s.m, s.af, vals[i], s.m.Cwvm.SP.Phys(), int64(loc.StackOff), k.Type)
		if err != nil {
			return asm.Operand{}, err
		}
		s.emit(st)
		if end := loc.StackOff + k.Type.Size(); end > outgoing {
			outgoing = end
		}
	}
	if outgoing > s.af.Outgoing {
		s.af.Outgoing = outgoing
	}

	// The call instruction itself.
	var callTmpl *mach.Instr
	for _, tmpl := range s.m.Instrs {
		if tmpl.IsCall && tmpl.Sem.Kind == mach.SemCall {
			callTmpl = tmpl
			break
		}
	}
	if callTmpl == nil {
		return asm.Operand{}, fmt.Errorf("machine %s has no call instruction", s.m.Name)
	}
	args := s.slab.args(len(callTmpl.Operands))
	args[callTmpl.BranchOp] = asm.Operand{Kind: asm.OpSym, Sym: n.Sym}
	in := s.slab.inst(callTmpl, args)
	defs := append(s.m.CallerSave(), s.m.Cwvm.RetAddr.Phys())
	for _, r := range s.m.Cwvm.Results {
		defs = append(defs, r.Ref.Phys())
	}
	in.Imp = s.slab.implicit(argRegs, defs)
	s.emit(in)

	// Result.
	if n.Type != ir.Void {
		res, ok := s.m.Cwvm.ResultFor(n.Type)
		if !ok {
			return asm.Operand{}, fmt.Errorf("no %%result register for type %s", n.Type)
		}
		set := s.m.Cwvm.GeneralSet(n.Type)
		out := asm.Reg(s.af.NewPseudo(set, ir.NoReg))
		if err := s.move(out, asm.Phys(res.Phys())); err != nil {
			return asm.Operand{}, err
		}
		s.noteSelected(n, out)
		return out, nil
	}
	return asm.Operand{}, nil
}

// move emits a register-to-register move (a no-op when dst == src).
func (s *selector) move(dst, src asm.Operand) (err error) {
	if dst != src {
		s.out, err = appendMove(&s.slab, s.m, s.af, s.out, dst, src)
	}
	return err
}

// --- Template lookup and instruction building helpers -----------------
//
// These give the strategies and the register allocator access to the
// description-derived instructions they need for prologue/epilogue code,
// spill code and register moves, without duplicating target knowledge.

// findMoveTmpl returns a move template for the given register set.
func findMoveTmpl(m *mach.Machine, set *mach.RegSet) *mach.Instr {
	var fallback *mach.Instr
	for _, tmpl := range m.Instrs {
		if tmpl.Sem.Kind != mach.SemAssign {
			continue
		}
		lv, rv := tmpl.Sem.Kids[0], tmpl.Sem.Kids[1]
		if lv.Kind != mach.SemOperand || rv.Kind != mach.SemOperand {
			continue
		}
		d, s := tmpl.Operands[lv.OpIdx], tmpl.Operands[rv.OpIdx]
		if d.Kind != mach.OperandReg || d.Set != set {
			continue
		}
		if s.Kind != mach.OperandReg || s.Set != set {
			continue
		}
		if tmpl.Move {
			return tmpl
		}
		if fallback == nil {
			fallback = tmpl
		}
	}
	return fallback
}

// slab hands out the operand lists and instructions the selector emits
// for one function from chunks sized by the function's IL node count
// (chunk; a function takes about 1.4 operands and 0.6 instructions a
// node, so four or five chunks), so a small function pays for small
// chunks. The zero slab allocates each one separately, which is what
// the exported builders want: the strategies and the allocator add a
// few instructions each, whenever. The implicit effects of returns and
// calls come from a chunk of two: a function has a return or two and
// seldom a call.
type slab struct {
	chunk int
	ops   []asm.Operand
	insts []asm.Inst
	imps  []asm.Implicit
}

// args returns n zeroed operands nothing else refers to.
func (a *slab) args(n int) []asm.Operand {
	if n > cap(a.ops)-len(a.ops) {
		a.ops = make([]asm.Operand, 0, max(n, a.chunk/3))
	}
	top := len(a.ops)
	a.ops = a.ops[:top+n]
	return a.ops[top : top+n : top+n]
}

// inst is asm.New on the slab.
func (a *slab) inst(tmpl *mach.Instr, args []asm.Operand) *asm.Inst {
	if len(a.insts) == cap(a.insts) {
		a.insts = make([]asm.Inst, 0, max(1, a.chunk/6))
	}
	a.insts = append(a.insts, asm.Inst{Tmpl: tmpl, Args: args, Cycle: -1})
	return &a.insts[len(a.insts)-1]
}

// implicit returns the implicit effects uses and defs.
func (a *slab) implicit(uses, defs []mach.PhysID) *asm.Implicit {
	if len(a.imps) == cap(a.imps) {
		a.imps = make([]asm.Implicit, 0, 2)
	}
	a.imps = append(a.imps, asm.Implicit{Uses: uses, Defs: defs})
	return &a.imps[len(a.imps)-1]
}

// BuildMove builds the instruction(s) moving src into dst (same set).
func BuildMove(m *mach.Machine, af *asm.Func, dst, src asm.Operand) ([]*asm.Inst, error) {
	return appendMove(new(slab), m, af, nil, dst, src)
}

// appendMove appends BuildMove's instructions to out.
func appendMove(a *slab, m *mach.Machine, af *asm.Func, out []*asm.Inst, dst, src asm.Operand) ([]*asm.Inst, error) {
	set := operandSetOf(m, af, dst)
	if set == nil {
		set = operandSetOf(m, af, src)
	}
	if set == nil {
		return out, fmt.Errorf("move %s <- %s: cannot determine register set", dst, src)
	}
	tmpl := findMoveTmpl(m, set)
	if tmpl == nil {
		return out, fmt.Errorf("machine %s has no move for register set %s", m.Name, set.Name)
	}
	lv, rv := tmpl.Sem.Kids[0], tmpl.Sem.Kids[1]
	args := a.args(len(tmpl.Operands))
	for i, spec := range tmpl.Operands {
		switch {
		case i == lv.OpIdx:
			args[i] = dst
		case i == rv.OpIdx:
			args[i] = src
		case spec.Kind == mach.OperandFixedReg:
			args[i] = asm.Phys(spec.Phys())
		default:
			args[i] = asm.Imm(0)
		}
	}
	if len(tmpl.Seq) > 0 {
		return appendSeq(a, m, af, out, tmpl, args)
	}
	return append(out, a.inst(tmpl, args)), nil
}

// appendSeq appends the items of a %seq template with operand wiring.
// All items share a fresh sequence identity for temporal-latch pairing.
func appendSeq(a *slab, m *mach.Machine, af *asm.Func, out []*asm.Inst, tmpl *mach.Instr, args []asm.Operand) ([]*asm.Inst, error) {
	seqID := af.NewSeqID()
	for _, item := range tmpl.Seq {
		sub := a.args(len(item.Args))
		for i, arg := range item.Args {
			switch arg.Kind {
			case mach.SeqOperand:
				sub[i] = args[arg.OpIdx]
			case mach.SeqConst:
				sub[i] = asm.Imm(arg.IVal)
			case mach.SeqLoHalf, mach.SeqHiHalf:
				half := 0
				if arg.Kind == mach.SeqHiHalf {
					half = 1
				}
				h, err := halfOf(m, args[arg.OpIdx], half)
				if err != nil {
					return out, fmt.Errorf("%%seq %s: %w", tmpl.Mnemonic, err)
				}
				sub[i] = h
			}
		}
		in := a.inst(item.Instr, sub)
		in.SeqID = seqID
		out = append(out, in)
	}
	return out, nil
}

// halfOf returns the operand for the low/high overlapping half of a wide
// register operand.
func halfOf(m *mach.Machine, op asm.Operand, half int) (asm.Operand, error) {
	switch op.Kind {
	case asm.OpPseudo:
		return asm.Operand{Kind: asm.OpPseudoHalf, Pseudo: op.Pseudo, Half: uint8(half)}, nil
	case asm.OpPhys:
		al := m.Aliases(op.Phys)
		if len(al) < 2+half {
			return asm.Operand{}, fmt.Errorf("register %s has no overlapping halves", m.PhysName(op.Phys))
		}
		return asm.Phys(al[1+half]), nil
	}
	return asm.Operand{}, fmt.Errorf("lo/hi of non-register operand %s", op)
}

// operandSetOf returns the register set an operand value lives in, or nil.
func operandSetOf(m *mach.Machine, af *asm.Func, op asm.Operand) *mach.RegSet {
	switch op.Kind {
	case asm.OpPseudo:
		return af.Pseudos[op.Pseudo].Set
	case asm.OpPhys:
		return m.PhysRef(op.Phys).Set
	}
	return nil
}

// findLoadTmpl returns a base+immediate load for values of type t into
// registers of the given set.
func findLoadTmpl(m *mach.Machine, set *mach.RegSet, t ir.Type) *mach.Instr {
	for _, tmpl := range m.Instrs {
		if tmpl.Sem.Kind != mach.SemAssign {
			continue
		}
		lv, rv := tmpl.Sem.Kids[0], tmpl.Sem.Kids[1]
		if lv.Kind != mach.SemOperand || rv.Kind != mach.SemMem {
			continue
		}
		d := tmpl.Operands[lv.OpIdx]
		if d.Kind != mach.OperandReg || d.Set != set {
			continue
		}
		if !loadStoreWidthOK(tmpl, d.Set, t) {
			continue
		}
		if ok, _, _ := baseImmAddr(tmpl, rv.Kids[0]); ok {
			return tmpl
		}
	}
	return nil
}

// findStoreTmpl returns a base+immediate store of values of type t from
// registers of the given set.
func findStoreTmpl(m *mach.Machine, set *mach.RegSet, t ir.Type) *mach.Instr {
	for _, tmpl := range m.Instrs {
		if tmpl.Sem.Kind != mach.SemAssign {
			continue
		}
		lv, rv := tmpl.Sem.Kids[0], tmpl.Sem.Kids[1]
		if lv.Kind != mach.SemMem || rv.Kind != mach.SemOperand {
			continue
		}
		v := tmpl.Operands[rv.OpIdx]
		if v.Kind != mach.OperandReg || v.Set != set {
			continue
		}
		if !loadStoreWidthOK(tmpl, v.Set, t) {
			continue
		}
		if ok, _, _ := baseImmAddr(tmpl, lv.Kids[0]); ok {
			return tmpl
		}
	}
	return nil
}

func loadStoreWidthOK(tmpl *mach.Instr, set *mach.RegSet, t ir.Type) bool {
	if tmpl.TypeConstraint != ir.Void {
		return typeOK(tmpl.TypeConstraint, t)
	}
	return t.Size() == set.Size && !t.IsFloat()
}

// baseImmAddr recognizes the address pattern $base + $imm and returns the
// operand indices.
func baseImmAddr(tmpl *mach.Instr, addr *mach.Sem) (ok bool, baseIdx, immIdx int) {
	if addr.Kind != mach.SemOp || addr.Op != ir.Add || len(addr.Kids) != 2 {
		return false, 0, 0
	}
	a, b := addr.Kids[0], addr.Kids[1]
	if a.Kind != mach.SemOperand || b.Kind != mach.SemOperand {
		return false, 0, 0
	}
	sa, sb := tmpl.Operands[a.OpIdx], tmpl.Operands[b.OpIdx]
	if sa.Kind == mach.OperandReg && sb.Kind == mach.OperandImm {
		return true, a.OpIdx, b.OpIdx
	}
	if sa.Kind == mach.OperandImm && sb.Kind == mach.OperandReg {
		return true, b.OpIdx, a.OpIdx
	}
	return false, 0, 0
}

// BuildLoad builds "dst = m[base + off]".
func BuildLoad(m *mach.Machine, af *asm.Func, dst asm.Operand, base mach.PhysID, off int64, t ir.Type) (*asm.Inst, error) {
	set := operandSetOf(m, af, dst)
	tmpl := findLoadTmpl(m, set, t)
	if tmpl == nil {
		return nil, fmt.Errorf("machine %s has no load for %s/%s", m.Name, set.Name, t)
	}
	lv, rv := tmpl.Sem.Kids[0], tmpl.Sem.Kids[1]
	_, bIdx, iIdx := baseImmAddr(tmpl, rv.Kids[0])
	if d := tmpl.Operands[iIdx].Def; d != nil && !d.Fits(off) {
		return nil, fmt.Errorf("frame offset %d exceeds immediate range of %s", off, tmpl.Mnemonic)
	}
	args := make([]asm.Operand, len(tmpl.Operands))
	args[lv.OpIdx] = dst
	args[bIdx] = asm.Phys(base)
	args[iIdx] = asm.Imm(off)
	return asm.New(tmpl, args...), nil
}

// BuildStore builds "m[base + off] = src".
func BuildStore(m *mach.Machine, af *asm.Func, src asm.Operand, base mach.PhysID, off int64, t ir.Type) (*asm.Inst, error) {
	set := operandSetOf(m, af, src)
	tmpl := findStoreTmpl(m, set, t)
	if tmpl == nil {
		return nil, fmt.Errorf("machine %s has no store for %s/%s", m.Name, set.Name, t)
	}
	lv, rv := tmpl.Sem.Kids[0], tmpl.Sem.Kids[1]
	_, bIdx, iIdx := baseImmAddr(tmpl, lv.Kids[0])
	if d := tmpl.Operands[iIdx].Def; d != nil && !d.Fits(off) {
		return nil, fmt.Errorf("frame offset %d exceeds immediate range of %s", off, tmpl.Mnemonic)
	}
	args := make([]asm.Operand, len(tmpl.Operands))
	args[rv.OpIdx] = src
	args[bIdx] = asm.Phys(base)
	args[iIdx] = asm.Imm(off)
	return asm.New(tmpl, args...), nil
}

// findAddImmTmpl returns "reg = reg + imm" in the int general set.
func findAddImmTmpl(m *mach.Machine) *mach.Instr {
	set := m.Cwvm.GeneralSet(ir.I32)
	for _, tmpl := range m.Instrs {
		if tmpl.Sem.Kind != mach.SemAssign {
			continue
		}
		lv, rv := tmpl.Sem.Kids[0], tmpl.Sem.Kids[1]
		if lv.Kind != mach.SemOperand {
			continue
		}
		d := tmpl.Operands[lv.OpIdx]
		if d.Kind != mach.OperandReg || d.Set != set {
			continue
		}
		if rv.Kind != mach.SemOp || rv.Op != ir.Add || len(rv.Kids) != 2 {
			continue
		}
		a, b := rv.Kids[0], rv.Kids[1]
		if a.Kind != mach.SemOperand || b.Kind != mach.SemOperand {
			continue
		}
		if tmpl.Operands[a.OpIdx].Kind == mach.OperandReg && tmpl.Operands[b.OpIdx].Kind == mach.OperandImm {
			return tmpl
		}
	}
	return nil
}

// BuildAddImm builds "dst = src + imm" on physical registers.
func BuildAddImm(m *mach.Machine, dst, src mach.PhysID, imm int64) (*asm.Inst, error) {
	tmpl := findAddImmTmpl(m)
	if tmpl == nil {
		return nil, fmt.Errorf("machine %s has no add-immediate", m.Name)
	}
	lv, rv := tmpl.Sem.Kids[0], tmpl.Sem.Kids[1]
	a, b := rv.Kids[0], rv.Kids[1]
	if d := tmpl.Operands[b.OpIdx].Def; d != nil && !d.Fits(imm) {
		return nil, fmt.Errorf("immediate %d exceeds range of %s", imm, tmpl.Mnemonic)
	}
	args := make([]asm.Operand, len(tmpl.Operands))
	args[lv.OpIdx] = asm.Phys(dst)
	args[a.OpIdx] = asm.Phys(src)
	args[b.OpIdx] = asm.Imm(imm)
	return asm.New(tmpl, args...), nil
}
