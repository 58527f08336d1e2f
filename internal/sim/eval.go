package sim

import (
	"fmt"
	"math"

	"marion/internal/asm"
	"marion/internal/ir"
	"marion/internal/mach"
)

// val is a runtime value during semantics evaluation.
type val struct {
	i   int64
	f   float64
	isF bool
}

func iv(v int64) val   { return val{i: v} }
func fv(v float64) val { return val{f: v, isF: true} }

func (v val) asF() float64 {
	if v.isF {
		return v.f
	}
	return float64(v.i)
}

func (v val) asI() int64 {
	if v.isF {
		return int64(v.f)
	}
	return v.i
}

// execCtx accumulates per-word side effects so that all reads happen
// before any write commits (two-phase execution of packed words).
type execCtx struct {
	regWrites   []regWrite
	latchWrites []latchWrite
	memWrites   []memWrite
	loadPenalty int
}

type regWrite struct {
	phys mach.PhysID
	bits uint64
	in   *asm.Inst
}

type latchWrite struct {
	set  *mach.RegSet
	bits uint64
	in   *asm.Inst
}

type memWrite struct {
	addr uint32
	size int
	bits uint64
}

// setFloat reports whether values in the register set are floating point.
func setFloat(set *mach.RegSet) bool {
	for _, t := range set.Types {
		if t.IsFloat() {
			return true
		}
	}
	return false
}

// readOperand fetches the runtime value of one instruction operand.
func (s *Sim) readOperand(in *asm.Inst, idx int) (val, error) {
	a := in.Args[idx]
	switch a.Kind {
	case asm.OpImm:
		return iv(a.Imm), nil
	case asm.OpSym:
		return iv(int64(a.Sym.Offset)), nil
	case asm.OpPhys:
		set := s.m.PhysRef(a.Phys).Set
		bits := s.getReg(a.Phys)
		if setFloat(set) {
			if set.Size == 8 {
				return fv(math.Float64frombits(bits)), nil
			}
			return fv(float64(math.Float32frombits(uint32(bits)))), nil
		}
		return iv(int64(int32(bits))), nil
	}
	return val{}, fmt.Errorf("sim: cannot read operand %s of %s", a, in)
}

// memAccessType returns the width/signedness of an instruction's memory
// access.
func memAccessType(in *asm.Inst, valueSet *mach.RegSet) ir.Type {
	if tc := in.Tmpl.TypeConstraint; tc != ir.Void {
		return tc
	}
	if valueSet != nil && valueSet.Size == 8 {
		return ir.F64
	}
	return ir.I32
}

// evalExpr evaluates the right-hand side / condition of an instruction's
// semantics using current machine state, recording loads in ctx.
func (s *Sim) evalExpr(in *asm.Inst, sem *mach.Sem, ctx *execCtx) (val, error) {
	switch sem.Kind {
	case mach.SemOperand:
		return s.readOperand(in, sem.OpIdx)

	case mach.SemConst:
		if sem.IsFloat {
			return fv(sem.FVal), nil
		}
		return iv(sem.IVal), nil

	case mach.SemTReg:
		bits := s.latches[sem.TReg]
		if setFloat(sem.TReg) {
			return fv(math.Float64frombits(bits)), nil
		}
		return iv(int64(int32(bits))), nil

	case mach.SemMem:
		av, err := s.evalExpr(in, sem.Kids[0], ctx)
		if err != nil {
			return val{}, err
		}
		addr := uint32(av.asI())
		s.stats.Loads++
		if s.cache != nil {
			if !s.cache.access(addr) {
				s.stats.LoadMisses++
				ctx.loadPenalty = s.opts.Cache.MissPenalty
			}
		}
		// The destination register set decides the value width when the
		// instruction is untyped.
		var vset *mach.RegSet
		if len(in.Tmpl.DefOps) > 0 {
			if a := in.Args[in.Tmpl.DefOps[0]]; a.Kind == asm.OpPhys {
				vset = s.m.PhysRef(a.Phys).Set
			}
		}
		t := memAccessType(in, vset)
		switch t {
		case ir.I8:
			return iv(int64(int8(s.mem.read(addr, 1)))), nil
		case ir.I16:
			return iv(int64(int16(s.mem.read(addr, 2)))), nil
		case ir.U32:
			return iv(int64(int32(s.mem.read(addr, 4)))), nil
		case ir.F32:
			return fv(float64(math.Float32frombits(uint32(s.mem.read(addr, 4))))), nil
		case ir.F64:
			return fv(math.Float64frombits(s.mem.read(addr, 8))), nil
		default:
			return iv(int64(int32(s.mem.read(addr, 4)))), nil
		}

	case mach.SemCvt:
		k, err := s.evalExpr(in, sem.Kids[0], ctx)
		if err != nil {
			return val{}, err
		}
		switch sem.CvtTo {
		case ir.F64:
			return fv(k.asF()), nil
		case ir.F32:
			return fv(float64(float32(k.asF()))), nil
		default:
			return iv(int64(int32(k.asI()))), nil
		}

	case mach.SemOp:
		var buf [3]val // operands of the usual operators; more spill to the heap
		kids := buf[:0]
		for _, kSem := range sem.Kids {
			k, err := s.evalExpr(in, kSem, ctx)
			if err != nil {
				return val{}, err
			}
			kids = append(kids, k)
		}
		return s.applyOp(in, sem.Op, kids)
	}
	return val{}, fmt.Errorf("sim: cannot evaluate %s in %s", sem, in)
}

func b2i(b bool) val {
	if b {
		return iv(1)
	}
	return iv(0)
}

func (s *Sim) applyOp(in *asm.Inst, op ir.Op, k []val) (val, error) {
	anyF := false
	for _, v := range k {
		if v.isF {
			anyF = true
		}
	}
	switch op {
	case ir.Add:
		if anyF {
			return fv(k[0].asF() + k[1].asF()), nil
		}
		return iv(int64(int32(k[0].i + k[1].i))), nil
	case ir.Sub:
		if anyF {
			return fv(k[0].asF() - k[1].asF()), nil
		}
		return iv(int64(int32(k[0].i - k[1].i))), nil
	case ir.Mul:
		if anyF {
			return fv(k[0].asF() * k[1].asF()), nil
		}
		return iv(int64(int32(k[0].i * k[1].i))), nil
	case ir.Div:
		if anyF {
			return fv(k[0].asF() / k[1].asF()), nil
		}
		if k[1].i == 0 {
			return val{}, fmt.Errorf("sim: integer division by zero in %s", in)
		}
		return iv(int64(int32(k[0].i / k[1].i))), nil
	case ir.Rem:
		if k[1].i == 0 {
			return val{}, fmt.Errorf("sim: integer modulo by zero in %s", in)
		}
		return iv(int64(int32(k[0].i % k[1].i))), nil
	case ir.Neg:
		if anyF {
			return fv(-k[0].asF()), nil
		}
		return iv(int64(int32(-k[0].i))), nil
	case ir.And:
		return iv(k[0].i & k[1].i), nil
	case ir.Or:
		return iv(k[0].i | k[1].i), nil
	case ir.Xor:
		return iv(k[0].i ^ k[1].i), nil
	case ir.Not:
		return iv(int64(int32(^k[0].i))), nil
	case ir.Shl:
		return iv(int64(int32(k[0].i) << uint(k[1].i&31))), nil
	case ir.Shr:
		return iv(int64(int32(k[0].i) >> uint(k[1].i&31))), nil
	case ir.High:
		return iv(int64(int32(k[0].i) &^ 0xffff)), nil
	case ir.Low:
		return iv(k[0].i & 0xffff), nil
	case ir.Cmp:
		// The generic compare "::" yields the sign of the difference.
		if anyF {
			a, b := k[0].asF(), k[1].asF()
			switch {
			case a < b:
				return iv(-1), nil
			case a > b:
				return iv(1), nil
			}
			return iv(0), nil
		}
		switch {
		case k[0].i < k[1].i:
			return iv(-1), nil
		case k[0].i > k[1].i:
			return iv(1), nil
		}
		return iv(0), nil
	case ir.Eq:
		if anyF {
			return b2i(k[0].asF() == k[1].asF()), nil
		}
		return b2i(k[0].i == k[1].i), nil
	case ir.Ne:
		if anyF {
			return b2i(k[0].asF() != k[1].asF()), nil
		}
		return b2i(k[0].i != k[1].i), nil
	case ir.Lt:
		if anyF {
			return b2i(k[0].asF() < k[1].asF()), nil
		}
		return b2i(k[0].i < k[1].i), nil
	case ir.Le:
		if anyF {
			return b2i(k[0].asF() <= k[1].asF()), nil
		}
		return b2i(k[0].i <= k[1].i), nil
	case ir.Gt:
		if anyF {
			return b2i(k[0].asF() > k[1].asF()), nil
		}
		return b2i(k[0].i > k[1].i), nil
	case ir.Ge:
		if anyF {
			return b2i(k[0].asF() >= k[1].asF()), nil
		}
		return b2i(k[0].i >= k[1].i), nil
	}
	return val{}, fmt.Errorf("sim: unhandled operator %s in %s", op, in)
}

// execute evaluates one instruction's semantics, queuing writes in ctx.
// Control-transfer effects are returned to the main loop.
func (s *Sim) execute(in *asm.Inst, ctx *execCtx) (taken bool, err error) {
	sem := in.Tmpl.Sem
	switch sem.Kind {
	case mach.SemEmpty:
		return false, nil

	case mach.SemAssign:
		rhs, err := s.evalExpr(in, sem.Kids[1], ctx)
		if err != nil {
			return false, err
		}
		lv := sem.Kids[0]
		switch lv.Kind {
		case mach.SemOperand:
			a := in.Args[lv.OpIdx]
			if a.Kind != asm.OpPhys {
				return false, fmt.Errorf("sim: non-physical destination in %s", in)
			}
			set := s.m.PhysRef(a.Phys).Set
			var bits uint64
			if setFloat(set) {
				if set.Size == 8 {
					bits = math.Float64bits(rhs.asF())
				} else {
					bits = uint64(math.Float32bits(float32(rhs.asF())))
				}
			} else {
				bits = uint64(uint32(rhs.asI()))
			}
			ctx.regWrites = append(ctx.regWrites, regWrite{a.Phys, bits, in})
		case mach.SemTReg:
			var bits uint64
			if setFloat(lv.TReg) {
				bits = math.Float64bits(rhs.asF())
			} else {
				bits = uint64(uint32(rhs.asI()))
			}
			ctx.latchWrites = append(ctx.latchWrites, latchWrite{lv.TReg, bits, in})
		case mach.SemMem:
			av, err := s.evalExpr(in, lv.Kids[0], ctx)
			if err != nil {
				return false, err
			}
			addr := uint32(av.asI())
			var vset *mach.RegSet
			if len(in.Tmpl.UseOps) > 0 {
				if a := in.Args[in.Tmpl.UseOps[0]]; a.Kind == asm.OpPhys {
					vset = s.m.PhysRef(a.Phys).Set
				}
			}
			t := memAccessType(in, vset)
			var bits uint64
			size := t.Size()
			switch t {
			case ir.F32:
				bits = uint64(math.Float32bits(float32(rhs.asF())))
			case ir.F64:
				bits = math.Float64bits(rhs.asF())
			default:
				bits = uint64(rhs.asI())
			}
			ctx.memWrites = append(ctx.memWrites, memWrite{addr, size, bits})
		}
		return false, nil

	case mach.SemIfGoto:
		cond, err := s.evalExpr(in, sem.Kids[0], ctx)
		if err != nil {
			return false, err
		}
		return cond.asI() != 0, nil

	case mach.SemGoto, mach.SemCall, mach.SemCallReg, mach.SemRet:
		return true, nil
	}
	return false, fmt.Errorf("sim: cannot execute %s", in)
}
