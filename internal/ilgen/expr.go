package ilgen

import (
	"fmt"

	"marion/internal/cc"
	"marion/internal/ir"
)

// objAddr returns the (base, offset) address of a memory-resident
// object. Asking for the address of a register-resident variable is a
// lowering bug; it surfaces as an error through Lower rather than a
// crash.
func (g *gen) objAddr(o *cc.Obj) (*ir.Node, int64, error) {
	if s, ok := g.globals[o]; ok {
		return g.slab.Addr(s), 0, nil
	}
	if s, ok := g.mems[o]; ok {
		return g.slab.New(ir.Frame, ir.Ptr), int64(s.Offset), nil
	}
	return nil, 0, fmt.Errorf("ilgen: objAddr of register variable %q", o.Name)
}

// load emits a typed load from base+off.
func (g *gen) load(base *ir.Node, off int64, t ir.Type) *ir.Node {
	addr := g.slab.New(ir.Add, ir.Ptr, base, g.slab.Const(ir.I32, off))
	return g.slab.New(ir.Load, t, addr)
}

// store appends a typed store of v to base+off.
func (g *gen) store(base *ir.Node, off int64, v *ir.Node, t ir.Type) {
	addr := g.slab.New(ir.Add, ir.Ptr, base, g.slab.Const(ir.I32, off))
	n := g.slab.New(ir.Store, t, addr, v)
	g.append(n)
}

// asgn appends an assignment of v to pseudo-register r.
func (g *gen) asgn(t ir.Type, r ir.RegID, v *ir.Node) {
	g.append(g.slab.Node(ir.Node{Op: ir.Asgn, Type: t, Reg: r}, v))
}

// addr lowers an lvalue (or array-valued) expression to (base, offset).
func (g *gen) addr(e *cc.Expr) (*ir.Node, int64, error) {
	switch e.Kind {
	case cc.EIdent:
		o := e.Obj
		if _, ok := g.regs[o]; ok {
			return nil, 0, g.errf(e.Line, "internal: address of register variable %q", o.Name)
		}
		return g.objAddr(o)

	case cc.EUnary:
		if e.Op == cc.TStar {
			p, err := g.expr(e.L)
			if err != nil {
				return nil, 0, err
			}
			return p, 0, nil
		}

	case cc.EIndex:
		var base *ir.Node
		var off int64
		var err error
		// The base is either an array lvalue or a pointer value.
		lt := e.L.Type
		if lt.Kind == cc.KArray {
			base, off, err = g.addr(e.L)
		} else {
			base, err = g.expr(e.L)
		}
		if err != nil {
			return nil, 0, err
		}
		size := int64(e.L.Type.Elem.Size())
		idx, err := g.expr(e.R)
		if err != nil {
			return nil, 0, err
		}
		if idx.IsConst() {
			return base, off + idx.IVal*size, nil
		}
		scaled := g.scale(idx, size)
		if off != 0 {
			// Keep the constant outermost so load/store patterns fold it.
			base = g.slab.New(ir.Add, ir.Ptr, base, scaled)
			return base, off, nil
		}
		return g.slab.New(ir.Add, ir.Ptr, base, scaled), 0, nil
	}
	return nil, 0, g.errf(e.Line, "expression is not addressable")
}

// scale multiplies an index by a constant element size, using a shift for
// powers of two.
func (g *gen) scale(idx *ir.Node, size int64) *ir.Node {
	if size == 1 {
		return idx
	}
	if size&(size-1) == 0 {
		sh := int64(0)
		for s := size; s > 1; s >>= 1 {
			sh++
		}
		return g.slab.New(ir.Shl, ir.I32, idx, g.slab.Const(ir.I32, sh))
	}
	return g.slab.New(ir.Mul, ir.I32, idx, g.slab.Const(ir.I32, size))
}

func binOp(op cc.Tok) ir.Op {
	switch op {
	case cc.TPlus, cc.TPlusEq:
		return ir.Add
	case cc.TMinus, cc.TMinusEq:
		return ir.Sub
	case cc.TStar, cc.TStarEq:
		return ir.Mul
	case cc.TSlash, cc.TSlashEq:
		return ir.Div
	case cc.TPercent, cc.TPercentEq:
		return ir.Rem
	case cc.TPipe:
		return ir.Or
	case cc.TCaret:
		return ir.Xor
	case cc.TAmp:
		return ir.And
	case cc.TShl:
		return ir.Shl
	case cc.TShr:
		return ir.Shr
	}
	return ir.BadOp
}

// expr lowers an expression to an IL value node, appending any
// side-effecting statement roots to the current block.
func (g *gen) expr(e *cc.Expr) (*ir.Node, error) {
	switch e.Kind {
	case cc.EIntLit:
		return g.slab.Const(e.Type.IR(), e.IVal), nil

	case cc.EFloatLit:
		t := e.Type.IR()
		s := g.floatConst(e.Float(), t)
		return g.load(g.slab.Addr(s), 0, t), nil

	case cc.EIdent:
		o := e.Obj
		if r, ok := g.regs[o]; ok {
			return g.slab.Reg(o.Type.IR(), r), nil
		}
		if o.Type.Kind == cc.KArray {
			b, off, err := g.objAddr(o)
			if err != nil {
				return nil, err
			}
			if off == 0 {
				return b, nil
			}
			return g.slab.New(ir.Add, ir.Ptr, b, g.slab.Const(ir.I32, off)), nil
		}
		b, off, err := g.objAddr(o)
		if err != nil {
			return nil, err
		}
		return g.load(b, off, o.Type.IR()), nil

	case cc.EUnary:
		switch e.Op {
		case cc.TMinus:
			k, err := g.expr(e.L)
			if err != nil {
				return nil, err
			}
			return g.slab.New(ir.Neg, e.Type.IR(), k), nil
		case cc.TTilde:
			k, err := g.expr(e.L)
			if err != nil {
				return nil, err
			}
			return g.slab.New(ir.Not, e.Type.IR(), k), nil
		case cc.TBang:
			return g.condValue(e)
		case cc.TStar:
			b, off, err := g.addr(e)
			if err != nil {
				return nil, err
			}
			return g.load(b, off, e.Type.IR()), nil
		case cc.TAmp:
			b, off, err := g.addr(e.L)
			if err != nil {
				return nil, err
			}
			if off == 0 {
				return b, nil
			}
			return g.slab.New(ir.Add, ir.Ptr, b, g.slab.Const(ir.I32, off)), nil
		}

	case cc.EBinary:
		switch e.Op {
		case cc.TAndAnd, cc.TOrOr, cc.TEq, cc.TNe, cc.TLt, cc.TLe, cc.TGt, cc.TGe:
			return g.condValue(e)
		}
		l, err := g.expr(e.L)
		if err != nil {
			return nil, err
		}
		r, err := g.expr(e.R)
		if err != nil {
			return nil, err
		}
		// Pointer arithmetic scales the integer operand.
		if e.L.Type.Kind == cc.KPtr && e.R.Type.IsInteger() {
			size := int64(e.L.Type.Elem.Size())
			if r.IsConst() {
				r = g.slab.Const(ir.I32, r.IVal*size)
			} else {
				r = g.scale(r, size)
			}
			return g.slab.New(binOp(e.Op), ir.Ptr, l, r), nil
		}
		if e.Op == cc.TMinus && e.L.Type.Kind == cc.KPtr && e.R.Type.Kind == cc.KPtr {
			size := int64(e.L.Type.Elem.Size())
			diff := g.slab.New(ir.Sub, ir.I32, l, r)
			if size == 1 {
				return diff, nil
			}
			return g.slab.New(ir.Div, ir.I32, diff, g.slab.Const(ir.I32, size)), nil
		}
		n := g.slab.New(binOp(e.Op), e.Type.IR(), l, r)
		normalizeCommutative(n)
		return g.foldConst(n), nil

	case cc.EAssign:
		return g.assign(e)

	case cc.ECond:
		return g.condValue(e)

	case cc.ECall:
		return g.call(e)

	case cc.EIndex:
		b, off, err := g.addr(e)
		if err != nil {
			return nil, err
		}
		if e.Type.Kind == cc.KArray {
			// Address of a sub-array (multi-dimensional indexing).
			if off == 0 {
				return b, nil
			}
			return g.slab.New(ir.Add, ir.Ptr, b, g.slab.Const(ir.I32, off)), nil
		}
		return g.load(b, off, e.Type.IR()), nil

	case cc.ECast:
		k, err := g.expr(e.L)
		if err != nil {
			return nil, err
		}
		return g.cast(k, e.L.Type.IR(), e.Type.IR()), nil

	case cc.EPreIncDec, cc.EPostIncDec:
		return g.incDec(e)
	}
	return nil, g.errf(e.Line, "unhandled expression kind %d", e.Kind)
}

// cast converts value v from IL type from to IL type to, folding
// constants and dropping conversions with no machine-level effect. A
// narrowing integer conversion truncates and sign-extends: a constant
// is folded, and a value is extended.
func (g *gen) cast(v *ir.Node, from, to ir.Type) *ir.Node {
	if from == to {
		return v
	}
	if v.IsConst() {
		switch {
		case from.IsFloat() && to.IsFloat():
			return g.slab.FConst(to, v.Float())
		case from.IsFloat() && to.IsInt():
			return g.slab.Const(to, narrow(int64(v.Float()), to))
		case from.IsInt() && to.IsFloat():
			// Floating constants must live in memory.
			s := g.floatConst(float64(v.IVal), to)
			return g.load(g.slab.Addr(s), 0, to)
		default:
			return g.slab.Const(to, narrow(v.IVal, to))
		}
	}
	// Other integer-to-integer conversions are free: registers hold
	// extended 32-bit values. A widened sub-word load keeps its type,
	// and so its width in memory: the load itself extends the value.
	if from.IsInt() && to.IsInt() {
		if to.Size() < from.Size() {
			return g.extend(v, to)
		}
		if v.Op == ir.Load && from.Size() < to.Size() {
			return v
		}
		return g.retype(v, to)
	}
	return g.slab.Node(ir.Node{Op: ir.Cvt, Type: to, From: from}, v)
}

// retype is v as type to, for a conversion with no machine-level
// effect. The retyped copy shares v's kid list.
func (g *gen) retype(v *ir.Node, to ir.Type) *ir.Node {
	v2 := g.slab.Node(*v)
	v2.Type = to
	return v2
}

// extend sign-extends the low bits of v that a sub-word type t holds
// to 32, as (v << k) >> k with k = 32 - 8*size; other types keep v as
// it is. A register holds an integer extended to 32 bits.
func (g *gen) extend(v *ir.Node, t ir.Type) *ir.Node {
	if t != ir.I8 && t != ir.I16 {
		return v
	}
	k := int64(32 - 8*t.Size())
	up := g.slab.New(ir.Shl, ir.I32, v, g.slab.Const(ir.I32, k))
	return g.slab.New(ir.Shr, ir.I32, up, g.slab.Const(ir.I32, k))
}

// narrow truncates an integer constant to a sub-word type t and
// sign-extends it back; other types keep it as it is.
func narrow(x int64, t ir.Type) int64 {
	switch t {
	case ir.I8:
		return int64(int8(x))
	case ir.I16:
		return int64(int16(x))
	}
	return x
}

// normalizeCommutative moves a constant operand of a commutative operator
// to the right, so immediate-form patterns match.
func normalizeCommutative(n *ir.Node) {
	if n.Op.Commutative() && len(n.Kids) == 2 &&
		n.Kids[0].IsConst() && !n.Kids[1].IsConst() {
		n.Kids[0], n.Kids[1] = n.Kids[1], n.Kids[0]
	}
}

// foldConst folds integer constant operations.
func (g *gen) foldConst(n *ir.Node) *ir.Node {
	if len(n.Kids) != 2 || !n.Kids[0].IsConst() || !n.Kids[1].IsConst() || !n.Type.IsInt() {
		return n
	}
	a, b := n.Kids[0].IVal, n.Kids[1].IVal
	var v int64
	switch n.Op {
	case ir.Add:
		v = a + b
	case ir.Sub:
		v = a - b
	case ir.Mul:
		v = a * b
	case ir.And:
		v = a & b
	case ir.Or:
		v = a | b
	case ir.Xor:
		v = a ^ b
	case ir.Shl:
		v = int64(int32(a) << uint(b))
	case ir.Shr:
		v = int64(int32(a) >> uint(b))
	case ir.Div:
		if b == 0 {
			return n
		}
		v = a / b
	case ir.Rem:
		if b == 0 {
			return n
		}
		v = a % b
	default:
		return n
	}
	return g.slab.Const(n.Type, v)
}

// assign lowers plain and compound assignment; the result is the stored
// value, as the destination holds it: a compound result is extended from
// a sub-word type, whether a register or memory takes it.
func (g *gen) assign(e *cc.Expr) (*ir.Node, error) {
	// Register-resident destination.
	if e.L.Kind == cc.EIdent {
		if r, ok := g.regs[e.L.Obj]; ok {
			v, err := g.expr(e.R)
			if err != nil {
				return nil, err
			}
			if e.Op != cc.TAssign {
				t := e.L.Type.IR()
				v = g.extend(g.compound(e, g.slab.Reg(t, r), v), t)
			}
			g.asgn(v.Type, r, v)
			return v, nil
		}
	}
	// Memory destination.
	b, off, err := g.addr(e.L)
	if err != nil {
		return nil, err
	}
	t := e.L.Type.IR()
	v, err := g.expr(e.R)
	if err != nil {
		return nil, err
	}
	if e.Op == cc.TAssign {
		g.store(b, off, v, t)
		return v, nil
	}
	v = g.compound(e, g.load(b, off, t), v)
	g.store(b, off, v, t)
	return g.extend(v, t), nil
}

// compound combines a compound assignment's destination value cur with
// its lowered right operand rhs. A pointer's integer operand is scaled by
// the element size, as in p + n. An arithmetic one is of the operation's
// type (sema converted it): cur is converted up to it and the result back
// to the destination's type, so int i; i *= 1.5 multiplies in double.
// When both types are integers the operation is done in the
// destination's and rhs is only retyped: a register holds an integer
// extended to 32 bits either way, and cast widens by retyping, which
// would turn a sub-word load of cur into a word load. The result is not
// narrowed here: a store truncates, and assign extends what a register
// is given and what the expression yields.
func (g *gen) compound(e *cc.Expr, cur, rhs *ir.Node) *ir.Node {
	t, op := e.L.Type.IR(), e.R.Type.IR()
	if e.L.Type.Kind == cc.KPtr {
		size := int64(e.L.Type.Elem.Size())
		if rhs.IsConst() {
			rhs = g.slab.Const(ir.I32, rhs.IVal*size)
		} else {
			rhs = g.scale(rhs, size)
		}
		op = t
	} else if t.IsInt() && op.IsInt() {
		if op != t {
			rhs = g.retype(rhs, t)
		}
		op = t
	}
	v := g.slab.New(binOp(e.Op), op, g.cast(cur, t, op), rhs)
	normalizeCommutative(v)
	return g.cast(v, op, t)
}

// incDec lowers ++/--; post-forms capture the old value in a temporary.
// A register is given its new value extended, as in assign, and a
// pre-form on memory returns it extended too.
func (g *gen) incDec(e *cc.Expr) (*ir.Node, error) {
	t := e.L.Type.IR()
	var one *ir.Node
	delta := int64(1)
	if e.L.Type.Kind == cc.KPtr {
		delta = int64(e.L.Type.Elem.Size())
	}
	if t.IsFloat() {
		s := g.floatConst(1, t)
		one = g.load(g.slab.Addr(s), 0, t)
	} else {
		one = g.slab.Const(t, delta)
	}
	op := ir.Add
	if e.Op == cc.TDec {
		op = ir.Sub
	}

	if e.L.Kind == cc.EIdent {
		if r, ok := g.regs[e.L.Obj]; ok {
			oldv := g.slab.Reg(t, r)
			if e.Kind == cc.EPostIncDec {
				// Capture the old value first.
				tmp := g.cfg.NewReg(t, "")
				g.asgn(t, tmp, oldv)
				g.asgn(t, r, g.extend(g.slab.New(op, t, g.slab.Reg(t, r), one), t))
				return g.slab.Reg(t, tmp), nil
			}
			g.asgn(t, r, g.extend(g.slab.New(op, t, oldv, one), t))
			return g.slab.Reg(t, r), nil
		}
	}
	b, off, err := g.addr(e.L)
	if err != nil {
		return nil, err
	}
	oldv := g.load(b, off, t)
	newv := g.slab.New(op, t, oldv, one)
	g.store(b, off, newv, t)
	if e.Kind == cc.EPostIncDec {
		return oldv, nil
	}
	return g.extend(newv, t), nil
}

// call lowers a function call; the Call node itself is the value. The
// arguments are lowered onto the kid stack and carved once all are in.
func (g *gen) call(e *cc.Expr) (*ir.Node, error) {
	base := len(g.stack)
	defer func() { g.stack = g.stack[:base] }()
	for _, a := range e.Args {
		v, err := g.expr(a)
		if err != nil {
			return nil, err
		}
		g.stack = append(g.stack, v)
	}
	n := g.slab.Node(ir.Node{Op: ir.Call, Type: e.Type.IR(), Sym: g.funcSym(e.L.Obj)}, g.stack[base:]...)
	g.append(n)
	return n, nil
}

// funcSym returns (creating on demand) the ir.Sym for a function object.
func (g *gen) funcSym(o *cc.Obj) *ir.Sym {
	if s, ok := g.globals[o]; ok {
		return s
	}
	s := &ir.Sym{Name: o.Name, Kind: ir.SymFunc, Type: o.Type.Elem.IR()}
	g.globals[o] = s
	o.Sym = s
	return s
}

// condValue lowers a boolean-valued expression (relational, logical or
// ?:) using control flow and a temporary register.
func (g *gen) condValue(e *cc.Expr) (*ir.Node, error) {
	if e.Kind == cc.ECond {
		t := e.Type.IR()
		tmp := g.cfg.NewReg(t, "")
		tb := g.cfg.NewBlock()
		fb := g.cfg.NewBlock()
		end := g.cfg.NewBlock()
		if err := g.cond(e.C, tb, fb, tb); err != nil {
			return nil, err
		}
		g.startBlock(tb)
		v, err := g.expr(e.L)
		if err != nil {
			return nil, err
		}
		g.asgn(t, tmp, v)
		g.jump(end)
		g.startBlock(fb)
		v, err = g.expr(e.R)
		if err != nil {
			return nil, err
		}
		g.asgn(t, tmp, v)
		g.startBlock(end)
		return g.slab.Reg(t, tmp), nil
	}

	tmp := g.cfg.NewReg(ir.I32, "")
	tb := g.cfg.NewBlock()
	fb := g.cfg.NewBlock()
	end := g.cfg.NewBlock()
	if err := g.cond(e, tb, fb, tb); err != nil {
		return nil, err
	}
	g.startBlock(tb)
	g.asgn(ir.I32, tmp, g.slab.Const(ir.I32, 1))
	g.jump(end)
	g.startBlock(fb)
	g.asgn(ir.I32, tmp, g.slab.Const(ir.I32, 0))
	g.startBlock(end)
	return g.slab.Reg(ir.I32, tmp), nil
}
