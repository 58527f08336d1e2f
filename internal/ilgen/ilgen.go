// Package ilgen lowers the type-checked C AST to Marion's IL: a control
// flow graph of basic blocks holding DAGs of typed low-level operators.
package ilgen

import (
	"fmt"
	"math"

	"marion/internal/cc"
	"marion/internal/ir"
)

// Lower converts a checked translation unit into an IL module, on a
// scratch and a slab of its own.
func Lower(file *cc.File) (*ir.Module, error) { return new(Scratch).Lower(file, new(ir.Slab)) }

// Scratch is the storage the lowering works in, kept from one unit to
// the next: the CSE table, the function's CFG under construction, the
// call-argument and loop stacks, and the maps from the unit's objects to
// their registers and symbols. The zero value is ready to use. What
// Lower returns is the caller's: the module's nodes come from the slab
// the caller gives, and nothing of it stays in s past the next Lower or
// Detach. A scratch belongs to one goroutine at a time.
type Scratch struct{ g gen }

// Lower converts a checked translation unit into an IL module, in s,
// carving its nodes from nodes.
func (s *Scratch) Lower(file *cc.File, nodes *ir.Slab) (*ir.Module, error) {
	s.Detach()
	g := &s.g
	g.m, g.slab = &ir.Module{Name: file.Name}, nodes
	for _, o := range file.Globals {
		if o.Kind != cc.ObjGlobal {
			continue
		}
		sym := &ir.Sym{
			Name:    o.Name,
			Kind:    ir.SymGlobal,
			Type:    o.Type.BaseElem().IR(),
			Size:    o.Type.Size(),
			IsArray: o.Type.Kind == cc.KArray,
			InitI:   o.InitI,
			InitF:   o.InitF,
		}
		g.m.Globals = append(g.m.Globals, sym)
		g.globals[o] = sym
		o.Sym = sym
	}
	for _, fd := range file.Funcs {
		fn, err := g.lowerFunc(fd)
		if err != nil {
			return nil, err
		}
		g.m.Funcs = append(g.m.Funcs, fn)
	}
	return g.m, nil
}

// Detach readies s to wait in a pool: it drops every pointer it holds
// into the unit it lowered last — the module, its functions, blocks,
// symbols and the slab its nodes came from, the unit's objects —
// keeping each list and map's storage up to the bound (ir.Keep) for the
// next unit.
func (s *Scratch) Detach() {
	g := &s.g
	g.m, g.fd, g.fn = nil, nil, nil
	g.slab = nil
	g.globals = ir.KeepMap(g.globals)
	g.fpool = ir.KeepMap(g.fpool)
	g.regs = ir.KeepMap(g.regs)
	g.mems = ir.KeepMap(g.mems)
	g.taken = ir.KeepMap(g.taken)
	g.breaks = ir.Keep(g.breaks)
	g.conts = ir.Keep(g.conts)
	g.stack = ir.Keep(g.stack)
	g.cfg.Detach()
	g.depth = 0
	g.cse.detach()
}

// fpoolKey names a pooled constant by its bits, not its value: -0.0
// and +0.0 compare equal but are different constants.
type fpoolKey struct {
	bits uint64
	t    ir.Type
}

type gen struct {
	m       *ir.Module
	globals map[*cc.Obj]*ir.Sym
	fpool   map[fpoolKey]*ir.Sym

	fd     *cc.FuncDecl
	fn     *ir.Func
	regs   map[*cc.Obj]ir.RegID // register-resident variables
	mems   map[*cc.Obj]*ir.Sym  // memory-resident locals/params
	taken  map[*cc.Obj]bool     // locals and params whose address is taken
	breaks []ir.BlockRef
	conts  []ir.BlockRef
	depth  int // current loop nesting depth
	// cfg is the function's blocks, statements and registers under
	// construction. Blocks are laid out in the order they are started,
	// the emission order, which defines branch fallthrough.
	cfg ir.CFG

	// cse is the unit's value-numbering table, reused block to block.
	cse cseTable

	// slab is where the unit's nodes and kid lists are carved, the
	// caller's; stack collects a call's arguments, which are carved once
	// all are lowered.
	slab  *ir.Slab
	stack []*ir.Node
}

func (g *gen) errf(line int32, format string, args ...interface{}) error {
	return fmt.Errorf("%s:%d: %s", g.m.Name, line, fmt.Sprintf(format, args...))
}

// floatConst returns the pool symbol holding a floating constant.
func (g *gen) floatConst(v float64, t ir.Type) *ir.Sym {
	k := fpoolKey{math.Float64bits(v), t}
	if s, ok := g.fpool[k]; ok {
		return s
	}
	s := &ir.Sym{
		Name:  fmt.Sprintf(".fc%d", len(g.fpool)),
		Kind:  ir.SymGlobal,
		Type:  t,
		Size:  t.Size(),
		InitF: []float64{v},
	}
	g.fpool[k] = s
	g.m.Globals = append(g.m.Globals, s)
	return s
}

// addrTaken records in g.taken the objects whose address is taken
// anywhere in the function body.
func (g *gen) addrTaken(s *cc.Stmt) {
	if s == nil {
		return
	}
	g.addrTakenExpr(s.E)
	g.addrTakenExpr(s.Cond)
	g.addrTakenExpr(s.Post)
	g.addrTakenExpr(s.DeclInit)
	g.addrTaken(s.Init)
	g.addrTaken(s.Body)
	g.addrTaken(s.Else)
	for _, k := range s.List {
		g.addrTaken(k)
	}
}

func (g *gen) addrTakenExpr(e *cc.Expr) {
	if e == nil {
		return
	}
	if e.Kind == cc.EUnary && e.Op == cc.TAmp && e.L.Kind == cc.EIdent {
		if o := e.L.Obj; o != nil && (o.Kind == cc.ObjLocal || o.Kind == cc.ObjParam) {
			g.taken[o] = true
		}
	}
	g.addrTakenExpr(e.L)
	g.addrTakenExpr(e.R)
	g.addrTakenExpr(e.C)
	for _, a := range e.Args {
		g.addrTakenExpr(a)
	}
}

func (g *gen) lowerFunc(fd *cc.FuncDecl) (*ir.Func, error) {
	g.fd = fd
	g.fn = ir.NewFunc(fd.Obj.Name, fd.Obj.Type.Elem.IR())
	g.cfg.Begin(g.fn)
	g.regs, g.mems, g.taken = ir.KeepMap(g.regs), ir.KeepMap(g.mems), ir.KeepMap(g.taken)
	g.addrTaken(fd.Body)

	frame := 0
	newFrameSym := func(o *cc.Obj, kind ir.SymKind) *ir.Sym {
		size := o.Type.Size()
		if size%8 != 0 {
			size += 8 - size%8
		}
		frame += size
		s := &ir.Sym{
			Name:    o.Name,
			Kind:    kind,
			Type:    o.Type.BaseElem().IR(),
			Size:    o.Type.Size(),
			Offset:  -frame,
			IsArray: o.Type.Kind == cc.KArray,
		}
		g.fn.Locals = append(g.fn.Locals, s)
		g.mems[o] = s
		o.Sym = s
		return s
	}

	// Parameters: register-resident unless address-taken.
	for _, p := range fd.Params {
		sym := &ir.Sym{Name: p.Name, Kind: ir.SymParam, Type: p.Type.IR(), Size: p.Type.Size()}
		g.fn.Params = append(g.fn.Params, sym)
		p.Sym = sym
		if g.taken[p] {
			newFrameSym(p, ir.SymLocal)
			g.fn.ParamRegs = append(g.fn.ParamRegs, ir.NoReg)
		} else {
			r := g.cfg.NewReg(p.Type.IR(), p.Name)
			g.regs[p] = r
			g.fn.ParamRegs = append(g.fn.ParamRegs, r)
		}
	}

	// Locals: arrays and address-taken scalars go to the frame.
	for _, o := range fd.Locals {
		if o.Type.Kind == cc.KArray || g.taken[o] {
			newFrameSym(o, ir.SymLocal)
		} else {
			g.regs[o] = g.cfg.NewReg(o.Type.IR(), o.Name)
		}
	}
	g.fn.LocalFrame = frame

	g.startBlock(g.cfg.NewBlock())
	if err := g.stmt(fd.Body); err != nil {
		return nil, err
	}
	// Implicit return at the end of the function body.
	if !g.terminated() {
		g.append(g.slab.New(ir.Ret, ir.Void))
	}
	// Emission order is start order, not creation order: blocks created
	// early but populated late (join blocks) move to their start point.
	// Blocks code after a return or a jump left unreachable go.
	if err := g.cfg.Finish(g.slab, true); err != nil {
		return nil, err
	}
	g.cse.function(len(g.fn.Regs))
	for _, b := range g.fn.Blocks {
		g.cse.block(b)
	}
	g.fn.MemTypes = g.cse.mem
	g.cfg.MarkGlobalRegs(g.fn)
	return g.fn, nil
}

// startBlock makes b, which has not started, the current block: the
// next in the layout, which the current one falls through to unless it
// ends in an unconditional transfer.
func (g *gen) startBlock(b ir.BlockRef) { g.cfg.Start(b, g.depth) }

// terminated reports whether the current block ends with an
// unconditional control transfer.
func (g *gen) terminated() bool {
	if n := g.cfg.Last(); n != nil {
		return n.Op == ir.Jump || n.Op == ir.Ret
	}
	return false
}

func (g *gen) append(n *ir.Node) { g.cfg.Append(n) }

// jump appends an unconditional jump to b (unless already terminated).
func (g *gen) jump(b ir.BlockRef) {
	if g.terminated() {
		return
	}
	g.append(g.cfg.Jump(g.slab, b))
}

func (g *gen) stmt(s *cc.Stmt) error {
	switch s.Kind {
	case cc.SEmpty:
		return nil

	case cc.SBlock:
		for _, k := range s.List {
			if err := g.stmt(k); err != nil {
				return err
			}
		}
		return nil

	case cc.SDecl:
		if s.DeclInit == nil {
			return nil
		}
		v, err := g.expr(s.DeclInit)
		if err != nil {
			return err
		}
		if r, ok := g.regs[s.Decl]; ok {
			g.asgn(v.Type, r, v)
			return nil
		}
		base, off, err := g.objAddr(s.Decl)
		if err != nil {
			return err
		}
		g.store(base, off, v, s.Decl.Type.IR())
		return nil

	case cc.SExpr:
		_, err := g.expr(s.E)
		return err

	case cc.SIf:
		thenB := g.cfg.NewBlock()
		var elseB, endB ir.BlockRef
		endB = g.cfg.NewBlock()
		if s.Else != nil {
			elseB = g.cfg.NewBlock()
		} else {
			elseB = endB
		}
		if err := g.cond(s.Cond, thenB, elseB, thenB); err != nil {
			return err
		}
		g.startBlock(thenB)
		if err := g.stmt(s.Body); err != nil {
			return err
		}
		if s.Else != nil {
			g.jump(endB)
			g.startBlock(elseB)
			if err := g.stmt(s.Else); err != nil {
				return err
			}
		}
		g.startBlock(endB)
		return nil

	case cc.SWhile:
		head := g.cfg.NewBlock()
		body := g.cfg.NewBlock()
		end := g.cfg.NewBlock()
		g.jump(head)
		g.depth++
		g.startBlock(head)
		if err := g.cond(s.Cond, body, end, body); err != nil {
			return err
		}
		g.startBlock(body)
		g.breaks = append(g.breaks, end)
		g.conts = append(g.conts, head)
		if err := g.stmt(s.Body); err != nil {
			return err
		}
		g.breaks = g.breaks[:len(g.breaks)-1]
		g.conts = g.conts[:len(g.conts)-1]
		g.jump(head)
		g.depth--
		g.startBlock(end)
		return nil

	case cc.SDoWhile:
		body := g.cfg.NewBlock()
		check := g.cfg.NewBlock()
		end := g.cfg.NewBlock()
		g.jump(body)
		g.depth++
		g.startBlock(body)
		g.breaks = append(g.breaks, end)
		g.conts = append(g.conts, check)
		if err := g.stmt(s.Body); err != nil {
			return err
		}
		g.breaks = g.breaks[:len(g.breaks)-1]
		g.conts = g.conts[:len(g.conts)-1]
		g.startBlock(check)
		if err := g.cond(s.Cond, body, end, end); err != nil {
			return err
		}
		g.depth--
		g.startBlock(end)
		return nil

	case cc.SFor:
		if s.Init != nil {
			if err := g.stmt(s.Init); err != nil {
				return err
			}
		}
		head := g.cfg.NewBlock()
		body := g.cfg.NewBlock()
		post := g.cfg.NewBlock()
		end := g.cfg.NewBlock()
		g.jump(head)
		g.depth++
		g.startBlock(head)
		if s.Cond != nil {
			if err := g.cond(s.Cond, body, end, body); err != nil {
				return err
			}
		}
		g.startBlock(body)
		g.breaks = append(g.breaks, end)
		g.conts = append(g.conts, post)
		if err := g.stmt(s.Body); err != nil {
			return err
		}
		g.breaks = g.breaks[:len(g.breaks)-1]
		g.conts = g.conts[:len(g.conts)-1]
		g.startBlock(post)
		if s.Post != nil {
			if _, err := g.expr(s.Post); err != nil {
				return err
			}
		}
		g.jump(head)
		g.depth--
		g.startBlock(end)
		return nil

	case cc.SReturn:
		if s.E == nil {
			g.append(g.slab.New(ir.Ret, ir.Void))
		} else {
			v, err := g.expr(s.E)
			if err != nil {
				return err
			}
			g.append(g.slab.New(ir.Ret, v.Type, v))
		}
		g.startBlock(g.cfg.NewBlock())
		return nil

	case cc.SBreak:
		g.jump(g.breaks[len(g.breaks)-1])
		g.startBlock(g.cfg.NewBlock())
		return nil

	case cc.SContinue:
		g.jump(g.conts[len(g.conts)-1])
		g.startBlock(g.cfg.NewBlock())
		return nil
	}
	return g.errf(s.Line, "unhandled statement kind %d", s.Kind)
}

// invertRel returns the negation of a relational operator.
func invertRel(op ir.Op) ir.Op {
	switch op {
	case ir.Eq:
		return ir.Ne
	case ir.Ne:
		return ir.Eq
	case ir.Lt:
		return ir.Ge
	case ir.Le:
		return ir.Gt
	case ir.Gt:
		return ir.Le
	case ir.Ge:
		return ir.Lt
	}
	return op
}

// cond lowers expression e as a branch: control goes to t when e is
// true, to f otherwise. next names the block the caller will lay out
// immediately after (t or f), so the branch can fall through to it.
func (g *gen) cond(e *cc.Expr, t, f, next ir.BlockRef) error {
	switch {
	case e.Kind == cc.EUnary && e.Op == cc.TBang:
		return g.cond(e.L, f, t, next)

	case e.Kind == cc.EBinary && e.Op == cc.TAndAnd:
		mid := g.cfg.NewBlock()
		if err := g.cond(e.L, mid, f, mid); err != nil {
			return err
		}
		g.startBlock(mid)
		return g.cond(e.R, t, f, next)

	case e.Kind == cc.EBinary && e.Op == cc.TOrOr:
		mid := g.cfg.NewBlock()
		if err := g.cond(e.L, t, mid, mid); err != nil {
			return err
		}
		g.startBlock(mid)
		return g.cond(e.R, t, f, next)
	}

	// Leaf condition: a relational operator or a scalar tested != 0.
	var c *ir.Node
	if e.Kind == cc.EBinary && relOp(e.Op) != ir.BadOp {
		l, err := g.expr(e.L)
		if err != nil {
			return err
		}
		r, err := g.expr(e.R)
		if err != nil {
			return err
		}
		c = g.slab.New(relOp(e.Op), ir.I32, l, r)
	} else {
		v, err := g.expr(e)
		if err != nil {
			return err
		}
		var zero *ir.Node
		if v.Type.IsFloat() {
			// Floating constants live in the literal pool.
			zero = g.load(g.slab.Addr(g.floatConst(0, v.Type)), 0, v.Type)
		} else {
			zero = g.slab.Const(v.Type, 0)
		}
		c = g.slab.New(ir.Ne, ir.I32, v, zero)
	}

	if next == t {
		// Branch on the inverse to f; fall through to t.
		c.Op = invertRel(c.Op)
		g.append(g.cfg.Branch(g.slab, f, c))
	} else {
		g.append(g.cfg.Branch(g.slab, t, c))
	}
	return nil
}

func relOp(op cc.Tok) ir.Op {
	switch op {
	case cc.TEq:
		return ir.Eq
	case cc.TNe:
		return ir.Ne
	case cc.TLt:
		return ir.Lt
	case cc.TLe:
		return ir.Le
	case cc.TGt:
		return ir.Gt
	case cc.TGe:
		return ir.Ge
	}
	return ir.BadOp
}
