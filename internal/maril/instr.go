package maril

import "marion/internal/mach"

func (p *parser) instrSection() error {
	for p.tok.Kind == TokDirective {
		dir := p.tok.Text
		if err := p.advance(); err != nil {
			return err
		}
		var err error
		switch dir {
		case "instr":
			err = p.instrDecl(false)
		case "move":
			err = p.instrDecl(true)
		case "func":
			return p.errf("%%func escapes are not supported: write the expansion as a %%seq")
		case "seq":
			err = p.seqDecl()
		case "aux":
			err = p.auxDecl()
		case "glue":
			err = p.glueDecl()
		default:
			return p.errf("unknown instr directive %%%s", dir)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// instrDecl parses %instr and %move directives:
//
//	%instr mnemonic operands (type; clock)? {sem} [res] (c,l,s) <classes>?
//	%move [label]? mnemonic operands ...
func (p *parser) instrDecl(isMove bool) error {
	in := &mach.Instr{Move: isMove, AffectsClock: -1}

	if isMove && p.tok.Kind == TokLBrack {
		if err := p.advance(); err != nil {
			return err
		}
		lab, err := p.expectIdent()
		if err != nil {
			return err
		}
		in.Label = lab
		if _, err := p.expect(TokRBrack); err != nil {
			return err
		}
	}
	if p.tok.Kind == TokStar {
		return p.errf("*name escapes are not supported: write the expansion as a %%seq")
	}
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	in.Mnemonic = name

	ops, err := p.operandList()
	if err != nil {
		return err
	}
	in.Operands = ops

	if err := p.typeClock(in); err != nil {
		return err
	}

	if _, err := p.expect(TokLBrace); err != nil {
		return err
	}
	sem, err := p.stmt(in.Operands)
	if err != nil {
		return err
	}
	in.Sem = sem
	if _, err := p.expect(TokRBrace); err != nil {
		return err
	}

	if err := p.resVec(in); err != nil {
		return err
	}
	if err := p.costTriple(in); err != nil {
		return err
	}
	if err := p.classList(in); err != nil {
		return err
	}
	p.m.AddInstr(in)
	return nil
}

// operandList parses a comma-separated list of formal operands; it stops
// at '(' (type constraint), '{' (semantics) or '=' (%seq expansion).
func (p *parser) operandList() ([]mach.OperandSpec, error) {
	var ops []mach.OperandSpec
	if p.tok.Kind != TokIdent && p.tok.Kind != TokHash {
		return ops, nil
	}
	for {
		op, err := p.operand()
		if err != nil {
			return nil, err
		}
		ops = append(ops, op)
		if ok, err := p.accept(TokComma); err != nil {
			return nil, err
		} else if !ok {
			break
		}
	}
	return ops, nil
}

func (p *parser) operand() (mach.OperandSpec, error) {
	if ok, err := p.accept(TokHash); err != nil {
		return mach.OperandSpec{}, err
	} else if ok {
		name, err := p.expectIdent()
		if err != nil {
			return mach.OperandSpec{}, err
		}
		if name == "any" {
			return mach.OperandSpec{Kind: mach.OperandImm}, nil
		}
		if d := p.m.Def(name); d != nil {
			return mach.OperandSpec{Kind: mach.OperandImm, Def: d}, nil
		}
		if l := p.m.LabelDef(name); l != nil {
			return mach.OperandSpec{Kind: mach.OperandLabel, Lab: l}, nil
		}
		return mach.OperandSpec{}, p.errf("unknown %%def or %%label %q", name)
	}
	name, err := p.expectIdent()
	if err != nil {
		return mach.OperandSpec{}, err
	}
	rs := p.m.RegSet(name)
	if rs == nil {
		return mach.OperandSpec{}, p.errf("unknown register set %q", name)
	}
	if p.tok.Kind == TokLBrack {
		if err := p.advance(); err != nil {
			return mach.OperandSpec{}, err
		}
		idx, err := p.expectInt()
		if err != nil {
			return mach.OperandSpec{}, err
		}
		if _, err := p.expect(TokRBrack); err != nil {
			return mach.OperandSpec{}, err
		}
		return mach.OperandSpec{Kind: mach.OperandFixedReg, Set: rs, Index: int(idx)}, nil
	}
	return mach.OperandSpec{Kind: mach.OperandReg, Set: rs}, nil
}

// typeClock parses the optional "(type)" or "(type; clock)" constraint.
func (p *parser) typeClock(in *mach.Instr) error {
	if p.tok.Kind != TokLParen {
		return nil
	}
	if err := p.advance(); err != nil {
		return err
	}
	tn, err := p.expectIdent()
	if err != nil {
		return err
	}
	t, ok := typeNames[tn]
	if !ok {
		return p.errf("unknown type %q", tn)
	}
	in.TypeConstraint = t
	if ok, err := p.accept(TokSemi); err != nil {
		return err
	} else if ok {
		cn, err := p.expectIdent()
		if err != nil {
			return err
		}
		if in.AffectsClock = p.m.Clock(cn); in.AffectsClock < 0 {
			return p.errf("unknown clock %q", cn)
		}
	}
	_, err = p.expect(TokRParen)
	return err
}

// resVec parses "[cyc; cyc; ...]" where each cyc is a comma-separated
// resource list (possibly empty).
func (p *parser) resVec(in *mach.Instr) error {
	if _, err := p.expect(TokLBrack); err != nil {
		return err
	}
	if p.tok.Kind == TokRBrack {
		return wrap(p, p.advanceErr())
	}
	var cyc []mach.ResID
	flush := func() {
		in.Res = append(in.Res, cyc)
		cyc = nil
	}
	for {
		switch p.tok.Kind {
		case TokIdent:
			id, ok := p.m.Resource(p.tok.Text)
			if !ok {
				return p.errf("unknown resource %q", p.tok.Text)
			}
			cyc = append(cyc, id)
			if err := p.advance(); err != nil {
				return err
			}
		case TokComma:
			if err := p.advance(); err != nil {
				return err
			}
		case TokSemi:
			flush()
			if err := p.advance(); err != nil {
				return err
			}
		case TokRBrack:
			if len(cyc) > 0 || len(in.Res) == 0 {
				flush()
			}
			return p.advanceErr()
		default:
			return p.errf("unexpected %s in resource vector", p.tok)
		}
	}
}

func (p *parser) advanceErr() error { return p.advance() }

func (p *parser) costTriple(in *mach.Instr) error {
	if _, err := p.expect(TokLParen); err != nil {
		return err
	}
	c, err := p.expectInt()
	if err != nil {
		return err
	}
	if _, err := p.expect(TokComma); err != nil {
		return err
	}
	l, err := p.expectInt()
	if err != nil {
		return err
	}
	if _, err := p.expect(TokComma); err != nil {
		return err
	}
	s, err := p.expectInt()
	if err != nil {
		return err
	}
	if _, err := p.expect(TokRParen); err != nil {
		return err
	}
	in.Cost, in.Latency, in.Slots = int(c), int(l), int(s)
	return nil
}

// classList parses "<e1, e2, ...>" packing classes.
func (p *parser) classList(in *mach.Instr) error {
	if p.tok.Kind != TokLt {
		return nil
	}
	if err := p.advance(); err != nil {
		return err
	}
	for {
		name, err := p.expectIdent()
		if err != nil {
			return err
		}
		in.Class.Add(p.m.Element(name))
		if ok, err := p.accept(TokComma); err != nil {
			return err
		} else if !ok {
			break
		}
	}
	_, err := p.expect(TokGt)
	return err
}

// seqDecl parses:
//
//	%seq mnemonic operands (type)? {sem} = item; item; ... ;
//
// where item = name(args...) and args are $n, lo($n), hi($n) or literals.
func (p *parser) seqDecl() error {
	in := &mach.Instr{AffectsClock: -1}
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	in.Mnemonic = name
	if in.Operands, err = p.operandList(); err != nil {
		return err
	}
	if err := p.typeClock(in); err != nil {
		return err
	}
	if _, err := p.expect(TokLBrace); err != nil {
		return err
	}
	if in.Sem, err = p.stmt(in.Operands); err != nil {
		return err
	}
	if _, err := p.expect(TokRBrace); err != nil {
		return err
	}
	if _, err := p.expect(TokAssign); err != nil {
		return err
	}
	for p.tok.Kind == TokIdent {
		item := mach.SeqItem{InstrName: p.tok.Text}
		if err := p.advance(); err != nil {
			return err
		}
		if ok, err := p.accept(TokLParen); err != nil {
			return err
		} else if ok {
			if p.tok.Kind != TokRParen {
				for {
					arg, err := p.seqArg(len(in.Operands))
					if err != nil {
						return err
					}
					item.Args = append(item.Args, arg)
					if ok, err := p.accept(TokComma); err != nil {
						return err
					} else if !ok {
						break
					}
				}
			}
			if _, err := p.expect(TokRParen); err != nil {
				return err
			}
		}
		in.Seq = append(in.Seq, item)
		if _, err := p.expect(TokSemi); err != nil {
			return err
		}
	}
	if len(in.Seq) == 0 {
		return p.errf("%%seq %s has no expansion", name)
	}
	p.m.AddInstr(in)
	return nil
}

func (p *parser) seqArg(nops int) (mach.SeqArg, error) {
	switch p.tok.Kind {
	case TokDollar:
		if err := p.advance(); err != nil {
			return mach.SeqArg{}, err
		}
		n, err := p.expectInt()
		if err != nil {
			return mach.SeqArg{}, err
		}
		if n < 1 || int(n) > nops {
			return mach.SeqArg{}, p.errf("$%d out of range", n)
		}
		return mach.SeqArg{Kind: mach.SeqOperand, OpIdx: int(n) - 1}, nil
	case TokInt, TokMinus:
		v, err := p.expectInt()
		if err != nil {
			return mach.SeqArg{}, err
		}
		return mach.SeqArg{Kind: mach.SeqConst, IVal: v}, nil
	case TokIdent:
		fn := p.tok.Text
		if fn != "lo" && fn != "hi" {
			return mach.SeqArg{}, p.errf("unknown %%seq argument function %q", fn)
		}
		if err := p.advance(); err != nil {
			return mach.SeqArg{}, err
		}
		if _, err := p.expect(TokLParen); err != nil {
			return mach.SeqArg{}, err
		}
		if _, err := p.expect(TokDollar); err != nil {
			return mach.SeqArg{}, err
		}
		n, err := p.expectInt()
		if err != nil {
			return mach.SeqArg{}, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return mach.SeqArg{}, err
		}
		if n < 1 || int(n) > nops {
			return mach.SeqArg{}, p.errf("$%d out of range", n)
		}
		k := mach.SeqLoHalf
		if fn == "hi" {
			k = mach.SeqHiHalf
		}
		return mach.SeqArg{Kind: k, OpIdx: int(n) - 1}, nil
	}
	return mach.SeqArg{}, p.errf("bad %%seq argument %s", p.tok)
}

// auxDecl parses:
//
//	%aux first : second (1.$i == 2.$j) (latency)
//	%aux first : second (latency)
func (p *parser) auxDecl() error {
	a := &mach.AuxLat{}
	var err error
	if a.First, err = p.expectIdent(); err != nil {
		return err
	}
	if _, err := p.expect(TokColon); err != nil {
		return err
	}
	if a.Second, err = p.expectIdent(); err != nil {
		return err
	}
	if _, err := p.expect(TokLParen); err != nil {
		return err
	}
	first, err := p.expectInt()
	if err != nil {
		return err
	}
	if ok, err := p.accept(TokRParen); err != nil {
		return err
	} else if ok {
		// Unconditional form: (latency).
		a.Latency = int(first)
		a.FirstOp, a.SecondOp = 0, 0
		p.m.AuxLats = append(p.m.AuxLats, a)
		return nil
	}
	// Conditional form: 1.$i == 2.$j.
	if first != 1 {
		return p.errf("%%aux condition must start with 1.$n")
	}
	if _, err := p.expect(TokDot); err != nil {
		return err
	}
	if _, err := p.expect(TokDollar); err != nil {
		return err
	}
	i, err := p.expectInt()
	if err != nil {
		return err
	}
	if _, err := p.expect(TokEq); err != nil {
		return err
	}
	two, err := p.expectInt()
	if err != nil {
		return err
	}
	if two != 2 {
		return p.errf("%%aux condition must compare against 2.$n")
	}
	if _, err := p.expect(TokDot); err != nil {
		return err
	}
	if _, err := p.expect(TokDollar); err != nil {
		return err
	}
	j, err := p.expectInt()
	if err != nil {
		return err
	}
	if _, err := p.expect(TokRParen); err != nil {
		return err
	}
	if _, err := p.expect(TokLParen); err != nil {
		return err
	}
	lat, err := p.expectInt()
	if err != nil {
		return err
	}
	if _, err := p.expect(TokRParen); err != nil {
		return err
	}
	a.FirstOp, a.SecondOp, a.Latency = int(i), int(j), int(lat)
	p.m.AuxLats = append(p.m.AuxLats, a)
	return nil
}

// glueDecl parses:
//
//	%glue operands { lhs ==> rhs; }            (expression form)
//	%glue operands { if (c) goto $n ==> if (c') goto $n; }
//	... optionally followed by: if !fits($k, defname);
func (p *parser) glueDecl() error {
	g := &mach.GlueRule{}
	var err error
	if g.Operands, err = p.operandList(); err != nil {
		return err
	}
	if _, err := p.expect(TokLBrace); err != nil {
		return err
	}
	parseSide := func() (*mach.Sem, error) {
		if p.tok.Kind == TokIdent && p.tok.Text == "if" {
			return p.ifGoto(g.Operands, false)
		}
		return p.expr(g.Operands)
	}
	if g.LHS, err = parseSide(); err != nil {
		return err
	}
	if _, err := p.expect(TokArrow); err != nil {
		return err
	}
	if g.RHS, err = parseSide(); err != nil {
		return err
	}
	if _, err := p.expect(TokSemi); err != nil {
		return err
	}
	if _, err := p.expect(TokRBrace); err != nil {
		return err
	}
	if p.tok.Kind == TokIdent && p.tok.Text == "if" {
		if err := p.advance(); err != nil {
			return err
		}
		guard := &mach.GlueGuard{}
		if ok, err := p.accept(TokBang); err != nil {
			return err
		} else if ok {
			guard.Negate = true
		}
		fn, err := p.expectIdent()
		if err != nil {
			return err
		}
		if fn != "fits" {
			return p.errf("unknown guard function %q", fn)
		}
		if _, err := p.expect(TokLParen); err != nil {
			return err
		}
		if _, err := p.expect(TokDollar); err != nil {
			return err
		}
		n, err := p.expectInt()
		if err != nil {
			return err
		}
		if n < 1 || int(n) > len(g.Operands) {
			return p.errf("guard $%d out of range", n)
		}
		guard.OpIdx = int(n) - 1
		if _, err := p.expect(TokComma); err != nil {
			return err
		}
		dn, err := p.expectIdent()
		if err != nil {
			return err
		}
		if guard.Def = p.m.Def(dn); guard.Def == nil {
			return p.errf("unknown %%def %q", dn)
		}
		if _, err := p.expect(TokRParen); err != nil {
			return err
		}
		if _, err := p.expect(TokSemi); err != nil {
			return err
		}
		g.Guard = guard
	}
	p.m.Glues = append(p.m.Glues, g)
	return nil
}
