package maril

import (
	"marion/internal/ir"
	"marion/internal/mach"
)

// stmt parses one instruction-semantics statement. ops are the enclosing
// directive's formal operands (for $n validation).
func (p *parser) stmt(ops []mach.OperandSpec) (*mach.Sem, error) {
	switch {
	case p.tok.Kind == tokRBrace:
		return &mach.Sem{Kind: mach.SemEmpty}, nil
	case p.tok.Kind == tokSemi:
		return &mach.Sem{Kind: mach.SemEmpty}, p.advance()
	case p.tok.Kind == tokIdent && p.tok.Text == "if":
		return p.ifGoto(ops, true)
	case p.tok.Kind == tokIdent && (p.tok.Text == "goto" || p.tok.Text == "call" || p.tok.Text == "callr"):
		kw := p.tok.Text
		if err := p.advance(); err != nil {
			return nil, err
		}
		n, err := p.dollarRef(ops)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSemi); err != nil {
			return nil, err
		}
		kind := mach.SemGoto
		switch kw {
		case "call":
			kind = mach.SemCall
		case "callr":
			kind = mach.SemCallReg
		}
		return &mach.Sem{Kind: kind, OpIdx: n}, nil
	case p.tok.Kind == tokIdent && (p.tok.Text == "ret" || p.tok.Text == "return"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSemi); err != nil {
			return nil, err
		}
		return &mach.Sem{Kind: mach.SemRet}, nil
	}

	lv, err := p.lvalue(ops)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokAssign); err != nil {
		return nil, err
	}
	rhs, err := p.expr(ops)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokSemi); err != nil {
		return nil, err
	}
	return &mach.Sem{Kind: mach.SemAssign, Kids: []*mach.Sem{lv, rhs}}, nil
}

// ifGoto parses "if (cond) goto $n", with an optional trailing semicolon.
func (p *parser) ifGoto(ops []mach.OperandSpec, consumeSemi bool) (*mach.Sem, error) {
	if _, err := p.expectIdentText("if"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	cond, err := p.expr(ops)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	if _, err := p.expectIdentText("goto"); err != nil {
		return nil, err
	}
	n, err := p.dollarRef(ops)
	if err != nil {
		return nil, err
	}
	if consumeSemi {
		if _, err := p.expect(tokSemi); err != nil {
			return nil, err
		}
	}
	return &mach.Sem{Kind: mach.SemIfGoto, OpIdx: n, Kids: []*mach.Sem{cond}}, nil
}

func (p *parser) expectIdentText(text string) (token, error) {
	if p.tok.Kind != tokIdent || p.tok.Text != text {
		return token{}, p.errf("expected %q, got %s", text, p.tok)
	}
	t := p.tok
	return t, p.advance()
}

// dollarRef parses $n and returns the 0-based operand index.
func (p *parser) dollarRef(ops []mach.OperandSpec) (int, error) {
	if _, err := p.expect(tokDollar); err != nil {
		return 0, err
	}
	n, err := p.expectInt()
	if err != nil {
		return 0, err
	}
	if n < 1 || int(n) > len(ops) {
		return 0, p.errf("operand $%d out of range (have %d operands)", n, len(ops))
	}
	return int(n) - 1, nil
}

func (p *parser) lvalue(ops []mach.OperandSpec) (*mach.Sem, error) {
	switch p.tok.Kind {
	case tokDollar:
		n, err := p.dollarRef(ops)
		if err != nil {
			return nil, err
		}
		return mach.NewSemOperand(n), nil
	case tokIdent:
		name := p.tok.Text
		if md := p.m.Memory(name); md != nil {
			if err := p.advance(); err != nil {
				return nil, err
			}
			if _, err := p.expect(tokLBrack); err != nil {
				return nil, err
			}
			addr, err := p.expr(ops)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokRBrack); err != nil {
				return nil, err
			}
			return &mach.Sem{Kind: mach.SemMem, Mem: md, Kids: []*mach.Sem{addr}}, nil
		}
		if rs := p.m.RegSet(name); rs != nil && rs.Temporal {
			return &mach.Sem{Kind: mach.SemTReg, TReg: rs}, p.advance()
		}
		return nil, p.errf("bad lvalue %q", name)
	}
	return nil, p.errf("bad lvalue %s", p.tok)
}

// Binary operator precedence, lowest first.
var binLevels = [][]struct {
	tok tokKind
	op  ir.Op
}{
	{{tokEq, ir.Eq}, {tokNe, ir.Ne}},
	{{tokLt, ir.Lt}, {tokLe, ir.Le}, {tokGt, ir.Gt}, {tokGe, ir.Ge}, {tokDColon, ir.Cmp}},
	{{tokPipe, ir.Or}},
	{{tokCaret, ir.Xor}},
	{{tokAmp, ir.And}},
	{{tokShl, ir.Shl}, {tokShr, ir.Shr}},
	{{tokPlus, ir.Add}, {tokMinus, ir.Sub}},
	{{tokStar, ir.Mul}, {tokSlash, ir.Div}, {tokPercent, ir.Rem}},
}

func (p *parser) expr(ops []mach.OperandSpec) (*mach.Sem, error) {
	return p.binExpr(ops, 0)
}

func (p *parser) binExpr(ops []mach.OperandSpec, level int) (*mach.Sem, error) {
	if level >= len(binLevels) {
		return p.unary(ops)
	}
	lhs, err := p.binExpr(ops, level+1)
	if err != nil {
		return nil, err
	}
	for {
		var op ir.Op
		found := false
		for _, e := range binLevels[level] {
			if p.tok.Kind == e.tok {
				op, found = e.op, true
				break
			}
		}
		if !found {
			return lhs, nil
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		rhs, err := p.binExpr(ops, level+1)
		if err != nil {
			return nil, err
		}
		lhs = mach.NewSemOp(op, lhs, rhs)
	}
}

func (p *parser) unary(ops []mach.OperandSpec) (*mach.Sem, error) {
	switch p.tok.Kind {
	case tokMinus:
		if err := p.advance(); err != nil {
			return nil, err
		}
		// Fold negation of literals.
		if p.tok.Kind == tokInt {
			v := p.tok.IVal
			if err := p.advance(); err != nil {
				return nil, err
			}
			return mach.NewSemConst(-v), nil
		}
		if p.tok.Kind == tokFloat {
			v := p.tok.FVal
			if err := p.advance(); err != nil {
				return nil, err
			}
			return &mach.Sem{Kind: mach.SemConst, FVal: -v, IsFloat: true}, nil
		}
		k, err := p.unary(ops)
		if err != nil {
			return nil, err
		}
		return mach.NewSemOp(ir.Neg, k), nil
	case tokTilde:
		if err := p.advance(); err != nil {
			return nil, err
		}
		k, err := p.unary(ops)
		if err != nil {
			return nil, err
		}
		return mach.NewSemOp(ir.Not, k), nil
	case tokLParen:
		// Possible cast: "(type) unary".
		t1, err := p.peek(1)
		if err != nil {
			return nil, err
		}
		t2, err := p.peek(2)
		if err != nil {
			return nil, err
		}
		if t1.Kind == tokIdent && t2.Kind == tokRParen {
			if ty, ok := typeNames[t1.Text]; ok {
				if err := p.advance(); err != nil { // (
					return nil, err
				}
				if err := p.advance(); err != nil { // type
					return nil, err
				}
				if err := p.advance(); err != nil { // )
					return nil, err
				}
				k, err := p.unary(ops)
				if err != nil {
					return nil, err
				}
				return &mach.Sem{Kind: mach.SemCvt, CvtTo: ty, Kids: []*mach.Sem{k}}, nil
			}
		}
	}
	return p.primary(ops)
}

func (p *parser) primary(ops []mach.OperandSpec) (*mach.Sem, error) {
	switch p.tok.Kind {
	case tokDollar:
		n, err := p.dollarRef(ops)
		if err != nil {
			return nil, err
		}
		return mach.NewSemOperand(n), nil

	case tokInt:
		v := p.tok.IVal
		return mach.NewSemConst(v), p.advance()

	case tokFloat:
		v := p.tok.FVal
		return &mach.Sem{Kind: mach.SemConst, FVal: v, IsFloat: true}, p.advance()

	case tokLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.expr(ops)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return e, nil

	case tokIdent:
		name := p.tok.Text
		switch name {
		case "high", "low":
			if err := p.advance(); err != nil {
				return nil, err
			}
			if _, err := p.expect(tokLParen); err != nil {
				return nil, err
			}
			k, err := p.expr(ops)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokRParen); err != nil {
				return nil, err
			}
			op := ir.High
			if name == "low" {
				op = ir.Low
			}
			return mach.NewSemOp(op, k), nil
		}
		if md := p.m.Memory(name); md != nil {
			if err := p.advance(); err != nil {
				return nil, err
			}
			if _, err := p.expect(tokLBrack); err != nil {
				return nil, err
			}
			addr, err := p.expr(ops)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokRBrack); err != nil {
				return nil, err
			}
			return &mach.Sem{Kind: mach.SemMem, Mem: md, Kids: []*mach.Sem{addr}}, nil
		}
		if rs := p.m.RegSet(name); rs != nil && rs.Temporal {
			return &mach.Sem{Kind: mach.SemTReg, TReg: rs}, p.advance()
		}
		return nil, p.errf("unknown name %q in expression", name)
	}
	return nil, p.errf("unexpected %s in expression", p.tok)
}
