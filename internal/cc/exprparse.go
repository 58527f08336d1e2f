package cc

// expr parses a full expression. The comma operator is supported only in
// for-statement clauses, where it builds a right-nested EBinary tComma...
// in fact the subset omits the comma operator; expr == assignExpr.
func (p *parser) expr() (*Expr, error) { return p.assignExpr() }

func (p *parser) assignExpr() (*Expr, error) {
	lhs, err := p.condExpr()
	if err != nil {
		return nil, err
	}
	switch p.tok.Kind {
	case TAssign, TPlusEq, TMinusEq, TStarEq, TSlashEq, TPercentEq:
		op := p.tok.Kind
		line := p.tok.Line
		if err := p.advance(); err != nil {
			return nil, err
		}
		rhs, err := p.assignExpr()
		if err != nil {
			return nil, err
		}
		return p.slab.expr(Expr{Kind: EAssign, Op: op, L: lhs, R: rhs, Line: line}), nil
	}
	return lhs, nil
}

func (p *parser) condExpr() (*Expr, error) {
	c, err := p.binExpr(0)
	if err != nil {
		return nil, err
	}
	if p.tok.Kind != tQuest {
		return c, nil
	}
	line := p.tok.Line
	if err := p.advance(); err != nil {
		return nil, err
	}
	t, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tColon); err != nil {
		return nil, err
	}
	f, err := p.condExpr()
	if err != nil {
		return nil, err
	}
	return p.slab.expr(Expr{Kind: ECond, C: c, L: t, R: f, Line: line}), nil
}

// Binary operator precedence levels, lowest first.
var cBinLevels = [][]Tok{
	{TOrOr},
	{TAndAnd},
	{TPipe},
	{TCaret},
	{TAmp},
	{TEq, TNe},
	{TLt, TLe, TGt, TGe},
	{TShl, TShr},
	{TPlus, TMinus},
	{TStar, TSlash, TPercent},
}

func (p *parser) binExpr(level int) (*Expr, error) {
	if level >= len(cBinLevels) {
		return p.unaryExpr()
	}
	lhs, err := p.binExpr(level + 1)
	if err != nil {
		return nil, err
	}
	for {
		matched := false
		for _, op := range cBinLevels[level] {
			if p.tok.Kind == op {
				matched = true
				break
			}
		}
		if !matched {
			return lhs, nil
		}
		op := p.tok.Kind
		line := p.tok.Line
		if err := p.advance(); err != nil {
			return nil, err
		}
		rhs, err := p.binExpr(level + 1)
		if err != nil {
			return nil, err
		}
		lhs = p.slab.expr(Expr{Kind: EBinary, Op: op, L: lhs, R: rhs, Line: line})
	}
}

func (p *parser) unaryExpr() (*Expr, error) {
	line := p.tok.Line
	switch p.tok.Kind {
	case TMinus, TBang, TTilde, TStar, TAmp:
		op := p.tok.Kind
		if err := p.advance(); err != nil {
			return nil, err
		}
		k, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		// Fold unary minus into literals immediately.
		if op == TMinus {
			if k.Kind == EIntLit {
				k.IVal = -k.IVal
				return k, nil
			}
			if k.Kind == EFloatLit {
				k.IVal = floatBits(-k.Float())
				return k, nil
			}
		}
		if op == TPlus {
			return k, nil
		}
		return p.slab.expr(Expr{Kind: EUnary, Op: op, L: k, Line: line}), nil

	case TPlus:
		if err := p.advance(); err != nil {
			return nil, err
		}
		return p.unaryExpr()

	case tInc, TDec:
		op := p.tok.Kind
		if err := p.advance(); err != nil {
			return nil, err
		}
		k, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return p.slab.expr(Expr{Kind: EPreIncDec, Op: op, L: k, Line: line}), nil

	case tLParen:
		// Cast?
		if next, err := p.peek(1); err != nil {
			return nil, err
		} else if isTypeTok(next.Kind) {
			if err := p.advance(); err != nil {
				return nil, err
			}
			base, err := p.typeSpec()
			if err != nil {
				return nil, err
			}
			ty := base
			for p.tok.Kind == TStar {
				if err := p.advance(); err != nil {
					return nil, err
				}
				ty = ptrTo(ty)
			}
			if _, err := p.expect(tRParen); err != nil {
				return nil, err
			}
			k, err := p.unaryExpr()
			if err != nil {
				return nil, err
			}
			return p.slab.expr(Expr{Kind: ECast, Type: ty, L: k, Line: line}), nil
		}
	}
	return p.postfixExpr()
}

func (p *parser) postfixExpr() (*Expr, error) {
	e, err := p.primaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		line := p.tok.Line
		switch p.tok.Kind {
		case tLBrack:
			if err := p.advance(); err != nil {
				return nil, err
			}
			idx, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tRBrack); err != nil {
				return nil, err
			}
			e = p.slab.expr(Expr{Kind: EIndex, L: e, R: idx, Line: line})

		case tLParen:
			if err := p.advance(); err != nil {
				return nil, err
			}
			call := p.slab.expr(Expr{Kind: ECall, L: e, Line: line})
			base := len(p.args)
			for p.tok.Kind != tRParen {
				arg, err := p.assignExpr()
				if err != nil {
					return nil, err
				}
				p.args = append(p.args, arg)
				if ok, err := p.accept(tComma); err != nil {
					return nil, err
				} else if !ok {
					break
				}
			}
			call.Args = append([]*Expr(nil), p.args[base:]...)
			p.args = p.args[:base]
			if _, err := p.expect(tRParen); err != nil {
				return nil, err
			}
			e = call

		case tInc, TDec:
			op := p.tok.Kind
			if err := p.advance(); err != nil {
				return nil, err
			}
			e = p.slab.expr(Expr{Kind: EPostIncDec, Op: op, L: e, Line: line})

		default:
			return e, nil
		}
	}
}

func (p *parser) primaryExpr() (*Expr, error) {
	line := p.tok.Line
	switch p.tok.Kind {
	case tIntLit, tCharLit:
		v := p.tok.IVal
		return p.slab.expr(Expr{Kind: EIntLit, IVal: v, Line: line}), p.advance()
	case tFloatLit:
		v := floatBits(p.tok.FVal)
		return p.slab.expr(Expr{Kind: EFloatLit, IVal: v, Line: line}), p.advance()
	case tIdent:
		name := p.tok.Text
		return p.slab.expr(Expr{Kind: EIdent, Name: name, Line: line}), p.advance()
	case tLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		_, err = p.expect(tRParen)
		return e, err
	}
	return nil, p.errf("unexpected %s in expression", p.tok.Kind)
}
