package cc

import (
	"fmt"

	"marion/internal/ir"
)

// parse parses a translation unit into s. The returned File is not yet
// type-checked; Compile runs check on it.
func (s *Scratch) parse(file, src string) (*File, error) {
	f := &File{Name: file}
	s.lx = lexer{file: file, src: src, line: 1}
	p := &s.p
	p.lx, p.slab = &s.lx, &s.slab
	if err := p.advance(); err != nil {
		return nil, err
	}
	for p.tok.Kind != tEOF {
		if err := p.topLevel(f); err != nil {
			return nil, err
		}
	}
	return f, nil
}

type parser struct {
	lx  *lexer
	tok token
	la  []token

	// slab holds the unit's nodes and objects; stmts and args collect
	// the statements of a block and the arguments of a call until the
	// list is complete.
	slab  *slab
	stmts []*Stmt
	args  []*Expr
}

// stmtList returns the statements collected since base as a list of
// their own (nil when there are none) and pops them.
func (p *parser) stmtList(base int) []*Stmt {
	l := append([]*Stmt(nil), p.stmts[base:]...)
	p.stmts = p.stmts[:base]
	return l
}

func (p *parser) errf(format string, args ...interface{}) error {
	return &posError{File: p.lx.file, Line: int(p.tok.Line), Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) advance() error {
	if len(p.la) > 0 {
		p.tok = p.la[0]
		p.la = p.la[:copy(p.la, p.la[1:])]
		return nil
	}
	t, err := p.lx.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) peek(n int) (token, error) {
	for len(p.la) < n {
		t, err := p.lx.next()
		if err != nil {
			return token{}, err
		}
		p.la = append(p.la, t)
	}
	return p.la[n-1], nil
}

func (p *parser) expect(k Tok) (token, error) {
	if p.tok.Kind != k {
		return token{}, p.errf("expected %s, got %s", k, p.tok.Kind)
	}
	t := p.tok
	return t, p.advance()
}

func (p *parser) accept(k Tok) (bool, error) {
	if p.tok.Kind == k {
		return true, p.advance()
	}
	return false, nil
}

func isTypeTok(k Tok) bool {
	switch k {
	case tVoid, tChar, tShort, tInt, tLong, tUnsigned, tSigned, tFloat, tDouble:
		return true
	}
	return false
}

// typeSpec parses the declaration specifiers. Storage class and const
// qualifiers are accepted and ignored; the type specifiers are a set, in
// any order, as in C: signed and unsigned set only the sign, short int
// is short, long and long int are int, and long double is double.
func (p *parser) typeSpec() (*CType, error) {
	var set uint16 // the type specifiers seen, a bit per Tok
	var at token   // the first of them
	for p.tok.Kind == tStatic || p.tok.Kind == tConst || isTypeTok(p.tok.Kind) {
		if k := p.tok.Kind; isTypeTok(k) {
			if set == 0 {
				at = p.tok
			} else if set&(1<<k) != 0 && k != tLong {
				return nil, p.errf("bad type combination")
			}
			set |= 1 << k
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if set == 0 {
		return nil, p.errf("expected type, got %s", p.tok.Kind)
	}
	const sign = 1<<tSigned | 1<<tUnsigned
	base, unsigned := set&^sign, set&(1<<tUnsigned) != 0
	if base&(1<<tShort|1<<tLong) != 0 {
		base &^= 1 << tInt
	}
	errAt := func(msg string) error { return &posError{File: p.lx.file, Line: int(at.Line), Msg: msg} }
	switch {
	case set&sign == sign: // signed unsigned
	case base == 0, base == 1<<tInt, base == 1<<tLong:
		if unsigned {
			return typeUnsigned, nil
		}
		return typeInt, nil
	// The IL has no U8 or U16: an unsigned char or short would be read
	// back sign-extended, so both are refused.
	case base == 1<<tChar && unsigned:
		return nil, errAt("unsigned char is not supported: the IL has no unsigned 8-bit type")
	case base == 1<<tShort && unsigned:
		return nil, errAt("unsigned short is not supported: the IL has no unsigned 16-bit type")
	case base == 1<<tChar:
		return typeChar, nil
	case base == 1<<tShort:
		return typeShort, nil
	case set&sign != 0: // a sign on void, float or double
	case base == 1<<tVoid:
		return typeVoid, nil
	case base == 1<<tFloat:
		return typeFloat, nil
	case base == 1<<tDouble, base == 1<<tLong|1<<tDouble:
		return typeDouble, nil
	}
	return nil, errAt("bad type combination")
}

// declarator parses ('*')* name ('[' n ']')* and returns the name and
// completed type.
func (p *parser) declarator(base *CType) (string, *CType, error) {
	ty := base
	for p.tok.Kind == TStar {
		if err := p.advance(); err != nil {
			return "", nil, err
		}
		for p.tok.Kind == tConst {
			if err := p.advance(); err != nil {
				return "", nil, err
			}
		}
		ty = ptrTo(ty)
	}
	name, err := p.expect(tIdent)
	if err != nil {
		return "", nil, err
	}
	// Array dimensions apply outermost-first: int a[2][3] is array 2 of
	// array 3 of int. Collect then fold right-to-left.
	var dims []int
	for p.tok.Kind == tLBrack {
		if err := p.advance(); err != nil {
			return "", nil, err
		}
		n, err := p.constIntExpr()
		if err != nil {
			return "", nil, err
		}
		if n <= 0 {
			return "", nil, p.errf("bad array length %d", n)
		}
		dims = append(dims, int(n))
		if _, err := p.expect(tRBrack); err != nil {
			return "", nil, err
		}
	}
	size := ty.Size()
	for i := len(dims) - 1; i >= 0; i-- {
		if size > ir.MaxSize/dims[i] { // tested before multiplying: no overflow
			return "", nil, p.errf("%s is larger than %d bytes", name.Text, ir.MaxSize)
		}
		size *= dims[i]
		ty = arrayOf(ty, dims[i])
	}
	return name.Text, ty, nil
}

func (p *parser) topLevel(f *File) error {
	base, err := p.typeSpec()
	if err != nil {
		return err
	}
	name, ty, err := p.declarator(base)
	if err != nil {
		return err
	}
	if p.tok.Kind == tLParen {
		return p.funcRest(f, name, ty)
	}
	// Global variable declaration(s).
	for {
		obj := p.slab.obj(Obj{Name: name, Kind: ObjGlobal, Type: ty, Line: p.tok.Line})
		if ok, err := p.accept(TAssign); err != nil {
			return err
		} else if ok {
			if err := p.globalInit(obj); err != nil {
				return err
			}
		}
		f.Globals = append(f.Globals, obj)
		if ok, err := p.accept(tComma); err != nil {
			return err
		} else if !ok {
			break
		}
		if name, ty, err = p.declarator(base); err != nil {
			return err
		}
	}
	_, err = p.expect(tSemi)
	return err
}

// globalInit parses a constant initializer: a scalar constant expression
// or a (possibly nested) brace list, flattened in row-major order.
func (p *parser) globalInit(obj *Obj) error {
	isFloat := obj.Type.Kind == KArray && obj.Type.BaseElem().IsFloat() ||
		obj.Type.IsFloat()
	var walk func() error
	walk = func() error {
		if p.tok.Kind == tLBrace {
			if err := p.advance(); err != nil {
				return err
			}
			for p.tok.Kind != tRBrace {
				if err := walk(); err != nil {
					return err
				}
				if ok, err := p.accept(tComma); err != nil {
					return err
				} else if !ok {
					break
				}
			}
			_, err := p.expect(tRBrace)
			return err
		}
		e, err := p.condExpr()
		if err != nil {
			return err
		}
		iv, fv, isF, err := p.evalConst(e)
		if err != nil {
			return err
		}
		if isFloat {
			if !isF {
				fv = float64(iv)
			}
			obj.InitF = append(obj.InitF, fv)
		} else {
			if isF {
				iv = int64(fv)
			}
			obj.InitI = append(obj.InitI, iv)
		}
		return nil
	}
	return walk()
}

func (p *parser) funcRest(f *File, name string, ret *CType) error {
	fd := &FuncDecl{Line: p.tok.Line}
	if _, err := p.expect(tLParen); err != nil {
		return err
	}
	ft := &CType{Kind: kFunc, Elem: ret}
	if p.tok.Kind == tVoid {
		if next, err := p.peek(1); err != nil {
			return err
		} else if next.Kind == tRParen {
			if err := p.advance(); err != nil {
				return err
			}
		}
	}
	for p.tok.Kind != tRParen {
		base, err := p.typeSpec()
		if err != nil {
			return err
		}
		pname, pty, err := p.declarator(base)
		if err != nil {
			return err
		}
		if pty.Kind == KArray {
			pty = ptrTo(pty.Elem) // arrays decay in parameter position
		}
		obj := p.slab.obj(Obj{Name: pname, Kind: ObjParam, Type: pty, Line: p.tok.Line})
		fd.Params = append(fd.Params, obj)
		ft.Params = append(ft.Params, pty)
		if ok, err := p.accept(tComma); err != nil {
			return err
		} else if !ok {
			break
		}
	}
	if _, err := p.expect(tRParen); err != nil {
		return err
	}
	fd.Obj = p.slab.obj(Obj{Name: name, Kind: objFunc, Type: ft, Line: fd.Line})

	// Prototype only?
	if ok, err := p.accept(tSemi); err != nil {
		return err
	} else if ok {
		f.Globals = append(f.Globals, fd.Obj)
		return nil
	}
	body, err := p.block()
	if err != nil {
		return err
	}
	fd.Body = body
	f.Funcs = append(f.Funcs, fd)
	return nil
}

func (p *parser) block() (*Stmt, error) {
	line := p.tok.Line
	if _, err := p.expect(tLBrace); err != nil {
		return nil, err
	}
	s := p.slab.stmt(Stmt{Kind: SBlock, Line: line})
	base := len(p.stmts)
	for p.tok.Kind != tRBrace {
		st, err := p.stmt()
		if err != nil {
			return nil, err
		}
		p.stmts = append(p.stmts, st)
	}
	s.List = p.stmtList(base)
	return s, p.advance()
}

func (p *parser) stmt() (*Stmt, error) {
	line := p.tok.Line
	switch p.tok.Kind {
	case tLBrace:
		return p.block()

	case tSemi:
		return p.slab.stmt(Stmt{Kind: SEmpty, Line: line}), p.advance()

	case tIf:
		if err := p.advance(); err != nil {
			return nil, err
		}
		if _, err := p.expect(tLParen); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tRParen); err != nil {
			return nil, err
		}
		body, err := p.stmt()
		if err != nil {
			return nil, err
		}
		s := p.slab.stmt(Stmt{Kind: SIf, Cond: cond, Body: body, Line: line})
		if ok, err := p.accept(tElse); err != nil {
			return nil, err
		} else if ok {
			if s.Else, err = p.stmt(); err != nil {
				return nil, err
			}
		}
		return s, nil

	case tWhile:
		if err := p.advance(); err != nil {
			return nil, err
		}
		if _, err := p.expect(tLParen); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tRParen); err != nil {
			return nil, err
		}
		body, err := p.stmt()
		if err != nil {
			return nil, err
		}
		return p.slab.stmt(Stmt{Kind: SWhile, Cond: cond, Body: body, Line: line}), nil

	case tDo:
		if err := p.advance(); err != nil {
			return nil, err
		}
		body, err := p.stmt()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tWhile); err != nil {
			return nil, err
		}
		if _, err := p.expect(tLParen); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tRParen); err != nil {
			return nil, err
		}
		if _, err := p.expect(tSemi); err != nil {
			return nil, err
		}
		return p.slab.stmt(Stmt{Kind: SDoWhile, Cond: cond, Body: body, Line: line}), nil

	case tFor:
		if err := p.advance(); err != nil {
			return nil, err
		}
		if _, err := p.expect(tLParen); err != nil {
			return nil, err
		}
		s := p.slab.stmt(Stmt{Kind: SFor, Line: line})
		if p.tok.Kind != tSemi {
			if isTypeTok(p.tok.Kind) {
				init, err := p.declStmt()
				if err != nil {
					return nil, err
				}
				s.Init = init
			} else {
				e, err := p.expr()
				if err != nil {
					return nil, err
				}
				s.Init = p.slab.stmt(Stmt{Kind: SExpr, E: e, Line: line})
				if _, err := p.expect(tSemi); err != nil {
					return nil, err
				}
			}
		} else if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.Kind != tSemi {
			cond, err := p.expr()
			if err != nil {
				return nil, err
			}
			s.Cond = cond
		}
		if _, err := p.expect(tSemi); err != nil {
			return nil, err
		}
		if p.tok.Kind != tRParen {
			post, err := p.expr()
			if err != nil {
				return nil, err
			}
			s.Post = post
		}
		if _, err := p.expect(tRParen); err != nil {
			return nil, err
		}
		body, err := p.stmt()
		if err != nil {
			return nil, err
		}
		s.Body = body
		return s, nil

	case tReturn:
		if err := p.advance(); err != nil {
			return nil, err
		}
		s := p.slab.stmt(Stmt{Kind: SReturn, Line: line})
		if p.tok.Kind != tSemi {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			s.E = e
		}
		_, err := p.expect(tSemi)
		return s, err

	case tBreak:
		if err := p.advance(); err != nil {
			return nil, err
		}
		_, err := p.expect(tSemi)
		return p.slab.stmt(Stmt{Kind: SBreak, Line: line}), err

	case tContinue:
		if err := p.advance(); err != nil {
			return nil, err
		}
		_, err := p.expect(tSemi)
		return p.slab.stmt(Stmt{Kind: SContinue, Line: line}), err
	}

	if isTypeTok(p.tok.Kind) || p.tok.Kind == tStatic || p.tok.Kind == tConst {
		return p.declStmt()
	}

	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tSemi); err != nil {
		return nil, err
	}
	return p.slab.stmt(Stmt{Kind: SExpr, E: e, Line: line}), nil
}

// declStmt parses a local declaration; multiple declarators expand into a
// block of SDecl statements.
func (p *parser) declStmt() (*Stmt, error) {
	line := p.tok.Line
	base, err := p.typeSpec()
	if err != nil {
		return nil, err
	}
	first := len(p.stmts)
	for {
		name, ty, err := p.declarator(base)
		if err != nil {
			return nil, err
		}
		obj := p.slab.obj(Obj{Name: name, Kind: ObjLocal, Type: ty, Line: line})
		s := p.slab.stmt(Stmt{Kind: SDecl, Decl: obj, Line: line})
		if ok, err := p.accept(TAssign); err != nil {
			return nil, err
		} else if ok {
			if s.DeclInit, err = p.assignExpr(); err != nil {
				return nil, err
			}
		}
		p.stmts = append(p.stmts, s)
		if ok, err := p.accept(tComma); err != nil {
			return nil, err
		} else if !ok {
			break
		}
	}
	if _, err := p.expect(tSemi); err != nil {
		return nil, err
	}
	if len(p.stmts) == first+1 {
		s := p.stmts[first]
		p.stmts = p.stmts[:first]
		return s, nil
	}
	return p.slab.stmt(Stmt{Kind: SBlock, List: p.stmtList(first), NoScope: true, Line: line}), nil
}

// constIntExpr parses and folds a constant integer expression.
func (p *parser) constIntExpr() (int64, error) {
	e, err := p.condExpr()
	if err != nil {
		return 0, err
	}
	iv, _, isF, err := p.evalConst(e)
	if err != nil {
		return 0, err
	}
	if isF {
		return 0, p.errf("integer constant required")
	}
	return iv, nil
}

// evalConst folds a constant expression at parse time (for array bounds
// and global initializers).
func (p *parser) evalConst(e *Expr) (int64, float64, bool, error) {
	switch e.Kind {
	case EIntLit:
		return e.IVal, 0, false, nil
	case EFloatLit:
		return 0, e.Float(), true, nil
	case EUnary:
		iv, fv, isF, err := p.evalConst(e.L)
		if err != nil {
			return 0, 0, false, err
		}
		switch e.Op {
		case TMinus:
			return -iv, -fv, isF, nil
		case TTilde:
			return ^iv, 0, false, nil
		}
	case EBinary:
		li, lf, lF, err := p.evalConst(e.L)
		if err != nil {
			return 0, 0, false, err
		}
		ri, rf, rF, err := p.evalConst(e.R)
		if err != nil {
			return 0, 0, false, err
		}
		if lF || rF {
			if !lF {
				lf = float64(li)
			}
			if !rF {
				rf = float64(ri)
			}
			switch e.Op {
			case TPlus:
				return 0, lf + rf, true, nil
			case TMinus:
				return 0, lf - rf, true, nil
			case TStar:
				return 0, lf * rf, true, nil
			case TSlash:
				return 0, lf / rf, true, nil
			}
			return 0, 0, false, p.errf("bad constant float op")
		}
		switch e.Op {
		case TPlus:
			return li + ri, 0, false, nil
		case TMinus:
			return li - ri, 0, false, nil
		case TStar:
			return li * ri, 0, false, nil
		case TSlash:
			if ri == 0 {
				return 0, 0, false, p.errf("division by zero in constant")
			}
			return li / ri, 0, false, nil
		case TPercent:
			if ri == 0 {
				return 0, 0, false, p.errf("division by zero in constant")
			}
			return li % ri, 0, false, nil
		case TShl:
			return li << uint(ri), 0, false, nil
		case TShr:
			return li >> uint(ri), 0, false, nil
		case TPipe:
			return li | ri, 0, false, nil
		case TAmp:
			return li & ri, 0, false, nil
		case TCaret:
			return li ^ ri, 0, false, nil
		}
	case ECast:
		iv, fv, isF, err := p.evalConst(e.L)
		if err != nil {
			return 0, 0, false, err
		}
		if e.Type.IsFloat() {
			if !isF {
				fv = float64(iv)
			}
			return 0, fv, true, nil
		}
		if isF {
			iv = int64(fv)
		}
		return iv, 0, false, nil
	}
	return 0, 0, false, p.errf("constant expression required")
}
