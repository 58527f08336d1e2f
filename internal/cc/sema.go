package cc

import "fmt"

// Check resolves names and types the file, inserting implicit conversions
// so that the lowering pass sees fully typed, explicitly converted trees.
func Check(f *File) error {
	s := &sema{file: f.Name, globals: map[string]*Obj{}, slab: &f.slab}
	for _, g := range f.Globals {
		if err := s.declare(g); err != nil {
			return err
		}
	}
	for _, fd := range f.Funcs {
		// A definition may follow its own prototype.
		if prev := s.lookup(fd.Obj.Name); prev != nil {
			if prev.Kind != ObjFunc || !prev.Type.Same(fd.Obj.Type) {
				return s.errf(fd.Line, "redeclaration of %q", fd.Obj.Name)
			}
			fd.Obj = prev
		} else {
			if err := s.declare(fd.Obj); err != nil {
				return err
			}
			f.Globals = append(f.Globals, fd.Obj)
		}
	}
	for _, fd := range f.Funcs {
		if err := s.checkFunc(fd); err != nil {
			return err
		}
	}
	return nil
}

type sema struct {
	file string
	// globals is the file scope. The scopes of a function body are one
	// stack, locals, innermost name last; marks[i] is the length locals
	// had when the i-th open scope began. A scope holds few names, so
	// scanning them beats hashing, and closing one allocates nothing.
	globals map[string]*Obj
	locals  []*Obj
	marks   []int
	fn      *FuncDecl
	loops   int
	// slab is the parser's: the casts sema inserts are carved from it.
	slab *slab
}

func (s *sema) errf(line int32, format string, args ...interface{}) error {
	return &Error{File: s.file, Line: int(line), Msg: fmt.Sprintf(format, args...)}
}

func (s *sema) push() { s.marks = append(s.marks, len(s.locals)) }

func (s *sema) pop() {
	top := len(s.marks) - 1
	s.locals, s.marks = s.locals[:s.marks[top]], s.marks[:top]
}

// declare adds o to the innermost open scope, the file scope when no
// function's is open.
func (s *sema) declare(o *Obj) error {
	if len(s.marks) == 0 {
		if _, ok := s.globals[o.Name]; ok {
			return s.errf(o.Line, "redeclaration of %q", o.Name)
		}
		s.globals[o.Name] = o
		return nil
	}
	for _, l := range s.locals[s.marks[len(s.marks)-1]:] {
		if l.Name == o.Name {
			return s.errf(o.Line, "redeclaration of %q", o.Name)
		}
	}
	s.locals = append(s.locals, o)
	return nil
}

func (s *sema) lookup(name string) *Obj {
	for i := len(s.locals) - 1; i >= 0; i-- {
		if o := s.locals[i]; o.Name == name {
			return o
		}
	}
	return s.globals[name]
}

func (s *sema) checkFunc(fd *FuncDecl) error {
	s.fn = fd
	s.push()
	defer s.pop()
	for _, p := range fd.Params {
		if err := s.declare(p); err != nil {
			return err
		}
	}
	return s.checkStmt(fd.Body)
}

func (s *sema) checkStmt(st *Stmt) error {
	switch st.Kind {
	case SBlock:
		if !st.NoScope {
			s.push()
			defer s.pop()
		}
		for _, k := range st.List {
			if err := s.checkStmt(k); err != nil {
				return err
			}
		}
	case SDecl:
		if st.Decl.Type.Kind == KVoid {
			return s.errf(st.Line, "void variable %q", st.Decl.Name)
		}
		if err := s.declare(st.Decl); err != nil {
			return err
		}
		s.fn.Locals = append(s.fn.Locals, st.Decl)
		if st.DeclInit != nil {
			if st.Decl.Type.Kind == KArray {
				return s.errf(st.Line, "local array initializers are not supported")
			}
			if err := s.checkExpr(st.DeclInit); err != nil {
				return err
			}
			st.DeclInit = s.convert(st.DeclInit, st.Decl.Type)
			if st.DeclInit == nil {
				return s.errf(st.Line, "cannot initialize %s with given expression", st.Decl.Type)
			}
		}
	case SExpr:
		return s.checkExpr(st.E)
	case SIf, SWhile, SDoWhile:
		if err := s.checkCond(st.Cond); err != nil {
			return err
		}
		if st.Kind != SIf {
			s.loops++
			defer func() { s.loops-- }()
		}
		if err := s.checkStmt(st.Body); err != nil {
			return err
		}
		if st.Else != nil {
			return s.checkStmt(st.Else)
		}
	case SFor:
		s.push()
		defer s.pop()
		if st.Init != nil {
			if err := s.checkStmt(st.Init); err != nil {
				return err
			}
		}
		if st.Cond != nil {
			if err := s.checkCond(st.Cond); err != nil {
				return err
			}
		}
		if st.Post != nil {
			if err := s.checkExpr(st.Post); err != nil {
				return err
			}
		}
		s.loops++
		defer func() { s.loops-- }()
		return s.checkStmt(st.Body)
	case SReturn:
		ret := s.fn.Obj.Type.Elem
		if st.E == nil {
			if ret.Kind != KVoid {
				return s.errf(st.Line, "return without value in %q", s.fn.Obj.Name)
			}
			return nil
		}
		if ret.Kind == KVoid {
			return s.errf(st.Line, "void function %q returns a value", s.fn.Obj.Name)
		}
		if err := s.checkExpr(st.E); err != nil {
			return err
		}
		if st.E = s.convert(st.E, ret); st.E == nil {
			return s.errf(st.Line, "bad return type")
		}
	case SBreak, SContinue:
		if s.loops == 0 {
			return s.errf(st.Line, "break/continue outside loop")
		}
	case SEmpty:
	}
	return nil
}

func (s *sema) checkCond(e *Expr) error {
	if err := s.checkExpr(e); err != nil {
		return err
	}
	if !e.Type.IsScalar() {
		return s.errf(e.Line, "condition is not scalar")
	}
	return nil
}

// promote applies the integer promotions.
func promote(t *CType) *CType {
	switch t.Kind {
	case KChar, KShort:
		return TypeInt
	}
	return t
}

// usual applies the usual arithmetic conversions.
func usual(a, b *CType) *CType {
	if a.Kind == KDouble || b.Kind == KDouble {
		return TypeDouble
	}
	if a.Kind == KFloat || b.Kind == KFloat {
		return TypeFloat
	}
	if a.Kind == KUnsigned || b.Kind == KUnsigned {
		return TypeUnsigned
	}
	return TypeInt
}

// decay converts array-typed expressions to pointers.
func decay(e *Expr) {
	if e.Type.Kind == KArray {
		e.Type = PtrTo(e.Type.Elem)
	}
}

// convert returns e converted to type ty, inserting a cast node if
// needed; nil if the conversion is not allowed.
func (s *sema) convert(e *Expr, ty *CType) *Expr {
	if e.Type.Same(ty) {
		return e
	}
	if e.Type.IsArith() && ty.IsArith() {
		return s.slab.expr(Expr{Kind: ECast, L: e, Type: ty, Line: e.Line})
	}
	if e.Type.Kind == KPtr && ty.Kind == KPtr {
		// Pointer conversions are free (same representation).
		return s.slab.expr(Expr{Kind: ECast, L: e, Type: ty, Line: e.Line})
	}
	if e.Kind == EIntLit && e.IVal == 0 && ty.Kind == KPtr {
		return s.slab.expr(Expr{Kind: ECast, L: e, Type: ty, Line: e.Line})
	}
	return nil
}

func isLvalue(e *Expr) bool {
	switch e.Kind {
	case EIdent:
		return e.Obj != nil && e.Obj.Kind != ObjFunc && e.Obj.Type.Kind != KArray
	case EIndex:
		return e.Type.Kind != KArray
	case EUnary:
		return e.Op == TStar
	}
	return false
}

// arith applies the usual arithmetic conversions to both operands of e
// and returns their common type.
func (s *sema) arith(e *Expr) *CType {
	ct := usual(promote(e.L.Type), promote(e.R.Type))
	e.L = s.convert(e.L, ct)
	e.R = s.convert(e.R, ct)
	return ct
}

func (s *sema) checkExpr(e *Expr) error {
	// Operands first, in C, L, R order. A call's L is the callee's name,
	// looked up below, and ?:'s C is a condition.
	if e.Kind == ECond {
		if err := s.checkCond(e.C); err != nil {
			return err
		}
	}
	if e.Kind != ECall {
		for _, k := range [...]*Expr{e.L, e.R} {
			if k == nil {
				continue
			}
			if err := s.checkExpr(k); err != nil {
				return err
			}
		}
	}
	switch e.Kind {
	case EIntLit:
		e.Type = TypeInt
	case EFloatLit:
		e.Type = TypeDouble

	case EIdent:
		o := s.lookup(e.Name)
		if o == nil {
			return s.errf(e.Line, "undeclared identifier %q", e.Name)
		}
		e.Obj = o
		e.Type = o.Type

	case EUnary:
		switch e.Op {
		case TMinus:
			if !e.L.Type.IsArith() {
				return s.errf(e.Line, "bad operand to unary -")
			}
			e.L = s.convert(e.L, promote(e.L.Type))
			e.Type = e.L.Type
		case TTilde:
			if !e.L.Type.IsInteger() {
				return s.errf(e.Line, "bad operand to ~")
			}
			e.L = s.convert(e.L, promote(e.L.Type))
			e.Type = e.L.Type
		case TBang:
			if !e.L.Type.IsScalar() && e.L.Type.Kind != KArray {
				return s.errf(e.Line, "bad operand to !")
			}
			decay(e.L)
			e.Type = TypeInt
		case TStar:
			decay(e.L)
			if e.L.Type.Kind != KPtr {
				return s.errf(e.Line, "dereference of non-pointer")
			}
			e.Type = e.L.Type.Elem
		case TAmp:
			if e.L.Kind == EIdent && e.L.Obj != nil && e.L.Obj.Type.Kind == KArray {
				// &array == array address.
				e.Type = PtrTo(e.L.Obj.Type.Elem)
				return nil
			}
			if !isLvalue(e.L) {
				return s.errf(e.Line, "address of non-lvalue")
			}
			e.Type = PtrTo(e.L.Type)
		}

	case EBinary:
		decay(e.L)
		decay(e.R)
		lt, rt := e.L.Type, e.R.Type
		switch e.Op {
		case TOrOr, TAndAnd:
			if !lt.IsScalar() || !rt.IsScalar() {
				return s.errf(e.Line, "bad operands to logical operator")
			}
			e.Type = TypeInt
		case TEq, TNe, TLt, TLe, TGt, TGe:
			if lt.Kind == KPtr && rt.Kind == KPtr {
				e.Type = TypeInt
				return nil
			}
			if lt.Kind == KPtr && e.R.Kind == EIntLit && e.R.IVal == 0 {
				e.R = s.convert(e.R, lt)
				e.Type = TypeInt
				return nil
			}
			if !lt.IsArith() || !rt.IsArith() {
				return s.errf(e.Line, "bad operands to comparison")
			}
			s.arith(e)
			e.Type = TypeInt
		case TPlus, TMinus:
			// Pointer arithmetic.
			if lt.Kind == KPtr && rt.IsInteger() {
				e.R = s.convert(e.R, TypeInt)
				e.Type = lt
				return nil
			}
			if e.Op == TPlus && lt.IsInteger() && rt.Kind == KPtr {
				e.L, e.R = e.R, s.convert(e.L, TypeInt)
				e.Type = e.L.Type
				return nil
			}
			if e.Op == TMinus && lt.Kind == KPtr && rt.Kind == KPtr {
				e.Type = TypeInt
				return nil
			}
			fallthrough
		case TStar, TSlash:
			if !lt.IsArith() || !rt.IsArith() {
				return s.errf(e.Line, "bad operands to %s", e.Op)
			}
			e.Type = s.arith(e)
		case TPercent, TPipe, TCaret, TAmp, TShl, TShr:
			if !lt.IsInteger() || !rt.IsInteger() {
				return s.errf(e.Line, "bad operands to %s", e.Op)
			}
			ct := usual(promote(lt), promote(rt))
			if e.Op == TShl || e.Op == TShr {
				ct = promote(lt)
			}
			e.L = s.convert(e.L, ct)
			e.R = s.convert(e.R, promote(rt))
			e.Type = ct
		}

	case EAssign:
		if !isLvalue(e.L) {
			return s.errf(e.Line, "assignment to non-lvalue")
		}
		decay(e.R)
		if e.Op != TAssign {
			// Compound assignment: type rules of the matching binary op.
			if e.L.Type.Kind == KPtr {
				if (e.Op != TPlusEq && e.Op != TMinusEq) || !e.R.Type.IsInteger() {
					return s.errf(e.Line, "bad compound assignment to pointer")
				}
				e.Type = e.L.Type
				return nil
			}
			if !e.L.Type.IsArith() || !e.R.Type.IsArith() {
				return s.errf(e.Line, "bad operands to compound assignment")
			}
		}
		if e.R = s.convert(e.R, e.L.Type); e.R == nil {
			return s.errf(e.Line, "incompatible assignment")
		}
		e.Type = e.L.Type

	case ECond:
		decay(e.L)
		decay(e.R)
		if e.L.Type.IsArith() && e.R.Type.IsArith() {
			e.Type = s.arith(e)
		} else if e.L.Type.Same(e.R.Type) {
			e.Type = e.L.Type
		} else {
			return s.errf(e.Line, "mismatched ?: arms")
		}

	case ECall:
		if e.L.Kind != EIdent {
			return s.errf(e.Line, "only direct calls are supported")
		}
		o := s.lookup(e.L.Name)
		if o == nil {
			return s.errf(e.Line, "call to undeclared function %q", e.L.Name)
		}
		if o.Type.Kind != KFunc {
			return s.errf(e.Line, "%q is not a function", e.L.Name)
		}
		e.L.Obj = o
		e.L.Type = o.Type
		if len(e.Args) != len(o.Type.Params) {
			return s.errf(e.Line, "%q expects %d arguments, got %d",
				e.L.Name, len(o.Type.Params), len(e.Args))
		}
		for i, a := range e.Args {
			if err := s.checkExpr(a); err != nil {
				return err
			}
			decay(a)
			if e.Args[i] = s.convert(a, o.Type.Params[i]); e.Args[i] == nil {
				return s.errf(e.Line, "argument %d of %q has wrong type", i+1, e.L.Name)
			}
		}
		e.Type = o.Type.Elem

	case EIndex:
		lt := e.L.Type
		if lt.Kind != KArray && lt.Kind != KPtr {
			return s.errf(e.Line, "indexing non-array")
		}
		if !e.R.Type.IsInteger() {
			return s.errf(e.Line, "array index is not an integer")
		}
		e.R = s.convert(e.R, TypeInt)
		e.Type = lt.Elem

	case ECast:
		decay(e.L)
		// The parser put the cast's target in Type.
		if !e.Type.IsScalar() && e.Type.Kind != KVoid {
			return s.errf(e.Line, "bad cast target %s", e.Type)
		}
		if !e.L.Type.IsScalar() {
			return s.errf(e.Line, "bad cast operand")
		}
		if e.L.Type.Kind == KPtr && e.Type.IsFloat() ||
			e.L.Type.IsFloat() && e.Type.Kind == KPtr {
			return s.errf(e.Line, "cannot cast between pointer and floating type")
		}

	case EPreIncDec, EPostIncDec:
		if !isLvalue(e.L) {
			return s.errf(e.Line, "++/-- of non-lvalue")
		}
		if !e.L.Type.IsScalar() {
			return s.errf(e.Line, "++/-- of non-scalar")
		}
		e.Type = e.L.Type
	}
	return nil
}
