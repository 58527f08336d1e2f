package cc

import (
	"fmt"
	"math"
	"strings"

	"marion/internal/ir"
)

// TypeKind classifies a C type.
type TypeKind uint8

const (
	kVoid TypeKind = iota
	kChar
	kShort
	kInt
	kUnsigned
	kFloat
	kDouble
	KPtr
	KArray
	kFunc
)

// CType is a C type. Types are structural; compare with same.
type CType struct {
	Kind   TypeKind
	Elem   *CType   // Ptr, Array element / Func return
	Len    int      // Array length
	Params []*CType // Func
}

var (
	typeVoid     = &CType{Kind: kVoid}
	typeChar     = &CType{Kind: kChar}
	typeShort    = &CType{Kind: kShort}
	typeInt      = &CType{Kind: kInt}
	typeUnsigned = &CType{Kind: kUnsigned}
	typeFloat    = &CType{Kind: kFloat}
	typeDouble   = &CType{Kind: kDouble}
)

// ptrTo returns a pointer type.
func ptrTo(e *CType) *CType { return &CType{Kind: KPtr, Elem: e} }

// arrayOf returns an array type.
func arrayOf(e *CType, n int) *CType { return &CType{Kind: KArray, Elem: e, Len: n} }

// isArith reports whether t is an arithmetic type.
func (t *CType) isArith() bool { return t.Kind >= kChar && t.Kind <= kDouble }

// IsInteger reports whether t is an integer type.
func (t *CType) IsInteger() bool { return t.Kind >= kChar && t.Kind <= kUnsigned }

// IsFloat reports whether t is float or double.
func (t *CType) IsFloat() bool { return t.Kind == kFloat || t.Kind == kDouble }

// isScalar reports whether t is arithmetic or a pointer.
func (t *CType) isScalar() bool { return t.isArith() || t.Kind == KPtr }

// Size returns the size of the type in bytes.
func (t *CType) Size() int {
	switch t.Kind {
	case kVoid:
		return 0
	case kChar:
		return 1
	case kShort:
		return 2
	case kDouble:
		return 8
	case KArray:
		return t.Len * t.Elem.Size()
	default:
		return 4
	}
}

// BaseElem strips array layers, returning the ultimate element type.
func (t *CType) BaseElem() *CType {
	for t.Kind == KArray {
		t = t.Elem
	}
	return t
}

// same reports structural type equality.
func (t *CType) same(o *CType) bool {
	if t == o {
		return true
	}
	if t == nil || o == nil || t.Kind != o.Kind {
		return false
	}
	switch t.Kind {
	case KPtr:
		return t.Elem.same(o.Elem)
	case KArray:
		return t.Len == o.Len && t.Elem.same(o.Elem)
	case kFunc:
		if !t.Elem.same(o.Elem) || len(t.Params) != len(o.Params) {
			return false
		}
		for i := range t.Params {
			if !t.Params[i].same(o.Params[i]) {
				return false
			}
		}
		return true
	}
	return true
}

// IR returns the IL type corresponding to a scalar C type.
func (t *CType) IR() ir.Type {
	switch t.Kind {
	case kVoid:
		return ir.Void
	case kChar:
		return ir.I8
	case kShort:
		return ir.I16
	case kInt:
		return ir.I32
	case kUnsigned:
		return ir.U32
	case kFloat:
		return ir.F32
	case kDouble:
		return ir.F64
	case KPtr, KArray:
		return ir.Ptr
	}
	return ir.Void
}

func (t *CType) String() string {
	switch t.Kind {
	case kVoid:
		return "void"
	case kChar:
		return "char"
	case kShort:
		return "short"
	case kInt:
		return "int"
	case kUnsigned:
		return "unsigned"
	case kFloat:
		return "float"
	case kDouble:
		return "double"
	case KPtr:
		return t.Elem.String() + "*"
	case KArray:
		return fmt.Sprintf("%s[%d]", t.Elem, t.Len)
	case kFunc:
		var ps []string
		for _, p := range t.Params {
			ps = append(ps, p.String())
		}
		return fmt.Sprintf("%s(%s)", t.Elem, strings.Join(ps, ","))
	}
	return "?"
}

// ObjKind classifies a declared object.
type ObjKind uint8

const (
	ObjGlobal ObjKind = iota
	ObjLocal
	ObjParam
	objFunc
)

// Obj is a declared name: a variable or function.
type Obj struct {
	Name string
	Kind ObjKind
	Type *CType
	Line int32
	// InitI / InitF hold constant initializer data for globals.
	InitI []int64
	InitF []float64
	// Sym is filled by ilgen.
	Sym *ir.Sym
}

// ExprKind classifies an expression node.
type ExprKind uint8

const (
	EIntLit ExprKind = iota
	EFloatLit
	EIdent
	EUnary  // Op in {TMinus, TBang, TTilde, TStar(deref), TAmp(addr-of)}
	EBinary // arithmetic/logic/relational/&&/||
	EAssign // Op in {TAssign, TPlusEq, ...}
	ECond   // ?: with C condition, L true-arm, R false-arm
	ECall   // L = callee (EIdent), Args
	EIndex  // L[R]
	ECast   // (Type)L
	EPreIncDec
	EPostIncDec
)

// Expr is an expression AST node. Type is filled by the type checker,
// except an ECast's, which the parser sets to the cast's target. A unit
// is parsed into thousands of these, so the layout is kept tight
// (TestLayout pins it).
type Expr struct {
	Kind ExprKind
	Op   Tok
	Line int32
	L, R *Expr
	C    *Expr // ECond condition
	Args []*Expr

	Name string
	Obj  *Obj // resolved by sema for EIdent / ECall callee
	// IVal is an EIntLit's value and an EFloatLit's IEEE bits: read
	// those through Float.
	IVal int64

	Type *CType
}

// Float returns the value of an EFloatLit, whose bits IVal holds.
func (e *Expr) Float() float64 { return math.Float64frombits(uint64(e.IVal)) }

// floatBits is the IVal of a float literal of value v.
func floatBits(v float64) int64 { return int64(math.Float64bits(v)) }

// StmtKind classifies a statement node.
type StmtKind uint8

const (
	SExpr StmtKind = iota
	SIf
	SWhile
	SDoWhile
	SFor
	SReturn
	SBreak
	SContinue
	SBlock
	SDecl
	SEmpty
)

// Stmt is a statement AST node; TestLayout pins its size as Expr's.
type Stmt struct {
	Kind StmtKind
	// NoScope marks a synthetic block (a multi-declarator declaration)
	// that must not open a new scope.
	NoScope bool
	Line    int32
	E       *Expr // SExpr, SReturn value
	Init    *Stmt // SFor init (SExpr or SDecl)
	Cond    *Expr
	Post    *Expr
	Body    *Stmt
	Else    *Stmt
	List    []*Stmt // SBlock
	Decl    *Obj    // SDecl
	// DeclInit is the initializer of a local declaration.
	DeclInit *Expr
}

// FuncDecl is a function definition.
type FuncDecl struct {
	Obj    *Obj
	Params []*Obj
	Body   *Stmt
	// Locals is filled by sema: every local declared anywhere in the body.
	Locals []*Obj
	Line   int32
}

// File is a parsed translation unit.
type File struct {
	Name    string
	Globals []*Obj
	Funcs   []*FuncDecl
}
