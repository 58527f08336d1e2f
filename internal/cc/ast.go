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
	KVoid TypeKind = iota
	KChar
	KShort
	KInt
	KUnsigned
	KFloat
	KDouble
	KPtr
	KArray
	KFunc
)

// CType is a C type. Types are structural; compare with Same.
type CType struct {
	Kind   TypeKind
	Elem   *CType   // Ptr, Array element / Func return
	Len    int      // Array length
	Params []*CType // Func
}

var (
	TypeVoid     = &CType{Kind: KVoid}
	TypeChar     = &CType{Kind: KChar}
	TypeShort    = &CType{Kind: KShort}
	TypeInt      = &CType{Kind: KInt}
	TypeUnsigned = &CType{Kind: KUnsigned}
	TypeFloat    = &CType{Kind: KFloat}
	TypeDouble   = &CType{Kind: KDouble}
)

// PtrTo returns a pointer type.
func PtrTo(e *CType) *CType { return &CType{Kind: KPtr, Elem: e} }

// ArrayOf returns an array type.
func ArrayOf(e *CType, n int) *CType { return &CType{Kind: KArray, Elem: e, Len: n} }

// IsArith reports whether t is an arithmetic type.
func (t *CType) IsArith() bool { return t.Kind >= KChar && t.Kind <= KDouble }

// IsInteger reports whether t is an integer type.
func (t *CType) IsInteger() bool { return t.Kind >= KChar && t.Kind <= KUnsigned }

// IsFloat reports whether t is float or double.
func (t *CType) IsFloat() bool { return t.Kind == KFloat || t.Kind == KDouble }

// IsScalar reports whether t is arithmetic or a pointer.
func (t *CType) IsScalar() bool { return t.IsArith() || t.Kind == KPtr }

// Size returns the size of the type in bytes.
func (t *CType) Size() int {
	switch t.Kind {
	case KVoid:
		return 0
	case KChar:
		return 1
	case KShort:
		return 2
	case KDouble:
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

// Same reports structural type equality.
func (t *CType) Same(o *CType) bool {
	if t == o {
		return true
	}
	if t == nil || o == nil || t.Kind != o.Kind {
		return false
	}
	switch t.Kind {
	case KPtr:
		return t.Elem.Same(o.Elem)
	case KArray:
		return t.Len == o.Len && t.Elem.Same(o.Elem)
	case KFunc:
		if !t.Elem.Same(o.Elem) || len(t.Params) != len(o.Params) {
			return false
		}
		for i := range t.Params {
			if !t.Params[i].Same(o.Params[i]) {
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
	case KVoid:
		return ir.Void
	case KChar:
		return ir.I8
	case KShort:
		return ir.I16
	case KInt:
		return ir.I32
	case KUnsigned:
		return ir.U32
	case KFloat:
		return ir.F32
	case KDouble:
		return ir.F64
	case KPtr, KArray:
		return ir.Ptr
	}
	return ir.Void
}

func (t *CType) String() string {
	switch t.Kind {
	case KVoid:
		return "void"
	case KChar:
		return "char"
	case KShort:
		return "short"
	case KInt:
		return "int"
	case KUnsigned:
		return "unsigned"
	case KFloat:
		return "float"
	case KDouble:
		return "double"
	case KPtr:
		return t.Elem.String() + "*"
	case KArray:
		return fmt.Sprintf("%s[%d]", t.Elem, t.Len)
	case KFunc:
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
	ObjFunc
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

	slab slab // the unit's nodes, for the parser and then sema
}
