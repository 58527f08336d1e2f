package mach

import (
	"fmt"

	"marion/internal/ir"
)

// SemKind classifies a node of an instruction-semantics tree.
type SemKind uint8

const (
	SemOp      SemKind = iota // operator node; Op over Kids
	SemOperand                // $n reference; OpIdx
	SemConst                  // integer or floating literal
	SemMem                    // memory cell; Kids[0] = address
	SemTReg                   // temporal register reference
	SemCvt                    // type conversion; Kids[0]
	SemAssign                 // Kids[0] = lvalue, Kids[1] = rvalue
	SemIfGoto                 // Kids[0] = condition; OpIdx = target operand
	SemGoto                   // OpIdx = target operand
	SemCall                   // OpIdx = target operand
	SemCallReg                // register-indirect call; OpIdx = reg operand
	SemRet                    // return through the retaddr register
	SemEmpty                  // no semantics (nop, pure pipeline advance)
)

// Sem is a node of the single-assignment C expression attached to an
// instruction directive. The same trees drive pattern matching (in sel)
// and execution (in sim).
type Sem struct {
	Kind SemKind
	Op   ir.Op
	Kids []*Sem

	OpIdx   int // 0-based operand index for SemOperand and targets
	IVal    int64
	FVal    float64
	IsFloat bool
	Mem     *MemDef
	TReg    *RegSet
	CvtTo   ir.Type
}

// NewSemOp returns an operator semantics node.
func NewSemOp(op ir.Op, kids ...*Sem) *Sem { return &Sem{Kind: SemOp, Op: op, Kids: kids} }

// NewSemOperand returns a $n operand reference (0-based index).
func NewSemOperand(idx int) *Sem { return &Sem{Kind: SemOperand, OpIdx: idx} }

// NewSemConst returns an integer literal node.
func NewSemConst(v int64) *Sem { return &Sem{Kind: SemConst, IVal: v} }

func (s *Sem) String() string {
	switch s.Kind {
	case SemOperand:
		return fmt.Sprintf("$%d", s.OpIdx+1)
	case SemConst:
		if s.IsFloat {
			return fmt.Sprintf("%g", s.FVal)
		}
		return fmt.Sprintf("%d", s.IVal)
	case SemMem:
		return fmt.Sprintf("%s[%s]", s.Mem.Name, s.Kids[0])
	case SemTReg:
		return s.TReg.Name
	case SemCvt:
		return fmt.Sprintf("(%s)%s", s.CvtTo, s.Kids[0])
	case SemAssign:
		return fmt.Sprintf("%s = %s;", s.Kids[0], s.Kids[1])
	case SemIfGoto:
		return fmt.Sprintf("if (%s) goto $%d;", s.Kids[0], s.OpIdx+1)
	case SemGoto:
		return fmt.Sprintf("goto $%d;", s.OpIdx+1)
	case SemCall:
		return fmt.Sprintf("call $%d;", s.OpIdx+1)
	case SemCallReg:
		return fmt.Sprintf("callr $%d;", s.OpIdx+1)
	case SemRet:
		return "ret;"
	case SemEmpty:
		return ";"
	case SemOp:
		switch len(s.Kids) {
		case 1:
			return fmt.Sprintf("%s(%s)", s.Op, s.Kids[0])
		case 2:
			return fmt.Sprintf("(%s %s %s)", s.Kids[0], s.Op, s.Kids[1])
		}
	}
	return "?"
}

// Clone returns a deep copy of the semantics tree.
func (s *Sem) Clone() *Sem {
	if s == nil {
		return nil
	}
	c := *s
	c.Kids = make([]*Sem, len(s.Kids))
	for i, k := range s.Kids {
		c.Kids[i] = k.Clone()
	}
	return &c
}

// walk calls fn for every node of the tree (preorder).
func (s *Sem) walk(fn func(*Sem)) {
	if s == nil {
		return
	}
	fn(s)
	for _, k := range s.Kids {
		k.walk(fn)
	}
}

// operandRefs returns the 0-based operand indices referenced in the tree,
// split into written (lvalue positions) and read.
func (s *Sem) operandRefs() (defs, uses []int) {
	addUnique := func(list []int, v int) []int {
		for _, x := range list {
			if x == v {
				return list
			}
		}
		return append(list, v)
	}
	var read func(n *Sem)
	read = func(n *Sem) {
		if n == nil {
			return
		}
		if n.Kind == SemOperand {
			uses = addUnique(uses, n.OpIdx)
		}
		for _, k := range n.Kids {
			read(k)
		}
	}
	switch s.Kind {
	case SemAssign:
		lv := s.Kids[0]
		switch lv.Kind {
		case SemOperand:
			defs = addUnique(defs, lv.OpIdx)
		case SemMem:
			read(lv.Kids[0])
		case SemTReg:
			// temporal register write; tracked separately
		}
		read(s.Kids[1])
	case SemIfGoto:
		read(s.Kids[0])
	case SemCallReg:
		uses = addUnique(uses, s.OpIdx)
	default:
		for _, k := range s.Kids {
			read(k)
		}
	}
	return defs, uses
}
