package sel

import (
	"marion/internal/ir"
	"marion/internal/mach"
)

// Accepts reports whether the matcher accepts tmpl for node n when it
// scans templates: the guards it applies to every candidate —
// valuePattern with a register destination, storePattern for a Store,
// IsBranch for a Branch — and the structural match of the pattern,
// short of whether the bound subtrees are selectable. A template it
// accepts must sit in the bucket the selector takes n's candidates from.
func Accepts(m *mach.Machine, tmpl *mach.Instr, n *ir.Node) bool {
	s := &selector{m: m}
	binds := make([]binding, len(tmpl.Operands))
	switch n.Op {
	case ir.Store:
		return storePattern(tmpl, n) && s.matchSem(tmpl.Sem.Kids[0].Kids[0], n.Kids[0], tmpl, binds) &&
			s.matchSem(tmpl.Sem.Kids[1], n.Kids[1], tmpl, binds)
	case ir.Branch:
		return tmpl.IsBranch && s.matchSem(tmpl.Sem.Kids[0], n.Kids[0], tmpl, binds)
	}
	_, dst, ok := valuePattern(tmpl, n)
	return ok && (dst.Kind == mach.OperandReg || dst.Kind == mach.OperandFixedReg) &&
		s.matchSem(tmpl.Sem.Kids[1], n, tmpl, binds)
}
