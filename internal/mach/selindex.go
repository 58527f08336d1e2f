package mach

import "marion/internal/ir"

// selIndex is the operator-indexed template table built by Finalize: for
// every IL operator it lists, in description order, exactly the value
// templates whose semantics root can possibly match a node with that
// operator. The selector's brute-force matcher (paper §2.1) tries
// templates in description order and commits to the first match; because
// a template lands in a bucket if and only if its root can match that
// operator, iterating one bucket visits the same templates, in the same
// relative order, as a linear scan of Machine.Instrs with the root
// filters applied — first-match semantics are preserved exactly, only
// the implausible templates are skipped (Hjort Blindell's survey,
// arXiv:1306.4898 §3, calls this the standard table-driven fix for
// O(instrs) per-node matching).
//
// The index is immutable after Finalize; a Machine (cached by
// targets.Load) is shared by concurrent per-function selectors, so all
// query methods are read-only.
type selIndex struct {
	// value[op] lists every value template ({$dst = rhs;} with a
	// register destination) whose rhs root can match IL operator op.
	value [ir.NumOps][]*Instr
	// valueReg[op] is the subset of value[op] with an OperandReg
	// destination (what canSelect iterates).
	valueReg [ir.NumOps][]*Instr
	// valueFixed[op] buckets the OperandFixedReg-destination subset by
	// destination register (what canSelectInto iterates).
	valueFixed [ir.NumOps]map[PhysID][]*Instr
	// stores lists store templates ({m[addr] = $val;} with an operand
	// rvalue), in description order.
	stores []*Instr
	// branches lists conditional-branch templates in description order.
	branches []*Instr
}

// rootOps returns the IL operators a value template's rvalue root can
// match, mirroring matchSem's root dispatch. A nil result means the
// template can never match a value node (identity moves, temporal
// register transfers, label rvalues) and is excluded from the index —
// the same templates the selector's loop guards skip.
func rootOps(in *Instr, rv *Sem) []ir.Op {
	switch rv.Kind {
	case SemOp:
		return []ir.Op{rv.Op}
	case SemCvt:
		return []ir.Op{ir.Cvt}
	case SemMem:
		return []ir.Op{ir.Load}
	case SemConst:
		return []ir.Op{ir.Const}
	case SemOperand:
		// Only immediate operands match at the root: register operands
		// are identity moves (emitted explicitly, never matched) and
		// labels bind at statement level only.
		if in.Operands[rv.OpIdx].Kind == OperandImm {
			return []ir.Op{ir.Const, ir.Addr}
		}
	}
	return nil
}

// buildSelIndex derives the selection index from the finalized
// instruction list.
func (m *Machine) buildSelIndex() {
	idx := &selIndex{}
	for _, in := range m.Instrs {
		if in.IsBranch {
			idx.branches = append(idx.branches, in)
		}
		if in.Sem == nil || in.Sem.Kind != SemAssign {
			continue
		}
		lv, rv := in.Sem.Kids[0], in.Sem.Kids[1]
		if lv.Kind == SemMem {
			// Store pattern; only operand rvalues are matchable
			// (selectStore skips the rest).
			if rv.Kind == SemOperand {
				idx.stores = append(idx.stores, in)
			}
			continue
		}
		if lv.Kind != SemOperand {
			continue // temporal-register writers are not value patterns
		}
		dk := in.Operands[lv.OpIdx].Kind
		if dk != OperandReg && dk != OperandFixedReg {
			continue
		}
		for _, op := range rootOps(in, rv) {
			idx.value[op] = append(idx.value[op], in)
			if dk == OperandReg {
				idx.valueReg[op] = append(idx.valueReg[op], in)
			} else {
				if idx.valueFixed[op] == nil {
					idx.valueFixed[op] = map[PhysID][]*Instr{}
				}
				p := in.Operands[lv.OpIdx].Phys()
				idx.valueFixed[op][p] = append(idx.valueFixed[op][p], in)
			}
		}
	}
	m.selIdx = idx
}

// ValueTmpls returns the value templates whose root can match IL
// operator op, in description order. Like every getter below it reads
// the index Finalize built.
func (m *Machine) ValueTmpls(op ir.Op) []*Instr { return m.selIdx.value[op] }

// ValueRegTmpls is ValueTmpls restricted to templates with a settable
// (OperandReg) destination — the candidates of canSelect.
func (m *Machine) ValueRegTmpls(op ir.Op) []*Instr { return m.selIdx.valueReg[op] }

// ValueFixedTmpls is ValueTmpls restricted to templates producing into
// the specific fixed register p — the candidates of canSelectInto.
func (m *Machine) ValueFixedTmpls(op ir.Op, p PhysID) []*Instr { return m.selIdx.valueFixed[op][p] }

// StoreTmpls returns the store templates in description order.
func (m *Machine) StoreTmpls() []*Instr { return m.selIdx.stores }

// BranchTmpls returns the conditional-branch templates in description
// order.
func (m *Machine) BranchTmpls() []*Instr { return m.selIdx.branches }
