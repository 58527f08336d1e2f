package asm

import (
	"fmt"
	"strings"
)

// The fmt-based printers this package shipped before Operand.Append and
// Inst.Append became its one formatter, kept verbatim as the oracles of
// differential_test.go.

func referenceOperandString(o Operand) string {
	switch o.Kind {
	case OpPseudo:
		return fmt.Sprintf("t%d", o.Pseudo)
	case OpPhys:
		return fmt.Sprintf("p%d", o.Phys)
	case OpPseudoHalf:
		if o.Half == 0 {
			return fmt.Sprintf("lo(t%d)", o.Pseudo)
		}
		return fmt.Sprintf("hi(t%d)", o.Pseudo)
	case OpImm:
		return fmt.Sprintf("%d", o.Imm)
	case OpBlock:
		return fmt.Sprintf("L%d", o.Block.ID)
	case OpSym:
		return o.Sym.Name
	}
	return "?"
}

func referenceInstString(in *Inst) string {
	var sb strings.Builder
	sb.WriteString(in.Tmpl.Mnemonic)
	for i, a := range in.Args {
		if i == 0 {
			sb.WriteByte(' ')
		} else {
			sb.WriteString(", ")
		}
		sb.WriteString(referenceOperandString(a))
	}
	return sb.String()
}

func referencePrint(p *Program) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "; target %s\n", p.Machine.Name)
	for _, g := range p.Globals {
		fmt.Fprintf(&sb, ".data %s size=%d addr=%d\n", g.Name, g.Size, g.Offset)
	}
	for _, f := range p.Funcs {
		fmt.Fprintf(&sb, "\n%s:  ; frame=%d\n", f.Name, f.FrameSize)
		for _, b := range f.Blocks {
			fmt.Fprintf(&sb, "%s:\n", fmt.Sprintf("L%d", b.IR.ID))
			lastCycle := int32(-2)
			for _, in := range b.Insts {
				pack := " "
				if in.Cycle >= 0 && in.Cycle == lastCycle {
					pack = "|" // packed with the previous instruction
				}
				lastCycle = in.Cycle
				fmt.Fprintf(&sb, "  %s %s\n", pack, referenceInstString(in))
			}
		}
	}
	return sb.String()
}

// Exported to package asm_test only.
var (
	ReferenceOperandString = referenceOperandString
	ReferenceInstString    = referenceInstString
	ReferencePrint         = referencePrint
)
