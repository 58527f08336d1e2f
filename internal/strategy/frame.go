package strategy

import (
	"fmt"

	"marion/internal/asm"
	"marion/internal/ir"
	"marion/internal/mach"
	"marion/internal/sel"
)

// frame finalizes the stack frame and inserts prologue/epilogue code.
//
// Layout, growing downward from the frame pointer (fp = sp + FrameSize,
// the caller's stack pointer at the call):
//
//	fp + StackArgOffset + k   incoming stack arguments (caller's frame)
//	fp - LocalFrame .. fp     memory-resident locals
//	below locals              spill slots (8 bytes each)
//	below spills              save area: old fp, return address,
//	                          callee-save registers
//	sp + 0 .. Outgoing        outgoing argument area
func frame(m *mach.Machine, af *asm.Func) error {
	local := 0
	if af.IR != nil {
		local = af.IR.LocalFrame
	}
	saves := len(af.CalleeSaved)
	needRA := af.UsesCalls
	raSlots := 0
	if needRA {
		raSlots = 1
	}
	// Save area: old fp + optional ra + callee saves.
	saveArea := 8 * (1 + raSlots + saves)
	size := local + 8*af.SpillSlots + saveArea + af.Outgoing
	if size%8 != 0 {
		size += 8 - size%8
	}
	af.FrameSize = size

	fp := m.Cwvm.FP.Phys()
	sp := m.Cwvm.SP.Phys()
	ra := m.Cwvm.RetAddr.Phys()

	base := local + 8*af.SpillSlots
	fpOff := int64(-(base + 8))
	raOff := int64(-(base + 16))
	csOff := func(i int) int64 { return int64(-(base + 8*(2+raSlots-1) + 8*(i+1))) }

	regType := func(p mach.PhysID) ir.Type {
		if m.PhysRef(p).Set.Size == 8 {
			return ir.F64
		}
		return ir.I32
	}

	// Prologue, in front of block 0's code.
	var buf [8]*asm.Inst
	pro := buf[:0]
	dec, err := sel.BuildAddImm(m, af, sp, sp, -int64(size))
	if err != nil {
		return fmt.Errorf("%s: prologue: %w", af.Name, err)
	}
	pro = append(pro, dec)
	// Store the old fp sp-relative (fp is not set up yet).
	stfp, err := sel.BuildStore(m, af, asm.Phys(fp), sp, int64(size)+fpOff, ir.I32)
	if err != nil {
		return fmt.Errorf("%s: prologue: %w", af.Name, err)
	}
	pro = append(pro, stfp)
	setfp, err := sel.BuildAddImm(m, af, fp, sp, int64(size))
	if err != nil {
		return fmt.Errorf("%s: prologue: %w", af.Name, err)
	}
	pro = append(pro, setfp)
	if needRA {
		stra, err := sel.BuildStore(m, af, asm.Phys(ra), fp, raOff, ir.I32)
		if err != nil {
			return fmt.Errorf("%s: prologue: %w", af.Name, err)
		}
		pro = append(pro, stra)
	}
	for i, cs := range af.CalleeSaved {
		st, err := sel.BuildStore(m, af, asm.Phys(cs), fp, csOff(i), regType(cs))
		if err != nil {
			return fmt.Errorf("%s: prologue: %w", af.Name, err)
		}
		pro = append(pro, st)
	}
	for _, in := range pro {
		in.Cycle = -1
	}
	if len(af.Blocks) > 0 {
		af.Blocks[0].Insts = af.List(pro, af.Blocks[0].Insts)
	}

	// Epilogue, before every return instruction: a block with a return
	// gets a new list with the epilogue in front of it.
	for _, b := range af.Blocks {
		for at := 0; at < len(b.Insts); at++ {
			if !b.Insts[at].Tmpl.IsRet {
				continue
			}
			epi := buf[:0]
			for i, cs := range af.CalleeSaved {
				ld, err := sel.BuildLoad(m, af, asm.Phys(cs), fp, csOff(i), regType(cs))
				if err != nil {
					return fmt.Errorf("%s: epilogue: %w", af.Name, err)
				}
				epi = append(epi, ld)
			}
			if needRA {
				ldra, err := sel.BuildLoad(m, af, asm.Phys(ra), fp, raOff, ir.I32)
				if err != nil {
					return fmt.Errorf("%s: epilogue: %w", af.Name, err)
				}
				epi = append(epi, ldra)
			}
			inc, err := sel.BuildAddImm(m, af, sp, sp, int64(size))
			if err != nil {
				return fmt.Errorf("%s: epilogue: %w", af.Name, err)
			}
			epi = append(epi, inc)
			// Restore fp last, through itself.
			ldfp, err := sel.BuildLoad(m, af, asm.Phys(fp), fp, fpOff, ir.I32)
			if err != nil {
				return fmt.Errorf("%s: epilogue: %w", af.Name, err)
			}
			epi = append(epi, ldfp)
			for _, e := range epi {
				e.Cycle = -1
			}
			b.Insts = af.List(b.Insts[:at], epi, b.Insts[at:])
			at += len(epi)
		}
	}
	return nil
}
