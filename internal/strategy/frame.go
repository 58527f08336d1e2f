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

	// Prologue, in front of block 0's code: one list, exactly sized.
	var body []*asm.Inst
	if len(af.Blocks) > 0 {
		body = af.Blocks[0].Insts
	}
	pro := make([]*asm.Inst, 0, 3+raSlots+saves+len(body))
	dec, err := sel.BuildAddImm(m, sp, sp, -int64(size))
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
	setfp, err := sel.BuildAddImm(m, fp, sp, int64(size))
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
		af.Blocks[0].Insts = append(pro, body...)
	}

	// Epilogue, before every return instruction. A block with no return
	// keeps its list; one with returns gets one list, exactly sized.
	for _, b := range af.Blocks {
		rets := 0
		for _, in := range b.Insts {
			if in.Tmpl.IsRet {
				rets++
			}
		}
		if rets == 0 {
			continue
		}
		out := make([]*asm.Inst, 0, len(b.Insts)+rets*(saves+raSlots+2))
		for _, in := range b.Insts {
			if !in.Tmpl.IsRet {
				out = append(out, in)
				continue
			}
			epi := len(out)
			for i, cs := range af.CalleeSaved {
				ld, err := sel.BuildLoad(m, af, asm.Phys(cs), fp, csOff(i), regType(cs))
				if err != nil {
					return fmt.Errorf("%s: epilogue: %w", af.Name, err)
				}
				out = append(out, ld)
			}
			if needRA {
				ldra, err := sel.BuildLoad(m, af, asm.Phys(ra), fp, raOff, ir.I32)
				if err != nil {
					return fmt.Errorf("%s: epilogue: %w", af.Name, err)
				}
				out = append(out, ldra)
			}
			inc, err := sel.BuildAddImm(m, sp, sp, int64(size))
			if err != nil {
				return fmt.Errorf("%s: epilogue: %w", af.Name, err)
			}
			out = append(out, inc)
			// Restore fp last, through itself.
			ldfp, err := sel.BuildLoad(m, af, asm.Phys(fp), fp, fpOff, ir.I32)
			if err != nil {
				return fmt.Errorf("%s: epilogue: %w", af.Name, err)
			}
			out = append(out, ldfp)
			for _, e := range out[epi:] {
				e.Cycle = -1
			}
			out = append(out, in)
		}
		b.Insts = out
	}
	return nil
}
