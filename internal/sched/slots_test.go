package sched

import (
	"testing"

	"marion/internal/asm"
	"marion/internal/ir"
)

func TestFillDelaySlots(t *testing.T) {
	m := loadDesc(t, pipeDesc)
	r := m.RegSet("r")
	add := m.InstrByLabel("add")
	beq := m.InstrByLabel("beq0")
	fn := ir.NewFunc("t", ir.Void)
	irb := fn.NewBlock()
	tgt := fn.NewBlock()
	af := &asm.Func{Name: "t", IR: fn}
	// add t0 = t1+t1 (independent of branch); add t2 = t3+t3 (branch
	// reads t2? no — branch reads t4). Branch on t4.
	b := &asm.Block{IR: irb, Insts: []*asm.Inst{
		asm.New(nil, add, asm.Reg(0), asm.Reg(1), asm.Reg(1)),
		asm.New(nil, add, asm.Reg(4), asm.Reg(3), asm.Reg(3)),
		asm.New(nil, beq, asm.Reg(4), asm.Operand{Kind: asm.OpBlock, Block: tgt}),
	}}
	af.Blocks = []*asm.Block{b}
	mkPseudos(af, r, 5)
	mustSchedule(t, m, af, b, Options{})
	// After scheduling: [add, add, beq, nop]; t0's add is independent of
	// the branch and safe to move into the slot.
	before := len(b.Insts)
	filled := FillDelaySlots(m, af)
	if filled != 1 {
		t.Fatalf("filled = %d, want 1; insts:", filled)
	}
	if len(b.Insts) != before-1 {
		t.Errorf("nop not removed: %d -> %d", before, len(b.Insts))
	}
	last := b.Insts[len(b.Insts)-1]
	if last.Tmpl.Mnemonic != "add" {
		t.Errorf("slot holds %v", last)
	}
	// The branch's operand producer must NOT be in the slot.
	if last.Args[0].Kind == asm.OpPseudo && last.Args[0].Pseudo == 4 {
		t.Error("moved the branch operand producer into the slot")
	}
	// Branch must be second-to-last now.
	if !b.Insts[len(b.Insts)-2].Tmpl.IsBranch {
		t.Error("branch displaced")
	}
}

func TestFillDelaySlotsRespectsDependences(t *testing.T) {
	m := loadDesc(t, pipeDesc)
	r := m.RegSet("r")
	add := m.InstrByLabel("add")
	beq := m.InstrByLabel("beq0")
	fn := ir.NewFunc("t", ir.Void)
	irb := fn.NewBlock()
	tgt := fn.NewBlock()
	af := &asm.Func{Name: "t", IR: fn}
	// Only instruction computes the branch condition: must NOT move.
	b := &asm.Block{IR: irb, Insts: []*asm.Inst{
		asm.New(nil, add, asm.Reg(0), asm.Reg(1), asm.Reg(1)),
		asm.New(nil, beq, asm.Reg(0), asm.Operand{Kind: asm.OpBlock, Block: tgt}),
	}}
	af.Blocks = []*asm.Block{b}
	mkPseudos(af, r, 2)
	mustSchedule(t, m, af, b, Options{})
	if filled := FillDelaySlots(m, af); filled != 0 {
		t.Errorf("filled the slot with the condition producer (filled=%d)", filled)
	}
}
