package sched

import (
	"strings"
	"testing"

	"marion/internal/asm"
	"marion/internal/ir"
	"marion/internal/verify"
)

// These regressions were surfaced by the emitted-code verifier
// (internal/verify): FillDelaySlots used to hoist instructions into
// taken-only (annulled) delay slots, into cycles where their resource
// vector collides with an earlier instruction's, and hoist
// clock-ticking instructions whose tick reorders the temporal
// pipeline. Each case asserts the pass now refuses the move and that
// the verifier agrees the result is clean.

func TestFillDelaySlotsSkipsAnnulledSlots(t *testing.T) {
	// pipeDesc with the branch's always-executed slot made taken-only:
	// an instruction hoisted from above the branch would be annulled on
	// fall-through, silently losing its computation.
	m := loadDesc(t, strings.Replace(pipeDesc, "(1,2,1)", "(1,2,-1)", 1))
	r := m.RegSet("r")
	add := m.InstrByLabel("add")
	beq := m.InstrByLabel("beq0")
	fn := ir.NewFunc("t", ir.Void)
	irb, tgt := &ir.Block{ID: 0, Fn: fn}, &ir.Block{ID: 1, Fn: fn}
	fn.Blocks = []*ir.Block{irb, tgt}
	af := &asm.Func{Name: "t", IR: fn}
	b := &asm.Block{IR: irb, Insts: []*asm.Inst{
		asm.New(nil, add, asm.Reg(0), asm.Reg(1), asm.Reg(1)),
		asm.New(nil, add, asm.Reg(4), asm.Reg(3), asm.Reg(3)),
		asm.New(nil, beq, asm.Reg(4), asm.Operand{Kind: asm.OpBlock, Block: tgt}),
	}}
	af.Blocks = []*asm.Block{b}
	mkPseudos(af, r, 5)
	mustSchedule(t, m, af, b, Options{})
	if filled := FillDelaySlots(m, af); filled != 0 {
		t.Fatalf("filled %d annulled slot(s); only nops are legal there", filled)
	}
	if rep := verify.Func(m, af, verify.Options{}); !rep.Empty() {
		t.Errorf("verifier findings:\n%s", rep)
	}
}

func TestFillDelaySlotsChecksResources(t *testing.T) {
	// div has a 1-cycle latency but keeps the divider busy for four more
	// cycles. The block below is a legal schedule (the second div waits
	// for the first to drain); hoisting the first div into the branch
	// slot at cycle 6 would overlap DIV cycles 7-10 with the second
	// div's 5-8.
	m := loadDesc(t, longVecDesc)
	r := m.RegSet("r")
	div := m.InstrByLabel("div")
	beq := m.InstrByLabel("beq0")
	fn := ir.NewFunc("t", ir.Void)
	irb, tgt := &ir.Block{ID: 0, Fn: fn}, &ir.Block{ID: 1, Fn: fn}
	fn.Blocks = []*ir.Block{irb, tgt}
	af := &asm.Func{Name: "t", IR: fn}
	i0 := asm.New(nil, div, asm.Reg(0), asm.Reg(1), asm.Reg(1))
	i1 := asm.New(nil, div, asm.Reg(2), asm.Reg(3), asm.Reg(3))
	i2 := asm.New(nil, beq, asm.Reg(2), asm.Operand{Kind: asm.OpBlock, Block: tgt})
	i3 := asm.New(nil, m.Nop)
	i0.Cycle, i1.Cycle, i2.Cycle, i3.Cycle = 0, 4, 5, 6
	b := &asm.Block{IR: irb, Insts: []*asm.Inst{i0, i1, i2, i3}}
	af.Blocks = []*asm.Block{b}
	mkPseudos(af, r, 4)
	// The starting point must itself verify clean.
	if rep := verify.Func(m, af, verify.Options{}); !rep.Empty() {
		t.Fatalf("pre-fill findings:\n%s", rep)
	}
	if filled := FillDelaySlots(m, af); filled != 0 {
		t.Fatalf("filled = %d; the hoisted div's resource vector collides", filled)
	}
	if rep := verify.Func(m, af, verify.Options{}); !rep.Empty() {
		t.Errorf("verifier findings:\n%s", rep)
	}
}

func TestFillDelaySlotsSkipsClockTickers(t *testing.T) {
	// mtrans carries no latch operands but ticks clk_m; moving it into
	// the slot would advance the temporal pipeline at a different word
	// than the schedule was built for.
	m := loadDesc(t, clockDesc)
	r := m.RegSet("r")
	f := m.RegSet("f")
	mtrans := m.InstrByLabel("mtrans")
	add := m.InstrByLabel("add")
	beq := m.InstrByLabel("beq0")
	fn := ir.NewFunc("t", ir.Void)
	irb, tgt := &ir.Block{ID: 0, Fn: fn}, &ir.Block{ID: 1, Fn: fn}
	fn.Blocks = []*ir.Block{irb, tgt}
	af := &asm.Func{Name: "t", IR: fn}
	b := &asm.Block{IR: irb, Insts: []*asm.Inst{
		asm.New(nil, mtrans, asm.Reg(0), asm.Reg(1)),
		asm.New(nil, add, asm.Reg(2), asm.Reg(3), asm.Reg(3)),
		asm.New(nil, beq, asm.Reg(2), asm.Operand{Kind: asm.OpBlock, Block: tgt}),
	}}
	af.Blocks = []*asm.Block{b}
	mkPseudos(af, f, 2)
	mkPseudos(af, r, 2)
	mustSchedule(t, m, af, b, Options{})
	if filled := FillDelaySlots(m, af); filled != 0 {
		t.Fatalf("filled = %d; a clock-ticking instruction is not slot-safe", filled)
	}
	if rep := verify.Func(m, af, verify.Options{}); !rep.Empty() {
		t.Errorf("verifier findings:\n%s", rep)
	}
}

const longVecDesc = `
declare {
    %reg r[0:7] (int, ptr);
    %reg f[0:7] (double);
    %resource IEX, DIV;
    %def imm [-32768:32767];
    %label lab [-1024:1023] +relative;
    %memory m[0:65535];
}
cwvm {
    %general (int, ptr) r; %general (double) f;
    %allocable r[1:5], f[1:5]; %calleesave r[4:5];
    %sp r[7]; %fp r[6]; %retaddr r[1]; %hard r[0] 0;
    %result r[2] (int);
}
instr {
    %instr div r, r, r {$1 = $2 / $3;} [IEX; DIV; DIV; DIV; DIV] (1,1,0)
    %instr add r, r, r {$1 = $2 + $3;} [IEX] (1,1,0)
    %instr beq0 r, #lab {if ($1 == 0) goto $2;} [IEX] (1,2,1)
    %instr nop {;} [IEX] (1,1,0)
}
`

const clockDesc = `
declare {
    %clock clk_m;
    %reg r[0:7] (int, ptr);
    %reg f[0:7] (double);
    %reg ml (double; clk_m) +temporal;
    %resource M1, IEX;
    %label lab [-1024:1023] +relative;
}
cwvm {
    %general (int, ptr) r; %general (double) f;
    %allocable r[1:5], f[0:5]; %calleesave r[4:5];
    %sp r[7]; %fp r[6]; %retaddr r[1]; %hard r[0] 0;
    %result r[2] (int);
}
instr {
    %instr mtrans f, f (double; clk_m) {$1 = $2;} [M1] (1,1,0)
    %instr add r, r, r {$1 = $2 + $3;} [IEX] (1,1,0)
    %instr beq0 r, #lab {if ($1 == 0) goto $2;} [IEX] (1,2,1)
    %instr nop {;} [IEX] (1,1,0)
}
`
