package sched_test

import (
	"testing"

	"marion/internal/asm"
	"marion/internal/cc"
	"marion/internal/cdag"
	"marion/internal/ilgen"
	"marion/internal/ir"
	"marion/internal/maril"
	"marion/internal/sched"
	"marion/internal/sel"
	"marion/internal/targets"
	"marion/internal/xform"
)

// callDesc is a single-issue machine whose call has TWO delay slots, so
// any transfer the cost model misses is worth 2 cycles.
const callDesc = `
declare {
    %reg r[0:7] (int, ptr);
    %resource IEX;
    %def imm [-32768:32767];
    %label lab [-1024:1023] +relative;
    %memory m[0:65535];
}
cwvm {
    %general (int, ptr) r;
    %allocable r[1:5]; %calleesave r[4:5];
    %sp r[7]; %fp r[6]; %retaddr r[1]; %hard r[0] 0;
    %result r[2] (int);
}
instr {
    %instr add r, r, r {$1 = $2 + $3;} [IEX] (1,1,0)
    %instr jal #lab {call $1;} [IEX] (1,1,2)
    %instr ret {ret;} [IEX] (1,1,1)
    %instr nop {;} [IEX] (1,1,0)
}
`

// TestEstimateAppliesMidBlockCallSlots builds a block with a mid-block
// call (two delay slots) followed by more work and a trailing return:
// Run's cost must equal the SchedCost Apply computes after nop-filling
// EVERY transfer, not just the last-placed instruction.
func TestEstimateAppliesMidBlockCallSlots(t *testing.T) {
	m, err := maril.Parse("test", callDesc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	r := m.RegSet("r")
	add := m.InstrByLabel("add")
	jal := m.InstrByLabel("jal")
	ret := m.InstrByLabel("ret")

	fn := ir.NewFunc("t", ir.Void)
	irb := &ir.Block{Fn: fn}
	fn.Blocks = []*ir.Block{irb}
	af := &asm.Func{Name: "t", IR: fn}
	call := asm.New(nil, jal, asm.Operand{Kind: asm.OpSym, Sym: &ir.Sym{Name: "g", Kind: ir.SymFunc}})
	call.Imp = &asm.Implicit{Defs: m.CallerSave()}
	b := &asm.Block{IR: irb, Insts: []*asm.Inst{
		asm.New(nil, add, asm.Reg(0), asm.Phys(r.Phys(4)), asm.Phys(r.Phys(4))),
		call,
		asm.New(nil, add, asm.Reg(1), asm.Reg(0), asm.Reg(0)),
		asm.New(nil, ret),
	}}
	af.Blocks = []*asm.Block{b}
	for i := 0; i < 2; i++ {
		af.NewPseudo(r, ir.NoReg)
	}

	g := cdag.Build(m, b, cdag.Options{})
	res, err := sched.Run(m, af, b, g, sched.Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	est := res.Cost
	sched.Apply(m, af, b, res)
	if est != b.SchedCost {
		t.Errorf("Run cost %d != post-Apply SchedCost %d", est, b.SchedCost)
	}
	// The mid-block call's two slots and the return's one slot are all
	// nop-filled: 4 issue cycles + 3 nops.
	if b.SchedCost != 7 {
		t.Errorf("SchedCost = %d, want 7 (4 instructions + 2 call slots + 1 ret slot)", b.SchedCost)
	}
	nops := 0
	for _, in := range b.Insts {
		if in.Tmpl == m.Nop {
			nops++
		}
	}
	if nops != 3 {
		t.Errorf("%d nops inserted, want 3", nops)
	}
}

// TestEstimateApplyParityAllTargets selects a function with mid-block
// calls on every registered target and checks, block by block, that the
// scheduler's cost estimate equals the SchedCost Apply commits.
func TestEstimateApplyParityAllTargets(t *testing.T) {
	const src = `
int g(int x);
int f(int x) {
    return g(x) + g(x + 1) + x;
}
`
	for _, target := range targets.Names() {
		t.Run(target, func(t *testing.T) {
			m, err := targets.Load(target)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			file, err := cc.Compile("t.c", src)
			if err != nil {
				t.Fatalf("cc: %v", err)
			}
			mod, err := ilgen.Lower(file)
			if err != nil {
				t.Fatalf("ilgen: %v", err)
			}
			fn := mod.Lookup("f")
			if fn == nil {
				t.Fatal("function f missing")
			}
			xform.Apply(m, fn)
			af, err := sel.Select(m, fn)
			if err != nil {
				t.Fatalf("select: %v", err)
			}
			calls := 0
			for bi, b := range af.Blocks {
				for i, in := range b.Insts {
					if in.Tmpl.IsCall && i < len(b.Insts)-1 {
						calls++
					}
				}
				g := cdag.Build(m, b, cdag.Options{})
				res, err := sched.Run(m, af, b, g, sched.Options{})
				if err != nil {
					t.Fatalf("block %d: run: %v", bi, err)
				}
				est := res.Cost
				sched.Apply(m, af, b, res)
				if est != b.SchedCost {
					t.Errorf("block %d: Run cost %d != post-Apply SchedCost %d", bi, est, b.SchedCost)
				}
			}
			if calls == 0 {
				t.Error("test program produced no mid-block calls")
			}
		})
	}
}
