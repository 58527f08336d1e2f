package sel

import (
	"testing"

	"marion/internal/ir"
	"marion/internal/maril"
)

// hardDesc declares a hard-wired register holding 42 in set `a`, which
// is NOT the general int set `b`: the first template (addb) needs both
// operands in b, so a constant 42 operand can only be satisfied by the
// second template (magic) with the constant folded into the semantics.
// There is deliberately no load-immediate template, so a feasibility
// check that approves addb via the wrong-set hard register commits to a
// pattern whose emission must then fail.
const hardDesc = `
declare {
    %reg a[0:3] (int);
    %reg b[0:7] (int, ptr);
    %resource IEX;
    %def imm [-32768:32767];
    %label lab [-1024:1023] +relative;
    %memory m[0:65535];
}
cwvm {
    %general (int, ptr) b;
    %allocable b[2:5]; %calleesave b[4:5];
    %sp b[7]; %fp b[6]; %retaddr b[1];
    %hard a[0] 42;
    %result b[2] (int);
}
instr {
    %instr addb b, b, b {$1 = $2 + $3;} [IEX] (1,1,0)
    %instr magic b, b {$1 = $2 + 42;} [IEX] (1,1,0)
    %instr ret {ret;} [IEX] (1,1,0)
    %instr nop {;} [IEX] (1,1,0)
}
`

// TestHardRegWrongSetNotSelectable regression-tests the set-aware
// feasibility check: canSelect must not claim `const 42` is selectable
// into set b just because a[0] hard-wires 42 — matchSem/hardPhys only
// accept a hard register whose set matches the operand spec, so the
// addb template cannot actually be emitted and selection must fall
// through to the magic template.
func TestHardRegWrongSetNotSelectable(t *testing.T) {
	m, err := maril.Parse("test", hardDesc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	var slab ir.Slab
	fn := oneBlock(t, &slab, func(cfg *ir.CFG) *ir.Node {
		x := cfg.NewReg(ir.I32, "x")
		dst := cfg.NewReg(ir.I32, "y")
		add := slab.New(ir.Add, ir.I32, slab.Reg(ir.I32, x), slab.Const(ir.I32, 42))
		return &ir.Node{Op: ir.Asgn, Type: ir.I32, Reg: dst, Kids: []*ir.Node{add}}
	})

	af, err := Select(m, fn)
	if err != nil {
		t.Fatalf("select: %v", err)
	}
	var mnems []string
	for _, blk := range af.Blocks {
		for _, in := range blk.Insts {
			mnems = append(mnems, in.Tmpl.Mnemonic)
		}
	}
	found := false
	for _, mn := range mnems {
		if mn == "addb" {
			t.Errorf("addb selected, but its const operand cannot be emitted (hard 42 is in set a, operand wants set b); insts: %v", mnems)
		}
		if mn == "magic" {
			found = true
		}
	}
	if !found {
		t.Errorf("magic template not selected; insts: %v", mnems)
	}
}

// TestHardRegRightSetStillUsed checks the positive direction: a hard
// register whose set DOES match the operand spec still satisfies the
// constant without any extra instruction.
func TestHardRegRightSetStillUsed(t *testing.T) {
	// Same machine shape but the hard zero lives in the general set, as
	// on real targets ($0 on MIPS): addb can bind it directly.
	const desc = `
declare {
    %reg b[0:7] (int, ptr);
    %resource IEX;
    %def imm [-32768:32767];
    %label lab [-1024:1023] +relative;
    %memory m[0:65535];
}
cwvm {
    %general (int, ptr) b;
    %allocable b[2:5]; %calleesave b[4:5];
    %sp b[7]; %fp b[6]; %retaddr b[1];
    %hard b[0] 0;
    %result b[2] (int);
}
instr {
    %instr addb b, b, b {$1 = $2 + $3;} [IEX] (1,1,0)
    %instr ret {ret;} [IEX] (1,1,0)
    %instr nop {;} [IEX] (1,1,0)
}
`
	m, err := maril.Parse("test", desc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	var slab ir.Slab
	fn := oneBlock(t, &slab, func(cfg *ir.CFG) *ir.Node {
		x := cfg.NewReg(ir.I32, "x")
		dst := cfg.NewReg(ir.I32, "y")
		add := slab.New(ir.Add, ir.I32, slab.Reg(ir.I32, x), slab.Const(ir.I32, 0))
		return &ir.Node{Op: ir.Asgn, Type: ir.I32, Reg: dst, Kids: []*ir.Node{add}}
	})

	af, err := Select(m, fn)
	if err != nil {
		t.Fatalf("select: %v", err)
	}
	if len(af.Blocks) != 1 || len(af.Blocks[0].Insts) != 2 || af.Blocks[0].Insts[0].Tmpl.Mnemonic != "addb" {
		t.Errorf("expected a single addb binding the hard zero, then the return, got %v", af.Blocks[0].Insts)
	}
}

// oneBlock builds a function of one block: the statement stmt makes in
// the function's CFG, then a return.
func oneBlock(t *testing.T, slab *ir.Slab, stmt func(*ir.CFG) *ir.Node) *ir.Func {
	t.Helper()
	fn := ir.NewFunc("t", ir.I32)
	var cfg ir.CFG
	cfg.Begin(fn)
	cfg.Start(cfg.NewBlock(), 0)
	cfg.Append(stmt(&cfg), slab.New(ir.Ret, ir.Void))
	if err := cfg.Finish(slab, false); err != nil {
		t.Fatal(err)
	}
	return fn
}
