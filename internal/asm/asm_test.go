package asm

import (
	"reflect"
	"strings"
	"testing"

	"marion/internal/ir"
	"marion/internal/mach"
	"marion/internal/maril"
	"marion/internal/targets"
)

const tinyDesc = `
declare {
    %reg r[0:3] (int, ptr);
    %resource EX;
    %def imm [-100:100];
    %label lab [-10:10] +relative;
    %memory m[0:1000];
}
cwvm {
    %general (int, ptr) r;
    %allocable r[1:2]; %calleesave r[2:2];
    %sp r[3]; %fp r[3]; %retaddr r[0];
}
instr {
    %instr add r, r, r {$1 = $2 + $3;} [EX] (1,1,0)
    %instr ld r, r, #imm {$1 = m[$2 + $3];} [EX] (1,2,0)
}
`

func TestOperandForms(t *testing.T) {
	if Reg(3).String() != "t3" {
		t.Error("pseudo string")
	}
	if Imm(-7).String() != "-7" {
		t.Error("imm string")
	}
	h := Operand{Kind: OpPseudoHalf, Pseudo: 2, Half: 1}
	if h.String() != "hi(t2)" {
		t.Error("half string")
	}
	if !Reg(0).IsReg() || Imm(0).IsReg() {
		t.Error("IsReg")
	}
	if Reg(1) == Reg(2) || Reg(1) != Reg(1) {
		t.Error("operand comparability")
	}
}

// effect is one step of a register walk, for comparison.
type effect struct {
	Key        RegKey
	Op         int
	Half, Hard bool
}

func collect(e Effects) []effect {
	var out []effect
	for e.Next() {
		out = append(out, effect{e.Key, e.Op, e.Half, e.Hard})
	}
	return out
}

func TestInstDefsUses(t *testing.T) {
	m, err := maril.Parse("tiny", tinyDesc)
	if err != nil {
		t.Fatal(err)
	}
	add := m.InstrByLabel("add")
	in := New(nil, add, Reg(0), Reg(1), Reg(2))
	defs := collect(in.RegDefs(m))
	uses := collect(in.RegUses(m))
	if want := []effect{{Key: PseudoKey(m, 0), Op: 0}}; !reflect.DeepEqual(defs, want) {
		t.Errorf("defs = %v, want %v", defs, want)
	}
	if want := []effect{{Key: PseudoKey(m, 1), Op: 1}, {Key: PseudoKey(m, 2), Op: 2}}; !reflect.DeepEqual(uses, want) {
		t.Errorf("uses = %v, want %v", uses, want)
	}
	if got := in.String(); got != "add t0, t1, t2" {
		t.Errorf("string = %q", got)
	}
	// Immediates are not registers: ld's third operand is skipped.
	ld := New(nil, m.InstrByLabel("ld"), Reg(0), Phys(3), Imm(8))
	if got, want := collect(ld.RegUses(m)), []effect{{Key: physKey(3), Op: 1}}; !reflect.DeepEqual(got, want) {
		t.Errorf("ld uses = %v, want %v", got, want)
	}
}

// TestRegKeyDense pins the key layout the dense tables will rely on:
// physical ids first, pseudos stacked on top of them.
func TestRegKeyDense(t *testing.T) {
	m, err := targets.Load("m88000")
	if err != nil {
		t.Fatal(err)
	}
	if k := physKey(5); k != 5 || k.IsPseudo(m) || k.Phys() != 5 {
		t.Errorf("phys key %d", k)
	}
	k := PseudoKey(m, 7)
	if int(k) != m.NumPhys+7 || !k.IsPseudo(m) || k.Pseudo(m) != 7 {
		t.Errorf("pseudo key %d (NumPhys %d)", k, m.NumPhys)
	}
}

// TestEffectsHalfOperand: a half operand yields its wide pseudo's key
// with Half set, on either side.
func TestEffectsHalfOperand(t *testing.T) {
	m, err := maril.Parse("tiny", tinyDesc)
	if err != nil {
		t.Fatal(err)
	}
	lo := Operand{Kind: OpPseudoHalf, Pseudo: 4, Half: 0}
	hi := Operand{Kind: OpPseudoHalf, Pseudo: 5, Half: 1}
	in := New(nil, m.InstrByLabel("add"), lo, hi, Reg(6))
	if got, want := collect(in.RegDefs(m)), []effect{{Key: PseudoKey(m, 4), Op: 0, Half: true}}; !reflect.DeepEqual(got, want) {
		t.Errorf("defs = %v, want %v", got, want)
	}
	want := []effect{{Key: PseudoKey(m, 5), Op: 1, Half: true}, {Key: PseudoKey(m, 6), Op: 2}}
	if got := collect(in.RegUses(m)); !reflect.DeepEqual(got, want) {
		t.Errorf("uses = %v, want %v", got, want)
	}
}

// TestEffectsEquivPair: on the m88000 a double d[i] overlays the pair
// r[2i], r[2i+1] (%equiv), so a double operand yields itself and then
// both halves of the pair, and a general register yields itself and the
// double that covers it.
func TestEffectsEquivPair(t *testing.T) {
	m, err := targets.Load("m88000")
	if err != nil {
		t.Fatal(err)
	}
	r, d := m.RegSet("r"), m.RegSet("d")
	fadd := New(nil, m.InstrByLabel("fadd.d"), Phys(d.Phys(2)), Phys(d.Phys(3)), Phys(d.Phys(3)))
	want := []effect{
		{Key: physKey(d.Phys(2)), Op: 0},
		{Key: physKey(r.Phys(4)), Op: 0},
		{Key: physKey(r.Phys(5)), Op: 0},
	}
	if got := collect(fadd.RegDefs(m)); !reflect.DeepEqual(got, want) {
		t.Errorf("fadd.d defs = %v, want %v", got, want)
	}
	if got := collect(fadd.RegUses(m)); len(got) != 6 || got[0].Key != physKey(d.Phys(3)) || got[3].Op != 2 {
		t.Errorf("fadd.d uses = %v", got)
	}
	add := New(nil, m.InstrByLabel("add"), Phys(r.Phys(7)), Phys(r.Phys(8)), Phys(r.Phys(9)))
	want = []effect{{Key: physKey(r.Phys(7)), Op: 0}, {Key: physKey(d.Phys(3)), Op: 0}}
	if got := collect(add.RegDefs(m)); !reflect.DeepEqual(got, want) {
		t.Errorf("add defs = %v, want %v", got, want)
	}
}

// TestEffectsImplicitAndHard: a call's implicit effects follow its
// template operands with Op = -1 (aliases expanded like any other), and
// a read of a hard-wired register is flagged.
func TestEffectsImplicitAndHard(t *testing.T) {
	m, err := targets.Load("m88000")
	if err != nil {
		t.Fatal(err)
	}
	r, d := m.RegSet("r"), m.RegSet("d")
	call := New(nil, m.InstrByLabel("bsr"), Operand{Kind: OpSym, Sym: &ir.Sym{Name: "g"}})
	call.Imp = &Implicit{Uses: []mach.PhysID{r.Phys(2)}, Defs: []mach.PhysID{d.Phys(1), r.Phys(9)}}
	want := []effect{{Key: physKey(r.Phys(2)), Op: -1}, {Key: physKey(d.Phys(1)), Op: -1}}
	if got := collect(call.RegUses(m)); !reflect.DeepEqual(got, want) {
		t.Errorf("call uses = %v, want %v", got, want)
	}
	want = []effect{
		{Key: physKey(d.Phys(1)), Op: -1}, {Key: physKey(r.Phys(2)), Op: -1}, {Key: physKey(r.Phys(3)), Op: -1},
		{Key: physKey(r.Phys(9)), Op: -1}, {Key: physKey(d.Phys(4)), Op: -1},
	}
	if got := collect(call.RegDefs(m)); !reflect.DeepEqual(got, want) {
		t.Errorf("call defs = %v, want %v", got, want)
	}

	// r[0] is wired to zero; d[0] overlays it.
	add := New(nil, m.InstrByLabel("add"), Phys(r.Phys(7)), Phys(r.Phys(0)), Reg(1))
	want = []effect{
		{Key: physKey(r.Phys(0)), Op: 1, Hard: true}, {Key: physKey(d.Phys(0)), Op: 1, Hard: true},
		{Key: PseudoKey(m, 1), Op: 2},
	}
	if got := collect(add.RegUses(m)); !reflect.DeepEqual(got, want) {
		t.Errorf("add uses = %v, want %v", got, want)
	}
}

// TestEffectsAllocateNothing: the walk is on every hot path of the back
// end (cdag, liveness, interference, the scoreboard).
func TestEffectsAllocateNothing(t *testing.T) {
	m, err := targets.Load("m88000")
	if err != nil {
		t.Fatal(err)
	}
	r, d := m.RegSet("r"), m.RegSet("d")
	in := New(nil, m.InstrByLabel("fadd.d"), Reg(0), Phys(d.Phys(3)), Operand{Kind: OpPseudoHalf, Pseudo: 2})
	in.Imp = &Implicit{Uses: []mach.PhysID{r.Phys(2)}, Defs: m.CallerSave()}
	n := 0
	allocs := testing.AllocsPerRun(100, func() {
		for e := in.RegDefs(m); e.Next(); {
			n += int(e.Key)
		}
		for e := in.RegUses(m); e.Next(); {
			n += int(e.Key)
		}
	})
	if allocs != 0 || n == 0 {
		t.Errorf("walk allocates %v per run", allocs)
	}
}

// TestPseudoHomes: first-mentioning block, nil for an unmentioned
// pseudo, cross for one mentioned in two blocks (half operands count).
func TestPseudoHomes(t *testing.T) {
	m, err := maril.Parse("tiny", tinyDesc)
	if err != nil {
		t.Fatal(err)
	}
	add := m.InstrByLabel("add")
	fn := ir.NewFunc("f", ir.Void)
	af := &Func{Name: "f", IR: fn}
	for i := 0; i < 4; i++ {
		af.NewPseudo(m.RegSet("r"), ir.NoReg)
	}
	fn.Blocks = []*ir.Block{{ID: 0, Fn: fn}, {ID: 1, Fn: fn}}
	b0 := &Block{IR: fn.Blocks[0], Insts: []*Inst{New(nil, add, Reg(0), Reg(1), Reg(1))}}
	b1 := &Block{IR: fn.Blocks[1], Insts: []*Inst{New(nil, add, Reg(2), Operand{Kind: OpPseudoHalf, Pseudo: 1}, Reg(2))}}
	af.Blocks = []*Block{b0, b1}
	home, cross := af.PseudoHomes()
	if want := []*Block{b0, b0, b1, nil}; !reflect.DeepEqual(home, want) {
		t.Errorf("home = %v", home)
	}
	if want := []bool{false, true, false, false}; !reflect.DeepEqual(cross, want) {
		t.Errorf("cross = %v", cross)
	}
}

func TestFuncHelpers(t *testing.T) {
	m, err := maril.Parse("tiny", tinyDesc)
	if err != nil {
		t.Fatal(err)
	}
	fn := ir.NewFunc("f", ir.Void)
	fn.Blocks = []*ir.Block{{ID: 0, Fn: fn}, {ID: 1, Fn: fn}}
	irb := fn.Blocks[0]
	af := &Func{Name: "f", IR: fn}
	p := af.NewPseudo(m.RegSet("r"), ir.NoReg)
	if p != 0 || af.Pseudos[p].Set.Name != "r" {
		t.Error("pseudo bookkeeping")
	}
	b := &Block{IR: irb}
	af.Blocks = append(af.Blocks, b)
	if af.Block(irb) != b || af.Block(fn.Blocks[1]) != nil {
		t.Error("Block lookup")
	}
	if af.NewSeqID() == af.NewSeqID() {
		t.Error("sequence ids must be unique")
	}
}

func TestProgramPrintPacking(t *testing.T) {
	m, err := maril.Parse("tiny", tinyDesc)
	if err != nil {
		t.Fatal(err)
	}
	add := m.InstrByLabel("add")
	fn := ir.NewFunc("f", ir.Void)
	irb := &ir.Block{Fn: fn}
	fn.Blocks = []*ir.Block{irb}
	a := New(nil, add, Reg(0), Reg(1), Reg(1))
	b := New(nil, add, Reg(2), Reg(1), Reg(1))
	a.Cycle, b.Cycle = 0, 0 // packed
	af := &Func{Name: "f", IR: fn, Blocks: []*Block{{IR: irb, Insts: []*Inst{a, b}}}}
	prog := &Program{Machine: m, Funcs: []*Func{af}}
	out := prog.Print()
	if !strings.Contains(out, "| add") {
		t.Errorf("packed marker missing:\n%s", out)
	}
	if prog.Lookup("f") != af || prog.Lookup("g") != nil {
		t.Error("Lookup")
	}
}
