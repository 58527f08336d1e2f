package asm_test

import (
	"math"
	"strings"
	"testing"

	"marion/internal/asm"
	"marion/internal/driver"
	"marion/internal/gentest"
	"marion/internal/ir"
	"marion/internal/livermore"
	"marion/internal/mach"
	"marion/internal/strategy"
	"marion/internal/targets"
)

// The append-based formatter prints, byte for byte, what the fmt-based
// one did: every unit of the golden corpus and the serve units on every
// target under every strategy, whole and instruction by instruction.
func TestPrintMatchesReference(t *testing.T) {
	units := append(gentest.Golden(), gentest.Serve()...)

	insts, packed, halves := 0, 0, 0
	check := func(where string, p *asm.Program) {
		got, want := p.Print(), asm.ReferencePrint(p)
		if got != want {
			t.Fatalf("%s: Print differs from the reference\n--- now\n%s\n--- reference\n%s", where, got, want)
		}
		packed += strings.Count(got, "\n  | ")
		halves += strings.Count(got, "lo(t") + strings.Count(got, "hi(t")
		for _, f := range p.Funcs {
			for _, b := range f.Blocks {
				if b.Label() != b.IR.Name() || b.Label() != asm.ReferenceOperandString(asm.Operand{Kind: asm.OpBlock, Block: b.IR}) {
					t.Fatalf("%s: label %q", where, b.Label())
				}
				for _, in := range b.Insts {
					insts++
					if got, want := in.String(), asm.ReferenceInstString(in); got != want {
						t.Fatalf("%s: instruction %q, reference %q", where, got, want)
					}
				}
			}
		}
	}
	for _, target := range targets.Names() {
		m, err := targets.Load(target)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []strategy.Kind{strategy.Naive, strategy.Postpass, strategy.IPS, strategy.RASE, strategy.Local} {
			cfg := driver.Config{Strategy: kind}
			suite, err := livermore.SuiteModule()
			if err != nil {
				t.Fatal(err)
			}
			c, err := driver.CompileModule(m, suite, cfg)
			if err != nil {
				t.Fatal(err)
			}
			check(target+"/"+kind.String()+" livermore", c.Prog)
			for _, u := range units {
				compile := driver.Compile
				if u.Lang == "il" {
					compile = driver.CompileIL
				}
				c, err := compile(target, u.Name, u.Text, cfg)
				if err != nil {
					t.Fatal(err)
				}
				check(target+"/"+kind.String()+" "+u.Name, c.Prog)
			}
		}
	}
	if insts < 100000 || packed == 0 {
		t.Errorf("corpus printed %d instructions, %d of them packed", insts, packed)
	}
	t.Logf("%d instructions, %d packed, %d register halves", insts, packed, halves)
}

// Hand cases the corpus has few or none of: every operand kind at the
// edges of its range, register halves before allocation, instructions
// without operands, packed and unscheduled lines, negative addresses.
func TestFormatterHandCases(t *testing.T) {
	fn := ir.NewFunc("f", ir.Void)
	b0, b1 := fn.NewBlock(), fn.NewBlock()
	b1.ID = math.MaxInt32
	sym := &ir.Sym{Name: ".fc0", Kind: ir.SymGlobal, Size: 8, Offset: -8}
	operands := []asm.Operand{
		asm.Reg(0), asm.Reg(7), asm.Reg(asm.NoPseudo), asm.Reg(math.MaxInt32),
		asm.Phys(0), asm.Phys(31), asm.Phys(mach.NoPhys),
		{Kind: asm.OpPseudoHalf, Pseudo: 12, Half: 0},
		{Kind: asm.OpPseudoHalf, Pseudo: 12, Half: 1},
		{Kind: asm.OpPseudoHalf, Pseudo: asm.NoPseudo, Half: 2},
		asm.Imm(0), asm.Imm(-1), asm.Imm(-32768), asm.Imm(math.MaxInt64), asm.Imm(math.MinInt64),
		{Kind: asm.OpBlock, Block: b0}, {Kind: asm.OpBlock, Block: b1},
		{Kind: asm.OpSym, Sym: sym}, {Kind: asm.OpSym, Sym: &ir.Sym{}},
		{}, {Kind: asm.OperandKind(99)},
	}
	for _, o := range operands {
		if got, want := o.String(), asm.ReferenceOperandString(o); got != want {
			t.Errorf("operand %+v: %q, reference %q", o, got, want)
		}
		if got := string(o.Append([]byte("x="))); got != "x="+o.String() {
			t.Errorf("operand %+v: Append gave %q", o, got)
		}
	}

	add := &mach.Instr{Mnemonic: "add"}
	nop := &mach.Instr{Mnemonic: "nop"}
	long := &mach.Instr{Mnemonic: strings.Repeat("pfmul.ss.", 12)}
	at := func(in *asm.Inst, cycle int32) *asm.Inst { in.Cycle = cycle; return in }
	block := &asm.Block{IR: b0, Insts: []*asm.Inst{
		asm.New(nop), // unscheduled: Cycle -1 never packs
		asm.New(nop),
		at(asm.New(add, operands[0], operands[8], operands[12]), 0),
		at(asm.New(add, operands[1], operands[7], operands[14]), 0), // packed
		at(asm.New(nop), 0), // packed
		at(asm.New(long, operands...), 1),
		at(asm.New(add, operands[15], operands[17]), 3),
		at(asm.New(nop), 3), // packed
	}}
	for _, in := range block.Insts {
		if got, want := in.String(), asm.ReferenceInstString(in); got != want {
			t.Errorf("instruction %q, reference %q", got, want)
		}
	}
	p := &asm.Program{
		Machine: &mach.Machine{Name: "hand"},
		Globals: []*ir.Sym{sym, {Name: "g", Size: 4, Offset: 1 << 20}},
		Funcs: []*asm.Func{
			{Name: "f", FrameSize: -16, Blocks: []*asm.Block{block, {IR: b1}}},
			{Name: "empty"},
		},
	}
	got, want := p.Print(), asm.ReferencePrint(p)
	if got != want {
		t.Errorf("Print differs from the reference\n--- now\n%s\n--- reference\n%s", got, want)
	}
	if n := strings.Count(got, "\n  | "); n != 3 {
		t.Errorf("%d packed lines, want 3\n%s", n, got)
	}
	empty := &asm.Program{Machine: &mach.Machine{Name: "hand"}}
	if got, want := empty.Print(), asm.ReferencePrint(empty); got != want {
		t.Errorf("empty program: %q, reference %q", got, want)
	}
}
