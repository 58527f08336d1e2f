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
// one it replaced did, recorded in testdata/print.sha256: every unit of
// the golden corpus and the serve units on every target under every
// strategy, whole and instruction by instruction.
func TestPrintMatchesReference(t *testing.T) {
	units := append(gentest.Golden(), gentest.Serve()...)
	pins := gentest.ReadPins(t, "testdata/print.sha256")

	insts, packed, halves := 0, 0, 0
	// answer renders what the formatter says of p: the program, then
	// every block's label and every instruction on its own.
	answer := func(where string, p *asm.Program) string {
		var sb strings.Builder
		text := p.Print()
		sb.WriteString(text)
		packed += strings.Count(text, "\n  | ")
		halves += strings.Count(text, "lo(t") + strings.Count(text, "hi(t")
		for _, f := range p.Funcs {
			for _, b := range f.Blocks {
				if b.Label() != b.IR.Name() || b.Label() != (asm.Operand{Kind: asm.OpBlock, Block: b.IR}).String() {
					t.Fatalf("%s: label %q", where, b.Label())
				}
				sb.WriteString(b.Label() + ":\n")
				for _, in := range b.Insts {
					insts++
					sb.WriteString(in.String() + "\n")
				}
			}
		}
		return sb.String()
	}
	for _, target := range targets.Names() {
		m, err := targets.Load(target)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []strategy.Kind{strategy.Naive, strategy.Postpass, strategy.IPS, strategy.RASE, strategy.Local} {
			key := target + "/" + kind.String()
			line := gentest.NewLine(key)
			answers := map[string]string{}
			add := func(name string, p *asm.Program) {
				answers[name] = answer(key+" "+name, p)
				line.Add(name, answers[name])
			}
			cfg := driver.Config{Strategy: kind}
			suite, err := livermore.SuiteModule()
			if err != nil {
				t.Fatal(err)
			}
			c, err := driver.CompileModule(m, suite, cfg)
			if err != nil {
				t.Fatal(err)
			}
			add("livermore", c.Prog)
			for _, u := range units {
				c, err := driver.Compile(target, u.Lang, u.Name, u.Text, cfg)
				if err != nil {
					t.Fatal(err)
				}
				add(u.Name, c.Prog)
			}
			if name, ok := pins.Check(t, line.String()); !ok && name != "" {
				t.Fatalf("%s %s now prints\n%s", key, name, answers[name])
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
// The wanted text is what the fmt-based formatter printed.
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
	wantOps := []string{
		"t0", "t7", "t-1", "t2147483647",
		"p0", "p31", "p-1",
		"lo(t12)",
		"hi(t12)",
		"hi(t-1)",
		"0", "-1", "-32768", "9223372036854775807", "-9223372036854775808",
		"L0", "L2147483647",
		".fc0", "",
		"?", "?",
	}
	for i, o := range operands {
		if got := o.String(); got != wantOps[i] {
			t.Errorf("operand %+v: %q, want %q", o, got, wantOps[i])
		}
	}

	add := &mach.Instr{Mnemonic: "add"}
	nop := &mach.Instr{Mnemonic: "nop"}
	long := &mach.Instr{Mnemonic: strings.Repeat("pfmul.ss.", 12)}
	at := func(in *asm.Inst, cycle int32) *asm.Inst { in.Cycle = cycle; return in }
	block := &asm.Block{IR: b0, Insts: []*asm.Inst{
		asm.New(nil, nop), // unscheduled: Cycle -1 never packs
		asm.New(nil, nop),
		at(asm.New(nil, add, operands[0], operands[8], operands[12]), 0),
		at(asm.New(nil, add, operands[1], operands[7], operands[14]), 0), // packed
		at(asm.New(nil, nop), 0), // packed
		at(asm.New(nil, long, operands...), 1),
		at(asm.New(nil, add, operands[15], operands[17]), 3),
		at(asm.New(nil, nop), 3), // packed
	}}
	longLine := long.Mnemonic + " " + strings.Join(wantOps, ", ")
	wantInsts := []string{
		"nop",
		"nop",
		"add t0, hi(t12), -32768",
		"add t7, lo(t12), -9223372036854775808",
		"nop",
		longLine,
		"add L0, .fc0",
		"nop",
	}
	for i, in := range block.Insts {
		if got := in.String(); got != wantInsts[i] {
			t.Errorf("instruction %q, want %q", got, wantInsts[i])
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
	want := "; target hand\n" +
		".data .fc0 size=8 addr=-8\n" +
		".data g size=4 addr=1048576\n" +
		"\n" +
		"f:  ; frame=-16\n" +
		"L0:\n" +
		"    nop\n" +
		"    nop\n" +
		"    add t0, hi(t12), -32768\n" +
		"  | add t7, lo(t12), -9223372036854775808\n" +
		"  | nop\n" +
		"    " + longLine + "\n" +
		"    add L0, .fc0\n" +
		"  | nop\n" +
		"L2147483647:\n" +
		"\n" +
		"empty:  ; frame=0\n"
	if got := p.Print(); got != want {
		t.Errorf("Print\n--- now\n%s\n--- want\n%s", got, want)
	}
	empty := &asm.Program{Machine: &mach.Machine{Name: "hand"}}
	if got := empty.Print(); got != "; target hand\n" {
		t.Errorf("empty program: %q", got)
	}
}
