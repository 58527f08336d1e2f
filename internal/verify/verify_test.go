package verify_test

import (
	"strings"
	"testing"

	"marion/internal/asm"
	"marion/internal/ir"
	"marion/internal/maril"
	"marion/internal/verify"
)

// unitDesc is a minimal machine for hand-built schedules: a 3-cycle
// load, a store that claims no stage the load's issue cycle does, a
// 1-cycle add, and an %aux override that stretches the load->add latency
// to 5 when the add's first source is the loaded register.
const unitDesc = `
declare {
    %reg r[0:7] (int, ptr);
    %reg f[0:7] (double);
    %resource IEX, MEM;
    %def imm [-32768:32767];
    %memory m[0:65535];
}
cwvm {
    %general (int, ptr) r; %general (double) f;
    %allocable r[1:5], f[1:5]; %calleesave r[4:5];
    %sp r[7]; %fp r[6]; %retaddr r[1]; %hard r[0] 0;
    %result r[2] (int);
}
instr {
    %instr ld r, r, #imm {$1 = m[$2 + $3];} [IEX; MEM] (1,3,0)
    %instr st r, r, #imm {m[$2 + $3] = $1;} [MEM] (1,1,0)
    %instr add r, r, r {$1 = $2 + $3;} [IEX] (1,1,0)
    %instr nop {;} [IEX] (1,1,0)
    %aux ld : add (1.$1 == 2.$2) (5)
}
`

func unitFunc(t *testing.T, insts ...*asm.Inst) *asm.Func {
	t.Helper()
	fn := ir.NewFunc("t", ir.Void)
	irb := fn.NewBlock()
	af := &asm.Func{Name: "t", IR: fn}
	af.Blocks = []*asm.Block{{IR: irb, Insts: insts}}
	return af
}

func TestNonMonotoneCyclesFlagged(t *testing.T) {
	m, err := maril.Parse("unit", unitDesc)
	if err != nil {
		t.Fatal(err)
	}
	add := m.InstrByLabel("add")
	i0 := asm.New(nil, add, asm.Reg(0), asm.Reg(1), asm.Reg(1))
	i1 := asm.New(nil, add, asm.Reg(2), asm.Reg(1), asm.Reg(1))
	i0.Cycle, i1.Cycle = 2, 1
	af := unitFunc(t, i0, i1)
	af.NewPseudo(m.RegSet("r"), ir.NoReg)
	af.NewPseudo(m.RegSet("r"), ir.NoReg)
	af.NewPseudo(m.RegSet("r"), ir.NoReg)
	rep := verify.Func(m, af, verify.Options{})
	if rep.Count(verify.KindSchedule) == 0 {
		t.Errorf("non-monotone cycles not flagged; report:\n%s", rep)
	}
}

func TestLatencyWindowFlagged(t *testing.T) {
	m, err := maril.Parse("unit", unitDesc)
	if err != nil {
		t.Fatal(err)
	}
	r := m.RegSet("r")
	ld := m.InstrByLabel("ld")
	add := m.InstrByLabel("add")
	// ld t0 at 0 (latency 3); a dependent add at 1 sits inside the
	// window. t0 feeds the add's SECOND source so the %aux override
	// (which matches the first source) stays out of the way.
	i0 := asm.New(nil, ld, asm.Reg(0), asm.Phys(r.Phys(6)), asm.Imm(0))
	i1 := asm.New(nil, add, asm.Reg(1), asm.Reg(2), asm.Reg(0))
	i0.Cycle, i1.Cycle = 0, 1
	af := unitFunc(t, i0, i1)
	for i := 0; i < 3; i++ {
		af.NewPseudo(r, ir.NoReg)
	}
	rep := verify.Func(m, af, verify.Options{})
	if rep.Count(verify.KindLatency) == 0 {
		t.Errorf("latency violation not flagged; report:\n%s", rep)
	}
	// At distance 3 the same pair is legal.
	i1.Cycle = 3
	if rep := verify.Func(m, af, verify.Options{}); !rep.Empty() {
		t.Errorf("legal schedule flagged:\n%s", rep)
	}
}

func TestAuxLatencyOverride(t *testing.T) {
	m, err := maril.Parse("unit", unitDesc)
	if err != nil {
		t.Fatal(err)
	}
	r := m.RegSet("r")
	ld := m.InstrByLabel("ld")
	add := m.InstrByLabel("add")
	// t0 feeds the add's FIRST source, so %aux ld:add raises the
	// required distance from 3 to 5: distance 3 must now be flagged.
	i0 := asm.New(nil, ld, asm.Reg(0), asm.Phys(r.Phys(6)), asm.Imm(0))
	i1 := asm.New(nil, add, asm.Reg(1), asm.Reg(0), asm.Reg(2))
	i0.Cycle, i1.Cycle = 0, 3
	af := unitFunc(t, i0, i1)
	for i := 0; i < 3; i++ {
		af.NewPseudo(r, ir.NoReg)
	}
	rep := verify.Func(m, af, verify.Options{})
	if rep.Count(verify.KindLatency) == 0 {
		t.Errorf("%%aux-stretched latency not flagged; report:\n%s", rep)
	}
	i1.Cycle = 5
	if rep := verify.Func(m, af, verify.Options{}); !rep.Empty() {
		t.Errorf("schedule legal under %%aux flagged:\n%s", rep)
	}
}

// TestSameWordMemoryOrder pins the same-word memory rule: a memory
// reference listed after a memory write in its word is flagged, one
// listed before it reads pre-word memory (a legal anti-dependence).
func TestSameWordMemoryOrder(t *testing.T) {
	m, err := maril.Parse("unit", unitDesc)
	if err != nil {
		t.Fatal(err)
	}
	fp := asm.Phys(m.RegSet("r").Phys(6))
	for _, tc := range []struct {
		name       string
		storeFirst bool
		want       int
	}{{"st;ld", true, 1}, {"ld;st", false, 0}} {
		ld := asm.New(nil, m.InstrByLabel("ld"), asm.Reg(0), fp, asm.Imm(0))
		st := asm.New(nil, m.InstrByLabel("st"), asm.Reg(1), fp, asm.Imm(4))
		ld.Cycle, st.Cycle = 0, 0
		insts := []*asm.Inst{ld, st}
		if tc.storeFirst {
			insts[0], insts[1] = st, ld
		}
		af := unitFunc(t, insts...)
		af.NewPseudo(m.RegSet("r"), ir.NoReg)
		af.NewPseudo(m.RegSet("r"), ir.NoReg)
		rep := verify.Func(m, af, verify.Options{})
		if rep.Count(verify.KindLatency) != tc.want || len(rep.Findings) != tc.want {
			t.Errorf("{%s}: want %d latency finding(s) and nothing else; report:\n%s", tc.name, tc.want, rep)
		}
	}
}

// wordDesc is a two-unit long-word machine: an integer add in the <int>
// word element, a floating add in <fp> only and a floating subtract in
// both, each on its own unit, so no two of them collide on a resource.
const wordDesc = `
declare {
    %reg r[0:7] (int, ptr);
    %reg f[0:7] (double);
    %resource IEX, FEX;
    %memory m[0:65535];
}
cwvm {
    %general (int, ptr) r; %general (double) f;
    %allocable r[1:5], f[1:5];
    %sp r[7]; %fp r[6]; %retaddr r[1];
}
instr {
    %instr add r, r, r {$1 = $2 + $3;} [IEX] (1,1,0) <int>
    %instr fadd f, f, f (double) {$1 = $2 + $3;} [FEX] (1,1,0) <fp>
    %instr fsub f, f, f (double) {$1 = $2 - $3;} [FEX] (1,1,0) <int, fp>
    %instr nop {;} [IEX] (1,1,0)
}
`

// TestDisjointClassesCannotPack pins the long-word packing rule on a
// hand-built word: two independent instructions whose resources do not
// collide but whose packing classes share no element are flagged, and
// the same word with classes in common is clean.
func TestDisjointClassesCannotPack(t *testing.T) {
	m, err := maril.Parse("word", wordDesc)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		fp   string
		want string // the finding's text, "" for a clean word
	}{
		{"fadd", "fadd cannot pack into this word: no common long-word element (add|fadd)"},
		{"fsub", ""},
	} {
		add := asm.New(nil, m.InstrByLabel("add"), asm.Reg(0), asm.Reg(1), asm.Reg(1))
		fop := asm.New(nil, m.InstrByLabel(tc.fp), asm.Reg(2), asm.Reg(3), asm.Reg(3))
		add.Cycle, fop.Cycle = 0, 0
		af := unitFunc(t, add, fop)
		af.NewPseudo(m.RegSet("r"), ir.NoReg)
		af.NewPseudo(m.RegSet("r"), ir.NoReg)
		af.NewPseudo(m.RegSet("f"), ir.NoReg)
		af.NewPseudo(m.RegSet("f"), ir.NoReg)
		rep := verify.Func(m, af, verify.Options{})
		if tc.want == "" {
			if !rep.Empty() {
				t.Errorf("add|%s: classes in common flagged:\n%s", tc.fp, rep)
			}
			continue
		}
		if len(rep.Findings) != 1 || rep.Findings[0].Kind != verify.KindResource || rep.Findings[0].Msg != tc.want {
			t.Errorf("add|%s: want one %s finding %q; report:\n%s", tc.fp, verify.KindResource, tc.want, rep)
		}
	}
}

func TestReportBasics(t *testing.T) {
	var nilRep *verify.Report
	if !nilRep.Empty() || nilRep.Count(verify.KindLatency) != 0 || nilRep.Err() != nil {
		t.Error("nil report must behave as empty")
	}
	r := &verify.Report{Findings: []verify.Finding{
		{Kind: verify.KindControl, Func: "f", Block: "b0", Index: 2, Cycle: 7, Msg: "boom"},
	}}
	r.Merge(nilRep)
	r.Merge(&verify.Report{Findings: []verify.Finding{
		{Kind: verify.KindControl, Func: "f", Block: "b1", Index: 0, Cycle: -1, Msg: "pow"},
	}})
	if r.Count(verify.KindControl) != 2 || r.Empty() {
		t.Errorf("merge lost findings: %v", r.Findings)
	}
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "2 finding(s)") {
		t.Errorf("Err() = %v", err)
	}
	s := r.String()
	if !strings.Contains(s, "f/b0#2@7: control: boom") {
		t.Errorf("String() = %q", s)
	}
	if len(verify.Kinds()) < 6 {
		t.Errorf("Kinds() = %v", verify.Kinds())
	}
}
