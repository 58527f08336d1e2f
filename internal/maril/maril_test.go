package maril

import (
	"fmt"
	"strings"
	"testing"

	"marion/internal/ir"
	"marion/internal/mach"
)

func lexAll(t *testing.T, src string) []Token {
	t.Helper()
	lx := newLexer("test", src)
	var toks []Token
	for {
		tok, err := lx.next()
		if err != nil {
			t.Fatalf("lex error: %v", err)
		}
		if tok.Kind == TokEOF {
			return toks
		}
		toks = append(toks, tok)
	}
}

func TestLexerBasicTokens(t *testing.T) {
	toks := lexAll(t, "%reg r[0:7] (int); // comment\n/* block */ fadd.d")
	want := []TokKind{TokDirective, TokIdent, TokLBrack, TokInt, TokColon,
		TokInt, TokRBrack, TokLParen, TokIdent, TokRParen, TokSemi, TokIdent}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(toks), len(want), toks)
	}
	for i, k := range want {
		if toks[i].Kind != k {
			t.Errorf("token %d: got %s, want %s", i, toks[i].Kind, k)
		}
	}
	if toks[0].Text != "reg" {
		t.Errorf("directive text = %q, want reg", toks[0].Text)
	}
	if toks[11].Text != "fadd.d" {
		t.Errorf("dotted identifier = %q, want fadd.d", toks[11].Text)
	}
}

func TestLexerOperators(t *testing.T) {
	toks := lexAll(t, ":: ==> == != <= >= << >> = < > 1.$1 2.5")
	want := []TokKind{TokDColon, TokArrow, TokEq, TokNe, TokLe, TokGe,
		TokShl, TokShr, TokAssign, TokLt, TokGt, TokInt, TokDot, TokDollar,
		TokInt, TokFloat}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens %v, want %d", len(toks), toks, len(want))
	}
	for i, k := range want {
		if toks[i].Kind != k {
			t.Errorf("token %d: got %s, want %s", i, toks[i].Kind, k)
		}
	}
	if toks[15].FVal != 2.5 {
		t.Errorf("float value = %v, want 2.5", toks[15].FVal)
	}
}

func TestLexerPercentAsModulus(t *testing.T) {
	toks := lexAll(t, "$2 % $3")
	if toks[2].Kind != TokPercent {
		t.Fatalf("expected modulus token, got %v", toks[2])
	}
}

const miniDesc = `
%machine MINI;
declare {
    %reg r[0:3] (int, ptr);
    %resource IF, ID, EX;
    %def imm [-128:127];
    %label lab [-1024:1023] +relative;
    %memory m[0:65535];
}
cwvm {
    %general (int, ptr) r;
    %allocable r[1:2];
    %calleesave r[2:2];
    %sp r[3];
    %fp r[3];
    %retaddr r[1];
    %hard r[0] 0;
    %result r[1] (int);
}
instr {
    %instr add r, r, r (int) {$1 = $2 + $3;} [IF; ID; EX] (1,1,0)
    %instr addi r, r, #imm {$1 = $2 + $3;} [IF; ID; EX] (1,1,0)
    %instr ld r, r, #imm {$1 = m[$2 + $3];} [IF; ID; EX] (1,2,0)
    %instr st r, r, #imm {m[$2 + $3] = $1;} [IF; ID; EX] (1,1,0)
    %instr beq r, r, #lab {if ($1 == $2) goto $3;} [IF; ID] (1,2,1)
    %instr ret {ret;} [IF; ID] (1,1,1)
    %move mov r, r {$1 = $2;} [IF; ID; EX] (1,1,0)
    %aux ld : st (1.$1 == 2.$1) (3)
    %glue r, r { ($1 :: $2) ==> ($1 - $2); }
}
`

func parseMini(t *testing.T) *mach.Machine {
	t.Helper()
	m, err := Parse("mini", miniDesc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return m
}

func TestParseMiniDeclare(t *testing.T) {
	m := parseMini(t)
	if m.Name != "MINI" {
		t.Errorf("name = %q", m.Name)
	}
	rs := m.RegSet("r")
	if rs == nil || rs.Count() != 4 {
		t.Fatalf("regset r missing or wrong size: %+v", rs)
	}
	if !rs.Holds(ir.I32) || !rs.Holds(ir.Ptr) || rs.Holds(ir.F64) {
		t.Errorf("regset types wrong: %v", rs.Types)
	}
	if len(m.Resources) != 3 {
		t.Errorf("resources = %v", m.Resources)
	}
	d := m.Def("imm")
	if d == nil || d.Lo != -128 || d.Hi != 127 {
		t.Fatalf("def imm = %+v", d)
	}
	l := m.LabelDef("lab")
	if l == nil || !l.Relative {
		t.Fatalf("label lab = %+v", l)
	}
	if m.Memory("m") == nil {
		t.Error("memory m missing")
	}
}

func TestParseMiniCwvm(t *testing.T) {
	m := parseMini(t)
	c := &m.Cwvm
	if c.SP.Set.Name != "r" || c.SP.Index != 3 {
		t.Errorf("sp = %v", c.SP)
	}
	if c.RetAddr.Index != 1 {
		t.Errorf("retaddr = %v", c.RetAddr)
	}
	if len(c.Hard) != 1 || c.Hard[0].Value != 0 {
		t.Errorf("hard = %v", c.Hard)
	}
	if got := c.GeneralSet(ir.I32); got == nil || got.Name != "r" {
		t.Errorf("general(int) = %v", got)
	}
	if got := c.GeneralSet(ir.I8); got == nil {
		t.Errorf("general(char) should fall back to the int set")
	}
	if ref, ok := c.ResultFor(ir.I32); !ok || ref.Index != 1 {
		t.Errorf("result(int) = %v %v", ref, ok)
	}
}

func TestParseMiniInstrs(t *testing.T) {
	m := parseMini(t)
	add := m.InstrByLabel("add")
	if add == nil {
		t.Fatal("add not found")
	}
	if add.TypeConstraint != ir.I32 {
		t.Errorf("add type constraint = %v", add.TypeConstraint)
	}
	if len(add.Operands) != 3 || add.Operands[2].Kind != mach.OperandReg {
		t.Errorf("add operands = %v", add.Operands)
	}
	if len(add.ResVec) != 3 {
		t.Errorf("add resvec = %v", add.ResVec)
	}
	if add.Sem.Kind != mach.SemAssign {
		t.Errorf("add sem kind = %v", add.Sem.Kind)
	}
	if got, want := add.Sem.String(), "$1 = ($2 + $3);"; got != want {
		t.Errorf("add sem = %q, want %q", got, want)
	}
	if len(add.DefOps) != 1 || add.DefOps[0] != 0 {
		t.Errorf("add defs = %v", add.DefOps)
	}
	if len(add.UseOps) != 2 {
		t.Errorf("add uses = %v", add.UseOps)
	}

	ld := m.InstrByLabel("ld")
	if !ld.ReadsMem || ld.WritesMem {
		t.Errorf("ld memory flags: reads=%v writes=%v", ld.ReadsMem, ld.WritesMem)
	}
	st := m.InstrByLabel("st")
	if st.ReadsMem || !st.WritesMem {
		t.Errorf("st memory flags: reads=%v writes=%v", st.ReadsMem, st.WritesMem)
	}

	beq := m.InstrByLabel("beq")
	if !beq.IsBranch || beq.BranchOp != 2 || beq.Slots != 1 {
		t.Errorf("beq: branch=%v op=%d slots=%d", beq.IsBranch, beq.BranchOp, beq.Slots)
	}
	ret := m.InstrByLabel("ret")
	if !ret.IsRet {
		t.Error("ret not classified")
	}
	mov := m.InstrByLabel("mov")
	if !mov.Move {
		t.Error("mov not flagged as %move")
	}
	if m.Nop == nil {
		t.Error("nop not synthesized")
	}
}

func TestParseMiniAuxAndGlue(t *testing.T) {
	m := parseMini(t)
	if len(m.AuxLats) != 1 {
		t.Fatalf("aux lats = %v", m.AuxLats)
	}
	a := m.AuxLats[0]
	if a.First != "ld" || a.Second != "st" || a.FirstOp != 1 || a.SecondOp != 1 || a.Latency != 3 {
		t.Errorf("aux = %+v", a)
	}
	if len(m.Glues) != 1 {
		t.Fatalf("glues = %v", m.Glues)
	}
	g := m.Glues[0]
	if g.LHS.Op != ir.Cmp || g.RHS.Op != ir.Sub {
		t.Errorf("glue ops: %v ==> %v", g.LHS.Op, g.RHS.Op)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"unknown section", "bogus { }", "unknown section"},
		{"unknown resource", `
declare { %reg r[0:1] (int); %resource A; }
cwvm { %general (int) r; %allocable r[0:1]; %calleesave r[1:1];
       %sp r[1]; %fp r[1]; %retaddr r[0]; }
instr { %instr add r, r, r {$1 = $2 + $3;} [ZZ] (1,1,0) }`, "unknown resource"},
		{"bad operand index", `
declare { %reg r[0:1] (int); %resource A; }
cwvm { %general (int) r; %allocable r[0:1]; %calleesave r[1:1];
       %sp r[1]; %fp r[1]; %retaddr r[0]; }
instr { %instr add r, r {$1 = $2 + $3;} [A] (1,1,0) }`, "out of range"},
		{"unknown regset", `
declare { %reg r[0:1] (int); }
cwvm { %general (int) q; }`, "unknown register set"},
		{"redeclared def", `
declare { %def a [0:1]; %def a [0:2]; }`, "redeclared"},
		{"no instructions", `
declare { %reg r[0:1] (int); }
cwvm { %general (int) r; %allocable r[0:1]; %calleesave r[1:1];
       %sp r[1]; %fp r[1]; %retaddr r[0]; }`, "no instructions"},
		{"func escape", `
declare { %reg r[0:1] (int); %resource A; }
cwvm { %general (int) r; %allocable r[0:1]; %calleesave r[1:1];
       %sp r[1]; %fp r[1]; %retaddr r[0]; }
instr { %instr mov r, r {$1 = $2;} [A] (1,1,0)
        %func *movd r, r {$1 = $2;} }`, "t:6: %func escapes are not supported"},
		{"escape mnemonic", `
declare { %reg r[0:1] (int); %resource A; }
cwvm { %general (int) r; %allocable r[0:1]; %calleesave r[1:1];
       %sp r[1]; %fp r[1]; %retaddr r[0]; }
instr { %move *movd r, r {$1 = $2;} [A] (1,1,0) }`, "t:5: *name escapes are not supported"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse("t", c.src)
			if err == nil {
				t.Fatal("expected error")
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Errorf("error %q does not contain %q", err, c.wantSub)
			}
		})
	}
}

func TestParseTemporalAndClocks(t *testing.T) {
	src := `
declare {
    %clock clk_m;
    %reg f[0:3] (double);
    %reg ml (double; clk_m) +temporal;
    %reg r[0:1] (int, ptr);
    %resource M1, M2;
}
cwvm {
    %general (double) f; %general (int, ptr) r;
    %allocable f[0:3]; %calleesave f[3:3];
    %sp r[0]; %fp r[0]; %retaddr r[1];
}
instr {
    %instr M1 f, f (double; clk_m) {ml = $1 * $2;} [M1] (1,1,0) <pfmul, m12apm>
    %instr M2 f (double; clk_m) {$1 = ml;} [M2] (1,1,0) <pfmul>
}
`
	m, err := Parse("eap", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(m.Clocks) != 1 {
		t.Fatalf("clocks = %v", m.Clocks)
	}
	ml := m.RegSet("ml")
	if ml == nil || !ml.Temporal || ml.Clock != 0 {
		t.Fatalf("ml = %+v", ml)
	}
	m1 := m.InstrByLabel("M1")
	if m1.AffectsClock != 0 {
		t.Errorf("M1 affects clock %d", m1.AffectsClock)
	}
	if len(m1.WritesTRegs) != 1 || m1.WritesTRegs[0] != ml {
		t.Errorf("M1 writes tregs %v", m1.WritesTRegs)
	}
	m2 := m.InstrByLabel("M2")
	if len(m2.ReadsTRegs) != 1 || m2.ReadsTRegs[0] != ml {
		t.Errorf("M2 reads tregs %v", m2.ReadsTRegs)
	}
	if m1.Class.IsEmpty() || m2.Class.IsEmpty() {
		t.Fatal("classes not parsed")
	}
	if got := m1.Class.Intersect(m2.Class); got.IsEmpty() {
		t.Error("M1 and M2 classes should intersect (pfmul)")
	}
	if len(m.Elements) != 2 {
		t.Errorf("elements = %v", m.Elements)
	}
}

func TestParseSeqAndEquiv(t *testing.T) {
	src := `
declare {
    %reg r[0:7] (int, ptr);
    %reg d[0:3] (double);
    %equiv r[0] d[0];
    %resource EX;
}
cwvm {
    %general (int, ptr) r; %general (double) d;
    %allocable r[1:5]; %calleesave r[4:5];
    %sp r[7]; %fp r[6]; %retaddr r[1]; %hard r[0] 0;
}
instr {
    %move [s.mov] mov r, r {$1 = $2;} [EX] (1,1,0)
    %seq movd d, d (double) {$1 = $2;} = s.mov(lo($1), lo($2)); s.mov(hi($1), hi($2));
}
`
	m, err := Parse("seq", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	movd := m.InstrByLabel("movd")
	if movd == nil || len(movd.Seq) != 2 {
		t.Fatalf("movd seq = %+v", movd)
	}
	it := movd.Seq[0]
	if it.Instr == nil || it.Instr.Mnemonic != "mov" {
		t.Fatalf("seq item instr = %+v", it.Instr)
	}
	if it.Args[0].Kind != mach.SeqLoHalf || it.Args[1].Kind != mach.SeqLoHalf {
		t.Errorf("seq args = %+v", it.Args)
	}
	if movd.Seq[1].Args[0].Kind != mach.SeqHiHalf {
		t.Errorf("second item args = %+v", movd.Seq[1].Args)
	}

	// Equiv alias table: d0 overlaps r0 and r1.
	d := m.RegSet("d")
	r := m.RegSet("r")
	al := m.Aliases(d.Phys(0))
	if len(al) != 3 {
		t.Fatalf("aliases of d0 = %v", al)
	}
	if al[1] != r.Phys(0) || al[2] != r.Phys(1) {
		t.Errorf("d0 aliases = %v, want r0,r1", al)
	}
	al = m.Aliases(r.Phys(2))
	if len(al) != 2 || al[1] != d.Phys(1) {
		t.Errorf("r2 aliases = %v, want d1", al)
	}
}

// A machine numbers its physical registers densely in a mach.PhysID, so
// a description declaring more than the type can number is refused by
// name, not numbered modulo its range. Exactly mach.MaxPhys is accepted.
func TestTooManyPhysicalRegisters(t *testing.T) {
	desc := func(hi int) string {
		return fmt.Sprintf(`
declare { %%reg r[0:31] (int); %%reg x[0:%d] (int); %%resource A; }
cwvm { %%general (int) r; %%allocable r[0:1]; %%calleesave r[1:1];
       %%sp r[1]; %%fp r[1]; %%retaddr r[0]; }
instr { %%instr add r, r, r {$1 = $2 + $3;} [A] (1,1,0) }`, hi)
	}
	hi := mach.MaxPhys - 32 - 1 // x[0:hi] brings the total to MaxPhys
	m, err := Parse("wide", desc(hi))
	if err != nil {
		t.Fatalf("%d registers: %v", mach.MaxPhys, err)
	}
	if m.NumPhys != mach.MaxPhys {
		t.Fatalf("NumPhys = %d, want %d", m.NumPhys, mach.MaxPhys)
	}
	if last := m.RegSet("x").Phys(hi); int(last) != mach.MaxPhys-1 {
		t.Fatalf("last register numbered %d, want %d", last, mach.MaxPhys-1)
	}
	_, err = Parse("wider", desc(hi+1))
	if err == nil {
		t.Fatalf("%d registers accepted", mach.MaxPhys+1)
	}
	for _, want := range []string{"wider", fmt.Sprint(mach.MaxPhys + 1)} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}
