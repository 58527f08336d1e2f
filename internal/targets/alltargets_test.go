package targets

import (
	"slices"
	"testing"

	"marion/internal/ir"
	"marion/internal/mach"
	"marion/internal/maril"
)

func TestLoadAllTargets(t *testing.T) {
	for _, name := range []string{"toyp", "r2000", "r2000s", "m88000", "i860", "rs6000"} {
		t.Run(name, func(t *testing.T) {
			m, info, err := LoadInfo(name)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			if len(m.Instrs) < 20 {
				t.Errorf("only %d instructions", len(m.Instrs))
			}
			if info.TotalLines == 0 {
				t.Error("no line info")
			}
			if m.Cwvm.GeneralSet(ir.I32) == nil || m.Cwvm.GeneralSet(ir.F64) == nil {
				t.Error("missing general sets")
			}
		})
	}
}

func TestI860Features(t *testing.T) {
	m, err := Load("i860")
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Clocks) != 2 {
		t.Errorf("clocks = %v", m.Clocks)
	}
	if len(m.Elements) != 3 { // pfmul, m12apm, pfadd
		t.Errorf("elements = %v", m.Elements)
	}
	st := m.Stat()
	if st.Classes == 0 || st.Seqs != 5 {
		t.Errorf("stats = %+v", st)
	}
	m1 := m.InstrByLabel("m1")
	if m1.AffectsClock != m.Clock("clk_m") {
		t.Error("m1 clock wrong")
	}
	if len(m1.WritesTRegs) != 1 || !m1.WritesTRegs[0].Temporal {
		t.Error("m1 latch write missing")
	}
	a1m := m.InstrByLabel("a1m")
	if len(a1m.ReadsTRegs) != 1 || a1m.ReadsTRegs[0].Name != "mr3" {
		t.Errorf("a1m chaining read = %v", a1m.ReadsTRegs)
	}
	// m-ops and a-ops pack only via the dual-operation word.
	a2 := m.InstrByLabel("a2")
	m2 := m.InstrByLabel("m2")
	inter := a2.Class.Intersect(m2.Class)
	if inter.IsEmpty() {
		t.Error("a2/m2 should share m12apm")
	}
}

func TestRS6000MultiIssue(t *testing.T) {
	m, err := Load("rs6000")
	if err != nil {
		t.Fatal(err)
	}
	// Branch, fixed point and floating point instructions use disjoint
	// resources: the scheduler can issue one of each per cycle.
	br := m.InstrByLabel("beq0")
	fx := m.InstrByLabel("cax")
	fp := m.InstrByLabel("fa")
	if br.ResVec[0]&fx.ResVec[0] != 0 || fx.ResVec[0]&fp.ResVec[0] != 0 ||
		br.ResVec[0]&fp.ResVec[0] != 0 {
		t.Error("functional units share resources; multi-issue impossible")
	}
	if br.Slots != 0 {
		t.Errorf("RS/6000 branches have no delay slots, got %d", br.Slots)
	}
}

func TestM88000Pairs(t *testing.T) {
	m, err := Load("m88000")
	if err != nil {
		t.Fatal(err)
	}
	d := m.RegSet("d")
	r := m.RegSet("r")
	al := m.Aliases(d.Phys(3))
	if len(al) != 3 || al[1] != r.Phys(6) || al[2] != r.Phys(7) {
		t.Errorf("d3 aliases = %v (want r6,r7)", al)
	}
	movd := m.InstrByLabel("movd")
	if movd == nil || len(movd.Seq) != 2 {
		t.Error("movd seq directive missing")
	}
	if len(m.AuxLats) != 2 {
		t.Errorf("aux lats = %d", len(m.AuxLats))
	}
}

// narrowLoose is the answer the glue transformer's private copy of
// HoldsLoose used to give: int-width leniency through an int set only,
// where the selector's copy also went through a pointer-only set.
func narrowLoose(rs *mach.RegSet, t ir.Type) bool {
	if slices.Contains(rs.Types, t) {
		return true
	}
	switch t {
	case ir.I8, ir.I16, ir.U32, ir.Ptr:
		return slices.Contains(rs.Types, ir.I32)
	}
	return false
}

var ilTypes = []ir.Type{ir.Void, ir.I8, ir.I16, ir.I32, ir.U32, ir.F32, ir.F64, ir.Ptr}

// TestHoldsLooseShippedSets pins that on every register set of every
// shipped target the two former copies agree, so folding them into
// RegSet.HoldsLoose changed no glue or selection decision.
func TestHoldsLooseShippedSets(t *testing.T) {
	for _, name := range Names() {
		m, err := Load(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, rs := range m.RegSets {
			for _, ty := range ilTypes {
				if got, want := rs.HoldsLoose(ty), narrowLoose(rs, ty); got != want {
					t.Errorf("%s %s: HoldsLoose(%s) = %v, the glue copy said %v", name, rs.Name, ty, got, want)
				}
			}
		}
	}
}

// TestHoldsLoosePointerOnlySet is the description on which the copies
// disagreed: an address-register set that holds only ptr. The selector
// took int-width values there and the glue transformer declined them;
// the one HoldsLoose takes them.
func TestHoldsLoosePointerOnlySet(t *testing.T) {
	m, err := maril.Parse("addrregs", `
declare {
    %reg r[0:3] (int);
    %reg a[0:3] (ptr);
    %resource EX;
    %memory m[0:1000];
}
cwvm {
    %general (int) r; %general (ptr) a;
    %allocable r[1:2]; %calleesave r[2:2];
    %sp r[3]; %fp r[3]; %retaddr r[0];
}
instr {
    %instr add r, r, r {$1 = $2 + $3;} [EX] (1,1,0)
}
`)
	if err != nil {
		t.Fatal(err)
	}
	a := m.RegSet("a")
	for _, ty := range []ir.Type{ir.I8, ir.I16, ir.I32, ir.U32, ir.Ptr} {
		if !a.HoldsLoose(ty) {
			t.Errorf("a: HoldsLoose(%s) = false", ty)
		}
		if ty != ir.Ptr && narrowLoose(a, ty) {
			t.Errorf("a: the glue copy already took %s; the test lost its point", ty)
		}
	}
	for _, ty := range []ir.Type{ir.Void, ir.F32, ir.F64} {
		if a.HoldsLoose(ty) {
			t.Errorf("a: HoldsLoose(%s) = true", ty)
		}
	}
	if r := m.RegSet("r"); !r.HoldsLoose(ir.Ptr) || r.HoldsLoose(ir.F64) {
		t.Error("r: int set must take ptr and refuse double")
	}
}
