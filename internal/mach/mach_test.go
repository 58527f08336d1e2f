package mach

import (
	"fmt"
	"testing"
	"testing/quick"

	"marion/internal/ir"
)

func TestResSet(t *testing.T) {
	var a, b ResSet
	a = 0b1010
	b = 0b0110
	if !a.intersects(b) {
		t.Error("should intersect")
	}
	if !a.Has(1) || a.Has(0) {
		t.Error("Has wrong")
	}
}

func TestClassSet(t *testing.T) {
	var a, b ClassSet
	a.Add(3)
	a.Add(100)
	b.Add(100)
	b.Add(200)
	if a.IsEmpty() {
		t.Error("non-empty set reported empty")
	}
	inter := a.Intersect(b)
	if !inter.Has(100) || inter.Has(3) || inter.Has(200) {
		t.Errorf("intersection wrong: %v", inter)
	}
	var e ClassSet
	if !e.IsEmpty() {
		t.Error("zero set not empty")
	}
}

// Property: ClassSet intersection is commutative and contained in both.
func TestClassSetIntersectProperty(t *testing.T) {
	f := func(xs, ys [6]uint8) bool {
		var a, b ClassSet
		for _, x := range xs {
			a.Add(int(x))
		}
		for _, y := range ys {
			b.Add(int(y))
		}
		ab := a.Intersect(b)
		ba := b.Intersect(a)
		if ab != ba {
			return false
		}
		for i := 0; i < 256; i++ {
			if ab.Has(i) && (!a.Has(i) || !b.Has(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// buildTestMachine constructs a small machine programmatically (no Maril).
func buildTestMachine(t *testing.T) *Machine {
	t.Helper()
	m := NewMachine("T")
	r := &RegSet{Name: "r", Lo: 0, Hi: 7, Types: []ir.Type{ir.I32, ir.Ptr}, Clock: -1}
	d := &RegSet{Name: "d", Lo: 0, Hi: 3, Types: []ir.Type{ir.F64}, Clock: -1}
	if err := m.AddRegSet(r); err != nil {
		t.Fatal(err)
	}
	if err := m.AddRegSet(d); err != nil {
		t.Fatal(err)
	}
	m.Equivs = append(m.Equivs, Equiv{Wide: d, Narrow: r, Ratio: 2})
	if err := m.AddResource("EX"); err != nil {
		t.Fatal(err)
	}
	m.Cwvm.General[ir.I32] = r
	m.Cwvm.General[ir.Ptr] = r
	m.Cwvm.General[ir.F64] = d
	m.Cwvm.Allocable = []RegRange{{Set: r, Lo: 2, Hi: 5}, {Set: d, Lo: 1, Hi: 2}}
	m.Cwvm.CalleeSave = []RegRange{{Set: r, Lo: 4, Hi: 5}}
	m.Cwvm.SP = RegRef{Set: r, Index: 7}
	m.Cwvm.FP = RegRef{Set: r, Index: 6}
	m.Cwvm.RetAddr = RegRef{Set: r, Index: 1}
	m.Cwvm.Hard = []HardReg{{Ref: RegRef{Set: r, Index: 0}, Value: 0}}
	m.Cwvm.Args = []ArgSpec{
		{Type: ir.I32, Ref: RegRef{Set: r, Index: 2}, Pos: 1},
		{Type: ir.I32, Ref: RegRef{Set: r, Index: 3}, Pos: 2},
		{Type: ir.F64, Ref: RegRef{Set: d, Index: 1}, Pos: 1},
	}
	add := &Instr{
		Mnemonic: "add",
		Operands: []OperandSpec{{Kind: OperandReg, Set: r}, {Kind: OperandReg, Set: r}, {Kind: OperandReg, Set: r}},
		Sem: &Sem{Kind: SemAssign, Kids: []*Sem{
			NewSemOperand(0),
			NewSemOp(ir.Add, NewSemOperand(1), NewSemOperand(2)),
		}},
		Res: [][]ResID{{0}}, Cost: 1, Latency: 1, AffectsClock: -1,
	}
	m.AddInstr(add)
	if err := m.Finalize(); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestFinalizeDerivedTables(t *testing.T) {
	m := buildTestMachine(t)
	if m.NumPhys != 12 {
		t.Errorf("NumPhys = %d", m.NumPhys)
	}
	r, d := m.RegSet("r"), m.RegSet("d")
	al := m.Aliases(d.Phys(1))
	if len(al) != 3 || al[1] != r.Phys(2) || al[2] != r.Phys(3) {
		t.Errorf("d1 aliases = %v", al)
	}
	add := m.InstrByLabel("add")
	if len(add.DefOps) != 1 || add.DefOps[0] != 0 || len(add.UseOps) != 2 {
		t.Errorf("def/use = %v %v", add.DefOps, add.UseOps)
	}
	if m.Nop == nil || m.Nop.Sem.Kind != SemEmpty {
		t.Error("nop not synthesized")
	}
	if m.PhysName(r.Phys(3)) != "r3" {
		t.Errorf("PhysName = %s", m.PhysName(r.Phys(3)))
	}
	if v, ok := m.IsHard(r.Phys(0)); !ok || v != 0 {
		t.Error("hard register lost")
	}
	// Only a parsed description text gives a machine an identity.
	if m.Fingerprint() != ([32]byte{}) {
		t.Error("Finalize fingerprinted a machine no description was parsed into")
	}
}

// TestAssignArgsSlotModel checks the collision case that motivated slot
// numbering: f(double, int) on a machine whose first double argument
// register overlays the first two int argument registers.
func TestAssignArgsSlotModel(t *testing.T) {
	m := buildTestMachine(t)
	r, d := m.RegSet("r"), m.RegSet("d")

	locs := m.Cwvm.AssignArgs([]ir.Type{ir.F64, ir.I32})
	if !locs[0].InReg || locs[0].Ref.Phys() != d.Phys(1) {
		t.Errorf("double arg = %+v", locs[0])
	}
	// The int must NOT land in r2 (the double's low half): slot 3 has no
	// %arg, so it goes to the stack.
	if locs[1].InReg {
		t.Errorf("int after double must not reuse overlapping registers: %+v", locs[1])
	}

	// f(int, int): both in registers.
	locs = m.Cwvm.AssignArgs([]ir.Type{ir.I32, ir.I32})
	if !locs[0].InReg || !locs[1].InReg || locs[0].Ref.Phys() != r.Phys(2) || locs[1].Ref.Phys() != r.Phys(3) {
		t.Errorf("int args = %+v", locs)
	}

	// f(int, double): double would start at slot 2; no %arg there and no
	// pad target, so it goes to the stack; the int keeps r2.
	locs = m.Cwvm.AssignArgs([]ir.Type{ir.I32, ir.F64})
	if !locs[0].InReg || locs[0].Ref.Phys() != r.Phys(2) {
		t.Errorf("leading int = %+v", locs[0])
	}
	if locs[1].InReg {
		t.Errorf("misaligned double should go to the stack: %+v", locs[1])
	}

	// Stack offsets are deterministic and aligned.
	locs = m.Cwvm.AssignArgs([]ir.Type{ir.I32, ir.I32, ir.I32, ir.F64})
	if locs[2].InReg || locs[3].InReg {
		t.Fatalf("expected stack args: %+v", locs)
	}
	if locs[3].StackOff%8 != 0 {
		t.Errorf("double stack arg misaligned at %d", locs[3].StackOff)
	}
}

func TestCallerSave(t *testing.T) {
	m := buildTestMachine(t)
	cs := m.CallerSave()
	// Allocable r2..r5, d1..d2 minus callee-save r4,r5: r2,r3,d1,d2.
	if len(cs) != 4 {
		t.Errorf("caller save = %v", cs)
	}
}

// TestAllocableIn checks the allocable registers of each set, their
// count, and that the slice is built in one allocation.
func TestAllocableIn(t *testing.T) {
	m := buildTestMachine(t)
	r, d := m.RegSet("r"), m.RegSet("d")
	for _, tc := range []struct {
		set  *RegSet
		want []PhysID
	}{
		{r, []PhysID{r.Phys(2), r.Phys(3), r.Phys(4), r.Phys(5)}},
		{d, []PhysID{d.Phys(1), d.Phys(2)}},
	} {
		got := m.AllocableIn(tc.set)
		if fmt.Sprint(got) != fmt.Sprint(tc.want) || m.NumAllocableIn(tc.set) != len(tc.want) {
			t.Errorf("%s: AllocableIn = %v, NumAllocableIn = %d; want %v", tc.set.Name, got, m.NumAllocableIn(tc.set), tc.want)
		}
		if n := testing.AllocsPerRun(10, func() { m.AllocableIn(tc.set) }); n != 1 {
			t.Errorf("%s: AllocableIn makes %v allocations, want 1", tc.set.Name, n)
		}
	}
}

func TestSemOperandRefs(t *testing.T) {
	// m[$2+$3] = $1
	s := &Sem{Kind: SemAssign, Kids: []*Sem{
		{Kind: SemMem, Kids: []*Sem{NewSemOp(ir.Add, NewSemOperand(1), NewSemOperand(2))}},
		NewSemOperand(0),
	}}
	defs, uses := s.operandRefs()
	if len(defs) != 0 {
		t.Errorf("store should have no reg defs: %v", defs)
	}
	if len(uses) != 3 {
		t.Errorf("store uses = %v", uses)
	}
}
