// Package mach defines the compiled machine model: the tables the code
// generator generator derives from a Maril description. Everything the
// selector, scheduler, register allocator and simulator know about a
// target comes from a *Machine.
package mach

import (
	"fmt"
	"math"

	"marion/internal/ir"
)

// ResID identifies a processor resource (pipeline stage, bus, ...).
type ResID int

// ResSet is a bitmask over a machine's resources. A machine may declare at
// most 64 resources.
type ResSet uint64

// Has reports whether r contains resource id.
func (r ResSet) Has(id ResID) bool { return r&(1<<uint(id)) != 0 }

// intersects reports whether two resource sets share a resource.
func (r ResSet) intersects(o ResSet) bool { return r&o != 0 }

// ClassSet is a bitmask over a machine's long-instruction-word elements
// (the "class elements" of §4.5). Up to 256 elements are supported.
type ClassSet [4]uint64

// IsEmpty reports whether the class set has no elements.
func (c ClassSet) IsEmpty() bool { return c == ClassSet{} }

// Intersect returns the elementwise intersection.
func (c ClassSet) Intersect(o ClassSet) ClassSet {
	for i := range c {
		c[i] &= o[i]
	}
	return c
}

// Add inserts element id into the set.
func (c *ClassSet) Add(id int) { c[id/64] |= 1 << uint(id%64) }

// Has reports whether element id is in the set.
func (c ClassSet) Has(id int) bool { return c[id/64]&(1<<uint(id%64)) != 0 }

// PhysID is a dense index over all physical registers of a machine.
type PhysID int16

// NoPhys means "no physical register".
const NoPhys PhysID = -1

// maxPhys is the most physical registers a machine may declare: every
// PhysID from 0 to maxPhys-1 fits the type.
const maxPhys = math.MaxInt16 + 1

// RegSet is an array of registers declared with %reg.
type RegSet struct {
	Name  string
	Lo    int // lowest index
	Hi    int // highest index (inclusive)
	Types []ir.Type

	// Temporal registers are EAP latches whose value changes when their
	// clock ticks (+temporal). They are always scalar.
	Temporal bool
	Clock    int // clock index, or -1

	// PhysBase is the dense PhysID of register [Lo]; assigned by Finalize.
	PhysBase PhysID

	// Size is the register size in bytes, inferred from the largest type.
	Size int
}

// Count returns the number of registers in the set.
func (rs *RegSet) Count() int { return rs.Hi - rs.Lo + 1 }

// Phys returns the dense PhysID of register index i of the set.
func (rs *RegSet) Phys(i int) PhysID { return rs.PhysBase + PhysID(i-rs.Lo) }

// holds reports whether the set can hold values of type t.
func (rs *RegSet) holds(t ir.Type) bool {
	for _, ty := range rs.Types {
		if ty == t {
			return true
		}
	}
	return false
}

// HoldsLoose reports whether the set can hold a value of IL type t,
// treating narrow integers and pointers as int-width. It is the one
// answer for both readers of an operand's register set: the glue
// transformer (xform) and the selector.
func (rs *RegSet) HoldsLoose(t ir.Type) bool {
	if rs.holds(t) {
		return true
	}
	switch t {
	case ir.I8, ir.I16, ir.U32, ir.Ptr:
		return rs.holds(ir.I32) || rs.holds(ir.Ptr)
	case ir.I32:
		return rs.holds(ir.Ptr)
	}
	return false
}

// RegRef names one register: a set plus an index within the set.
type RegRef struct {
	Set   *RegSet
	Index int
}

// Valid reports whether the reference names a register.
func (r RegRef) Valid() bool { return r.Set != nil }

// Phys returns the dense PhysID of the referenced register.
func (r RegRef) Phys() PhysID { return r.Set.Phys(r.Index) }

func (r RegRef) String() string {
	if r.Set == nil {
		return "<noreg>"
	}
	return fmt.Sprintf("%s[%d]", r.Set.Name, r.Index)
}

// RegRange is a contiguous range of registers within one set.
type RegRange struct {
	Set    *RegSet
	Lo, Hi int
}

// Equiv records that registers of set Wide overlay registers of set
// Narrow: Wide[WideBase+k] covers Narrow[NarrowBase+k*Ratio .. +Ratio-1].
type Equiv struct {
	Wide, Narrow         *RegSet
	WideBase, NarrowBase int
	Ratio                int
}

// ImmDef is an immediate operand range declared with %def.
type ImmDef struct {
	Name   string
	Lo, Hi int64
	Flags  []string
}

// Fits reports whether constant v fits the range.
func (d *ImmDef) Fits(v int64) bool { return v >= d.Lo && v <= d.Hi }

// LabelDef is a branch-offset operand declared with %label.
type LabelDef struct {
	Name     string
	Lo, Hi   int64
	Relative bool
}

// MemDef is a memory bank declared with %memory.
type MemDef struct {
	Name   string
	Lo, Hi int64
}

// OperandKind classifies an instruction operand.
type OperandKind uint8

const (
	OperandReg      OperandKind = iota // any register of Set
	OperandFixedReg                    // the specific register Set[Index]
	OperandImm                         // immediate in Def's range
	OperandLabel                       // branch target / function symbol
)

// OperandSpec describes one formal operand of an instruction template (or
// one metavariable of a glue rule).
type OperandSpec struct {
	Kind  OperandKind
	Set   *RegSet
	Index int // OperandFixedReg
	Def   *ImmDef
	Lab   *LabelDef
}

// Phys returns the physical register of an OperandFixedReg spec.
func (o OperandSpec) Phys() PhysID { return o.Set.Phys(o.Index) }

func (o OperandSpec) String() string {
	switch o.Kind {
	case OperandReg:
		return o.Set.Name
	case OperandFixedReg:
		return fmt.Sprintf("%s[%d]", o.Set.Name, o.Index)
	case OperandImm:
		return "#" + o.Def.Name
	case OperandLabel:
		return "#" + o.Lab.Name
	}
	return "?"
}

// SeqItem is one step of a %seq expansion: an instruction reference (by
// label or mnemonic) plus argument wiring from the enclosing pattern's
// operands.
type SeqItem struct {
	InstrName string // label in [brackets] or mnemonic
	Instr     *Instr // resolved by Finalize
	Args      []SeqArg
}

// SeqArgKind says how a %seq argument is derived.
type SeqArgKind uint8

const (
	SeqOperand SeqArgKind = iota // pattern operand $n as-is
	SeqLoHalf                    // lo($n): low overlapping narrow register
	SeqHiHalf                    // hi($n): high overlapping narrow register
	SeqConst                     // integer literal
)

// SeqArg is one actual argument of a SeqItem.
type SeqArg struct {
	Kind  SeqArgKind
	OpIdx int // 0-based pattern operand
	IVal  int64
}

// Instr is one machine instruction template (%instr, %move, %seq).
type Instr struct {
	Index    int
	Mnemonic string
	Label    string // optional [tag] used by %seq to reference it

	Operands []OperandSpec
	// TypeConstraint restricts matching to IL nodes of this type
	// (ir.Void means unconstrained).
	TypeConstraint ir.Type
	// AffectsClock is the clock this instruction advances, or -1.
	AffectsClock int

	Sem *Sem // executable semantics

	Res    [][]ResID // per-cycle resource needs (cycle 0 = issue)
	ResVec []ResSet  // same, as bitmasks; built by Finalize

	Cost    int // 0 marks zero-cost dummy instructions
	Latency int // cycles before the result may be used
	Slots   int // delay slots (+: always executed, -: taken only)

	Move bool // %move: register-to-register move template
	Seq  []SeqItem

	Class ClassSet // long-word elements this op may appear in (packing)

	// Derived by Finalize:
	DefOps      []int // operand indices written
	UseOps      []int // operand indices read
	ReadsTRegs  []*RegSet
	WritesTRegs []*RegSet
	ReadsMem    bool
	WritesMem   bool
	IsBranch    bool // conditional branch
	IsJump      bool
	IsCall      bool
	IsRet       bool
	// BranchOp is the operand index holding the target label (branch,
	// jump, call), or -1.
	BranchOp int
}

// Transfers reports whether the instruction transfers control.
func (i *Instr) Transfers() bool { return i.IsBranch || i.IsJump || i.IsCall || i.IsRet }

func (i *Instr) String() string { return i.Mnemonic }

// AuxLat overrides the latency of an edge between two specific
// instructions when the named operands refer to the same register (%aux).
type AuxLat struct {
	First, Second       string // mnemonics
	FirstOp, SecondOp   int    // 1-based operand indices compared for equality
	Latency             int
	FirstIdx, SecondIdx int // resolved instruction indices; -1 if unresolved
}

// GlueGuard is an optional condition on a glue rule: fits($n, def).
type GlueGuard struct {
	Negate bool
	OpIdx  int // 0-based metavariable
	Def    *ImmDef
}

// GlueRule is a tree-to-tree IL transformation applied before selection.
type GlueRule struct {
	Operands []OperandSpec
	LHS, RHS *Sem
	Guard    *GlueGuard
}

// HardReg is a register wired to a constant value (%hard).
type HardReg struct {
	Ref   RegRef
	Value int64
}

// ArgSpec binds the n'th parameter of a given type class to a register.
type ArgSpec struct {
	Type ir.Type
	Ref  RegRef
	Pos  int // 1-based position among parameters
}

// ResultSpec binds function results of a type to a register.
type ResultSpec struct {
	Ref  RegRef
	Type ir.Type
}

// Cwvm is the Compiler Writer's Virtual Machine: the runtime model.
type Cwvm struct {
	General    map[ir.Type]*RegSet
	Allocable  []RegRange
	CalleeSave []RegRange
	SP, FP     RegRef
	RetAddr    RegRef
	GlobalPtr  RegRef // optional
	Hard       []HardReg
	Args       []ArgSpec
	Results    []ResultSpec
	// StackArgOffset is where the first stack-resident argument lives
	// relative to the incoming SP.
	StackArgOffset int
}

// GeneralSet returns the general-purpose set holding type t, or nil.
func (c *Cwvm) GeneralSet(t ir.Type) *RegSet {
	if s, ok := c.General[t]; ok {
		return s
	}
	// Integers of narrower widths live in the int set.
	if t.IsInt() {
		if s, ok := c.General[ir.I32]; ok {
			return s
		}
	}
	return nil
}

// ResultFor returns the result register for values of type t.
func (c *Cwvm) ResultFor(t ir.Type) (RegRef, bool) {
	for _, r := range c.Results {
		if r.Type == t || (r.Type.IsInt() && t.IsInt()) {
			return r.Ref, true
		}
	}
	return RegRef{}, false
}

// ArgLoc is where one parameter lives: an argument register or an
// offset in the incoming-argument stack area.
type ArgLoc struct {
	InReg    bool
	Ref      RegRef
	StackOff int
}

// AssignArgs maps a parameter type list to argument locations using
// 4-byte SLOT numbering: each parameter consumes ceil(size/4) slots and
// an %arg directive's position names the slot it starts at. Slot
// numbering makes conventions whose double-argument registers overlay the
// integer-argument registers (TOYP, the 88000 pairs) collision-free:
// f(double, int) puts the double in slots 1-2 and the int in slot 3.
func (c *Cwvm) AssignArgs(types []ir.Type) []ArgLoc {
	find := func(class ir.Type, slot int) *ArgSpec {
		for i := range c.Args {
			a := &c.Args[i]
			ac := a.Type
			if !ac.IsFloat() {
				ac = ir.I32
			}
			if ac == class && a.Pos == slot {
				return a
			}
		}
		return nil
	}
	out := make([]ArgLoc, len(types))
	slot := 1
	stackOff := c.StackArgOffset
	for i, t := range types {
		class := t
		if !t.IsFloat() {
			class = ir.I32
		}
		slots := 1
		if t.Size() == 8 {
			slots = 2
		}
		spec := find(class, slot)
		if spec == nil && slots == 2 {
			// Alignment padding: a double may start at the next slot.
			if spec = find(class, slot+1); spec != nil {
				slot++
			}
		}
		if spec != nil {
			out[i] = ArgLoc{InReg: true, Ref: spec.Ref}
			slot += slots
			continue
		}
		size := t.Size()
		if size < 4 {
			size = 4
		}
		if stackOff%size != 0 {
			stackOff += size - stackOff%size
		}
		out[i] = ArgLoc{StackOff: stackOff}
		stackOff += size
		slot += slots
	}
	return out
}

// Machine is the complete compiled machine model.
type Machine struct {
	Name string

	RegSets   []*RegSet
	Equivs    []Equiv
	Resources []string
	Defs      []*ImmDef
	Labels    []*LabelDef
	Memories  []*MemDef
	Clocks    []string
	Elements  []string // long-instruction-word element names

	Instrs  []*Instr
	AuxLats []*AuxLat
	Glues   []*GlueRule
	Cwvm    Cwvm

	// Nop is the instruction used to fill delay slots; synthesized by
	// Finalize if the description does not declare one.
	Nop *Instr

	// Derived tables:
	NumPhys  int
	aliasTab [][]PhysID // per PhysID: overlapping PhysIDs (incl. self)
	selIdx   *selIndex  // operator-indexed template tables (selindex.go)
	// fingerprint is the digest of the description text (see Fingerprint).
	fingerprint [32]byte

	regSetByName map[string]*RegSet
	resByName    map[string]ResID
	defByName    map[string]*ImmDef
	labByName    map[string]*LabelDef
	memByName    map[string]*MemDef
	clockByName  map[string]int
	elemByName   map[string]int
	instrByLabel map[string]*Instr
	mnemonics    map[string]struct{} // every template's Mnemonic
}

// RegSet returns the register set with the given name, or nil.
func (m *Machine) RegSet(name string) *RegSet { return m.regSetByName[name] }

// Resource returns the id of the named resource.
func (m *Machine) Resource(name string) (ResID, bool) {
	id, ok := m.resByName[name]
	return id, ok
}

// Def returns the named immediate definition, or nil.
func (m *Machine) Def(name string) *ImmDef { return m.defByName[name] }

// LabelDef returns the named label definition, or nil.
func (m *Machine) LabelDef(name string) *LabelDef { return m.labByName[name] }

// Memory returns the named memory bank, or nil.
func (m *Machine) Memory(name string) *MemDef { return m.memByName[name] }

// Clock returns the index of the named clock, or -1.
func (m *Machine) Clock(name string) int {
	if i, ok := m.clockByName[name]; ok {
		return i
	}
	return -1
}

// Element returns the index of the named long-word element, creating it if
// needed.
func (m *Machine) Element(name string) int {
	if m.elemByName == nil {
		m.elemByName = map[string]int{}
	}
	if i, ok := m.elemByName[name]; ok {
		return i
	}
	i := len(m.Elements)
	m.Elements = append(m.Elements, name)
	m.elemByName[name] = i
	return i
}

// InstrByLabel returns the instruction with the given [label] tag, or the
// first instruction with the given mnemonic.
func (m *Machine) InstrByLabel(name string) *Instr {
	if in, ok := m.instrByLabel[name]; ok {
		return in
	}
	for _, in := range m.Instrs {
		if in.Mnemonic == name {
			return in
		}
	}
	return nil
}

// HasMnemonic reports whether some template of the finalized machine
// prints as name.
func (m *Machine) HasMnemonic(name []byte) bool {
	_, ok := m.mnemonics[string(name)]
	return ok
}

// Aliases returns every physical register overlapping p, including p.
func (m *Machine) Aliases(p PhysID) []PhysID { return m.aliasTab[p] }

// PhysName returns a printable name for a physical register.
func (m *Machine) PhysName(p PhysID) string {
	for _, rs := range m.RegSets {
		if p >= rs.PhysBase && p < rs.PhysBase+PhysID(rs.Count()) {
			return fmt.Sprintf("%s%d", rs.Name, rs.Lo+int(p-rs.PhysBase))
		}
	}
	return fmt.Sprintf("p%d", p)
}

// PhysRef returns the RegRef of a physical register.
func (m *Machine) PhysRef(p PhysID) RegRef {
	for _, rs := range m.RegSets {
		if p >= rs.PhysBase && p < rs.PhysBase+PhysID(rs.Count()) {
			return RegRef{Set: rs, Index: rs.Lo + int(p-rs.PhysBase)}
		}
	}
	return RegRef{}
}

// IsHard reports whether a physical register is wired to a constant, and
// if so its value.
func (m *Machine) IsHard(p PhysID) (int64, bool) {
	for _, h := range m.Cwvm.Hard {
		if h.Ref.Phys() == p {
			return h.Value, true
		}
	}
	return 0, false
}

// CallerSave returns the allocable registers NOT in the callee-save set —
// i.e. the registers a call clobbers.
func (m *Machine) CallerSave() []PhysID {
	save := map[PhysID]bool{}
	for _, rr := range m.Cwvm.CalleeSave {
		for i := rr.Lo; i <= rr.Hi; i++ {
			save[rr.Set.Phys(i)] = true
		}
	}
	var out []PhysID
	for _, rr := range m.Cwvm.Allocable {
		for i := rr.Lo; i <= rr.Hi; i++ {
			p := rr.Set.Phys(i)
			if !save[p] {
				out = append(out, p)
			}
		}
	}
	return out
}

// NumAllocableIn returns the number of allocable physical registers
// belonging to set rs.
func (m *Machine) NumAllocableIn(rs *RegSet) int {
	n := 0
	for _, rr := range m.Cwvm.Allocable {
		if rr.Set == rs {
			n += max(rr.Hi-rr.Lo+1, 0)
		}
	}
	return n
}

// AllocableIn returns the allocable physical registers belonging to set
// rs, in a fresh slice the caller may reorder.
func (m *Machine) AllocableIn(rs *RegSet) []PhysID {
	out := make([]PhysID, 0, m.NumAllocableIn(rs))
	for _, rr := range m.Cwvm.Allocable {
		if rr.Set == rs {
			for i := rr.Lo; i <= rr.Hi; i++ {
				out = append(out, rr.Set.Phys(i))
			}
		}
	}
	return out
}
