package mach

import (
	"fmt"

	"marion/internal/ir"
)

// NewMachine returns an empty machine ready for the description front end
// to populate.
func NewMachine(name string) *Machine {
	return &Machine{
		Name:         name,
		regSetByName: map[string]*RegSet{},
		resByName:    map[string]ResID{},
		defByName:    map[string]*ImmDef{},
		labByName:    map[string]*LabelDef{},
		memByName:    map[string]*MemDef{},
		clockByName:  map[string]int{},
		elemByName:   map[string]int{},
		instrByLabel: map[string]*Instr{},
		Cwvm:         Cwvm{General: map[ir.Type]*RegSet{}},
	}
}

// AddRegSet registers a new register set.
func (m *Machine) AddRegSet(rs *RegSet) error {
	if m.regSetByName[rs.Name] != nil {
		return fmt.Errorf("register set %q redeclared", rs.Name)
	}
	rs.Size = 4
	for _, t := range rs.Types {
		if t.Size() > rs.Size {
			rs.Size = t.Size()
		}
	}
	m.RegSets = append(m.RegSets, rs)
	m.regSetByName[rs.Name] = rs
	return nil
}

// AddResource registers a processor resource.
func (m *Machine) AddResource(name string) error {
	if _, ok := m.resByName[name]; ok {
		return fmt.Errorf("resource %q redeclared", name)
	}
	if len(m.Resources) >= 64 {
		return fmt.Errorf("too many resources (max 64)")
	}
	m.resByName[name] = ResID(len(m.Resources))
	m.Resources = append(m.Resources, name)
	return nil
}

// AddDef registers an immediate range.
func (m *Machine) AddDef(d *ImmDef) error {
	if m.defByName[d.Name] != nil {
		return fmt.Errorf("%%def %q redeclared", d.Name)
	}
	m.Defs = append(m.Defs, d)
	m.defByName[d.Name] = d
	return nil
}

// AddLabel registers a label (branch offset) definition.
func (m *Machine) AddLabel(l *LabelDef) error {
	if m.labByName[l.Name] != nil {
		return fmt.Errorf("%%label %q redeclared", l.Name)
	}
	m.Labels = append(m.Labels, l)
	m.labByName[l.Name] = l
	return nil
}

// AddMemory registers a memory bank.
func (m *Machine) AddMemory(d *MemDef) error {
	if m.memByName[d.Name] != nil {
		return fmt.Errorf("%%memory %q redeclared", d.Name)
	}
	m.Memories = append(m.Memories, d)
	m.memByName[d.Name] = d
	return nil
}

// AddClock registers an EAP clock and returns its index.
func (m *Machine) AddClock(name string) (int, error) {
	if _, ok := m.clockByName[name]; ok {
		return 0, fmt.Errorf("%%clock %q redeclared", name)
	}
	i := len(m.Clocks)
	m.Clocks = append(m.Clocks, name)
	m.clockByName[name] = i
	return i, nil
}

// AddInstr appends an instruction template, preserving description order
// (which is the pattern-match priority order).
func (m *Machine) AddInstr(in *Instr) {
	in.Index = len(m.Instrs)
	m.Instrs = append(m.Instrs, in)
	if in.Label != "" {
		m.instrByLabel[in.Label] = in
	}
}

// Finalize computes all derived tables and validates the machine. It must
// be called once, after the description has been fully loaded.
func (m *Machine) Finalize() error {
	if len(m.Instrs) == 0 {
		return fmt.Errorf("machine %s declares no instructions", m.Name)
	}
	// Dense physical register numbering.
	m.NumPhys = 0
	for _, rs := range m.RegSets {
		m.NumPhys += rs.Count()
	}
	if m.NumPhys > MaxPhys {
		return fmt.Errorf("machine %s declares %d physical registers; a PhysID numbers at most %d",
			m.Name, m.NumPhys, MaxPhys)
	}
	base := 0
	for _, rs := range m.RegSets {
		rs.PhysBase = PhysID(base)
		base += rs.Count()
	}

	// Alias table from register overlaps.
	m.aliasTab = make([][]PhysID, m.NumPhys)
	for p := 0; p < m.NumPhys; p++ {
		m.aliasTab[p] = []PhysID{PhysID(p)}
	}
	for _, eq := range m.Equivs {
		if eq.Ratio < 1 {
			return fmt.Errorf("%%equiv %s/%s: bad ratio %d", eq.Wide.Name, eq.Narrow.Name, eq.Ratio)
		}
		for k := 0; ; k++ {
			wi := eq.WideBase + k
			if wi > eq.Wide.Hi {
				break
			}
			wp := eq.Wide.Phys(wi)
			for j := 0; j < eq.Ratio; j++ {
				ni := eq.NarrowBase + k*eq.Ratio + j
				if ni > eq.Narrow.Hi {
					break
				}
				np := eq.Narrow.Phys(ni)
				m.aliasTab[wp] = append(m.aliasTab[wp], np)
				m.aliasTab[np] = append(m.aliasTab[np], wp)
			}
		}
	}

	for _, in := range m.Instrs {
		if err := m.finalizeInstr(in); err != nil {
			return fmt.Errorf("instruction %s: %w", in.Mnemonic, err)
		}
	}

	// Resolve %seq items.
	for _, in := range m.Instrs {
		for i := range in.Seq {
			it := &in.Seq[i]
			it.Instr = m.InstrByLabel(it.InstrName)
			if it.Instr == nil {
				return fmt.Errorf("%%seq %s: unknown instruction %q", in.Mnemonic, it.InstrName)
			}
			if len(it.Args) != len(it.Instr.Operands) {
				return fmt.Errorf("%%seq %s: %s wants %d operands, got %d",
					in.Mnemonic, it.InstrName, len(it.Instr.Operands), len(it.Args))
			}
		}
	}

	// Resolve auxiliary latencies (validated by mnemonic existence only;
	// matching happens per-pair at DAG build time).
	for _, a := range m.AuxLats {
		a.FirstIdx, a.SecondIdx = -1, -1
		for _, in := range m.Instrs {
			if in.Mnemonic == a.First && a.FirstIdx < 0 {
				a.FirstIdx = in.Index
			}
			if in.Mnemonic == a.Second && a.SecondIdx < 0 {
				a.SecondIdx = in.Index
			}
		}
		if a.FirstIdx < 0 || a.SecondIdx < 0 {
			return fmt.Errorf("%%aux %s : %s: unknown mnemonic", a.First, a.Second)
		}
	}

	// Nop for delay slots.
	if m.Nop = m.InstrByLabel("nop"); m.Nop == nil {
		nop := &Instr{
			Mnemonic: "nop",
			Sem:      &Sem{Kind: SemEmpty},
			Cost:     1,
			Latency:  1,
		}
		m.AddInstr(nop)
		if err := m.finalizeInstr(nop); err != nil {
			return err
		}
		m.Nop = nop
	}

	// Selection fast path: bucket the templates by matchable root
	// operator so the selector only iterates plausible candidates.
	m.buildSelIndex()

	m.mnemonics = make(map[string]struct{}, len(m.Instrs))
	for _, in := range m.Instrs {
		m.mnemonics[in.Mnemonic] = struct{}{}
	}

	return m.validate()
}

func (m *Machine) finalizeInstr(in *Instr) error {
	// Resource bitmasks.
	in.ResVec = make([]ResSet, len(in.Res))
	for c, cyc := range in.Res {
		var set ResSet
		for _, r := range cyc {
			if int(r) >= len(m.Resources) {
				return fmt.Errorf("bad resource id %d", r)
			}
			set |= 1 << uint(r)
		}
		in.ResVec[c] = set
	}
	if in.Latency < 0 {
		return fmt.Errorf("negative latency")
	}
	if in.Latency == 0 {
		in.Latency = 1 // a result is never available in the issue cycle
	}
	if in.AffectsClock == 0 && len(m.Clocks) == 0 {
		in.AffectsClock = -1
	}

	in.BranchOp = -1
	if in.Sem == nil {
		in.Sem = &Sem{Kind: SemEmpty}
	}
	s := in.Sem
	in.DefOps, in.UseOps = s.OperandRefs()
	switch s.Kind {
	case SemIfGoto:
		in.IsBranch = true
		in.BranchOp = s.OpIdx
	case SemGoto:
		in.IsJump = true
		in.BranchOp = s.OpIdx
	case SemCall:
		in.IsCall = true
		in.BranchOp = s.OpIdx
	case SemCallReg:
		in.IsCall = true
	case SemRet:
		in.IsRet = true
	}

	// Temporal register and memory access classification.
	addSet := func(list []*RegSet, rs *RegSet) []*RegSet {
		for _, x := range list {
			if x == rs {
				return list
			}
		}
		return append(list, rs)
	}
	var scan func(n *Sem, lvalue bool)
	scan = func(n *Sem, lvalue bool) {
		if n == nil {
			return
		}
		switch n.Kind {
		case SemTReg:
			if lvalue {
				in.WritesTRegs = addSet(in.WritesTRegs, n.TReg)
			} else {
				in.ReadsTRegs = addSet(in.ReadsTRegs, n.TReg)
			}
		case SemMem:
			if lvalue {
				in.WritesMem = true
			} else {
				in.ReadsMem = true
			}
			scan(n.Kids[0], false)
			return
		case SemAssign:
			scan(n.Kids[0], true)
			scan(n.Kids[1], false)
			return
		}
		for _, k := range n.Kids {
			scan(k, lvalue && n.Kind != SemOp && n.Kind != SemCvt)
		}
	}
	scan(s, false)

	// Operand index sanity.
	maxOp := len(in.Operands)
	bad := -1
	s.Walk(func(n *Sem) {
		if n.Kind == SemOperand && n.OpIdx >= maxOp {
			bad = n.OpIdx
		}
	})
	if bad >= 0 {
		return fmt.Errorf("semantics reference $%d but only %d operands", bad+1, maxOp)
	}
	if in.BranchOp >= maxOp {
		return fmt.Errorf("branch target $%d out of range", in.BranchOp+1)
	}
	return nil
}

func (m *Machine) validate() error {
	c := &m.Cwvm
	if len(m.Instrs) == 0 {
		return fmt.Errorf("machine %s declares no instructions", m.Name)
	}
	if !c.SP.Valid() {
		return fmt.Errorf("cwvm: no %%sp declared")
	}
	if !c.FP.Valid() {
		return fmt.Errorf("cwvm: no %%fp declared")
	}
	if !c.RetAddr.Valid() {
		return fmt.Errorf("cwvm: no %%retaddr declared")
	}
	if len(c.Allocable) == 0 {
		return fmt.Errorf("cwvm: no %%allocable registers")
	}
	for _, rr := range c.Allocable {
		if rr.Lo < rr.Set.Lo || rr.Hi > rr.Set.Hi {
			return fmt.Errorf("cwvm: allocable range %s[%d:%d] out of bounds", rr.Set.Name, rr.Lo, rr.Hi)
		}
	}
	for t, rs := range c.General {
		if !rs.Holds(t) {
			return fmt.Errorf("cwvm: %%general set %s cannot hold %s", rs.Name, t)
		}
	}
	return nil
}

// Stats summarizes a description, for Table 1.
type Stats struct {
	RegSets, Resources, Defs, Labels, Memories int
	Clocks, Elements                           int
	Instrs, Moves, Seqs                        int
	AuxLats, Glues                             int
	Classes                                    int // instructions carrying a packing class
}

// Stat computes description statistics.
func (m *Machine) Stat() Stats {
	s := Stats{
		RegSets: len(m.RegSets), Resources: len(m.Resources),
		Defs: len(m.Defs), Labels: len(m.Labels), Memories: len(m.Memories),
		Clocks: len(m.Clocks), Elements: len(m.Elements),
		AuxLats: len(m.AuxLats), Glues: len(m.Glues),
	}
	for _, in := range m.Instrs {
		switch {
		case len(in.Seq) > 0:
			s.Seqs++
		case in.Move:
			s.Moves++
		default:
			s.Instrs++
		}
		if !in.Class.IsEmpty() {
			s.Classes++
		}
	}
	return s
}
