package asm

import "marion/internal/mach"

// RegKey is the one dense identity of a register for dependence,
// liveness and interference tracking: physical register p is key p
// (so keys [0, m.NumPhys) are physical), pseudo p is key m.NumPhys+p.
// internal/verify, the independent oracle, deliberately does not use it.
type RegKey int32

// physKey returns the key of a physical register.
func physKey(p mach.PhysID) RegKey { return RegKey(p) }

// PseudoKey returns the key of a pseudo-register on machine m.
func PseudoKey(m *mach.Machine, p PseudoID) RegKey { return RegKey(m.NumPhys) + RegKey(p) }

// IsPseudo reports whether k names a pseudo-register of machine m.
func (k RegKey) IsPseudo(m *mach.Machine) bool { return int(k) >= m.NumPhys }

// Pseudo returns the pseudo k names (k.IsPseudo(m) must hold).
func (k RegKey) Pseudo(m *mach.Machine) PseudoID { return PseudoID(int(k) - m.NumPhys) }

// Phys returns the physical register k names (!k.IsPseudo(m) must hold).
func (k RegKey) Phys() mach.PhysID { return mach.PhysID(k) }

// Effects walks the registers one side of an instruction — its defs or
// its uses — touches: the template's DefOps/UseOps register operands,
// then the implicit effects (call argument registers, clobber sets).
// A physical register is yielded once per %equiv alias, itself first,
// so consumers never expand aliases themselves. The walk allocates
// nothing:
//
//	for e := in.RegUses(m); e.Next(); {
//		... e.Key, e.Op, e.Half, e.Hard ...
//	}
//
// What a consumer makes of an effect is its own policy (cdag treats a
// half def as a def only, liveness as def+use; cdag and the simulator's
// scoreboard skip hard-wired reads); the traversal is stated only here.
type Effects struct {
	// Key is the register touched.
	Key RegKey
	// Op is the template operand index, or -1 for an implicit effect.
	Op int
	// Half marks a lo/hi half operand of a wide pseudo: a def through it
	// preserves the other half of the register.
	Half bool
	// Hard marks a register wired to a constant (reads of it carry no
	// dependence).
	Hard bool

	m   *mach.Machine
	in  *Inst
	ops []int         // template operands still to visit
	imp []mach.PhysID // implicit registers still to visit
	al  []mach.PhysID // aliases of the current physical register still to yield
}

// RegDefs walks the registers in writes.
func (in *Inst) RegDefs(m *mach.Machine) Effects {
	return Effects{m: m, in: in, ops: in.Tmpl.DefOps, imp: in.ImpDefs()}
}

// RegUses walks the registers in reads.
func (in *Inst) RegUses(m *mach.Machine) Effects {
	return Effects{m: m, in: in, ops: in.Tmpl.UseOps, imp: in.ImpUses()}
}

// Next advances to the next effect; it returns false when the walk is
// done.
func (e *Effects) Next() bool {
	for len(e.al) == 0 {
		var p mach.PhysID
		switch {
		case len(e.ops) > 0:
			e.Op, e.ops = e.ops[0], e.ops[1:]
			a := e.in.Args[e.Op]
			switch a.Kind {
			case OpPseudo, OpPseudoHalf:
				e.Key = PseudoKey(e.m, a.Pseudo)
				e.Half, e.Hard = a.Kind == OpPseudoHalf, false
				return true
			case OpPhys:
				p = a.Phys
			default:
				continue
			}
		case len(e.imp) > 0:
			e.Op = -1
			p, e.imp = e.imp[0], e.imp[1:]
		default:
			return false
		}
		e.al = e.m.Aliases(p)
		e.Half = false
		_, e.Hard = e.m.IsHard(p)
	}
	e.Key, e.al = physKey(e.al[0]), e.al[1:]
	return true
}

// PseudoHomes is the cross-block pseudo analysis: for every pseudo of
// f, home is the first block whose instructions mention it (nil when
// none does) and cross reports whether a second block mentions it too.
// Both lists come from f's arena when it has one.
func (f *Func) PseudoHomes() (home []*Block, cross []bool) {
	if n := len(f.Pseudos); f.code != nil && n > 0 {
		home, cross = f.code.blockLists.CarveN(n), f.code.bools.CarveN(n)
	} else {
		home, cross = make([]*Block, n), make([]bool, n)
	}
	for _, b := range f.Blocks {
		for _, in := range b.Insts {
			for _, a := range in.Args {
				if a.Kind != OpPseudo && a.Kind != OpPseudoHalf {
					continue
				}
				if hb := home[a.Pseudo]; hb == nil {
					home[a.Pseudo] = b
				} else if hb != b {
					cross[a.Pseudo] = true
				}
			}
		}
	}
	return home, cross
}
