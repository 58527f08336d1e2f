package verify

import (
	"slices"

	"marion/internal/asm"
	"marion/internal/mach"
)

// Mutations seed known-bad edits into a verified-clean function, one
// per invariant class, for differential testing of the verifier: each
// helper returns whether it found a site to break. They are exported to
// the external test package.

// BreakLatency moves a data-dependent consumer into its producer's
// latency shadow: it finds a producer with latency >= 2 whose consumer
// issues with slack, and whose shadow cycle is empty, then reissues the
// consumer there. The only invariant this violates is the latency one
// (kindLatency).
func BreakLatency(m *mach.Machine, af *asm.Func) bool {
	for _, b := range af.Blocks {
		for i, prod := range b.Insts {
			if prod.Cycle < 0 || prod.Tmpl.Latency < 2 || prod.Tmpl.Transfers() {
				continue
			}
			target := prod.Cycle + 1
			if slices.ContainsFunc(b.Insts, func(in *asm.Inst) bool { return in.Cycle == target }) {
				continue
			}
			for _, dOp := range prod.Tmpl.DefOps {
				d := prod.Args[dOp]
				if d.Kind != asm.OpPhys {
					continue
				}
				if j := findConsumer(b, i, d.Phys, prod.Tmpl.Latency); j >= 0 {
					moveTo(b, j, target)
					return true
				}
			}
		}
	}
	return false
}

// findConsumer returns the index of an instruction after i that reads
// register p (with at least lat cycles of slack, so moving it earlier
// creates a violation), stopping at the next write of p. Transfers are
// skipped as move candidates.
func findConsumer(b *asm.Block, i int, p mach.PhysID, lat int) int {
	prod := b.Insts[i]
	for j := i + 1; j < len(b.Insts); j++ {
		in := b.Insts[j]
		if in.Cycle < 0 {
			continue
		}
		uses := false
		for _, uOp := range in.Tmpl.UseOps {
			if o := in.Args[uOp]; o.Kind == asm.OpPhys && o.Phys == p {
				uses = true
			}
		}
		if uses && !in.Tmpl.Transfers() && int(in.Cycle-prod.Cycle) >= lat {
			return j
		}
		for _, dOp := range in.Tmpl.DefOps {
			if o := in.Args[dOp]; o.Kind == asm.OpPhys && o.Phys == p {
				return -1
			}
		}
		if uses {
			return -1
		}
	}
	return -1
}

// moveTo reissues instruction j at the given cycle, repositioning it so
// block order stays cycle-sorted.
func moveTo(b *asm.Block, j int, cycle int32) {
	in := b.Insts[j]
	b.Insts = slices.Delete(b.Insts, j, j+1)
	in.Cycle = cycle
	at := slices.IndexFunc(b.Insts, func(o *asm.Inst) bool { return o.Cycle > cycle })
	if at < 0 {
		at = len(b.Insts)
	}
	b.Insts = slices.Insert(b.Insts, at, in)
}

// DeleteDelaySlotNop removes the first nop sitting in a control
// transfer's delay slot, leaving the transfer's shadow to swallow
// whatever instruction follows (kindControl).
func DeleteDelaySlotNop(m *mach.Machine, af *asm.Func) bool {
	for _, b := range af.Blocks {
		for i, in := range b.Insts {
			if !in.Tmpl.Transfers() || in.Tmpl.Slots == 0 {
				continue
			}
			for j := i + 1; j < len(b.Insts); j++ {
				if b.Insts[j].Tmpl == m.Nop {
					b.Insts = append(b.Insts[:j], b.Insts[j+1:]...)
					return true
				}
			}
		}
	}
	return false
}

// MergeIllegalPair packs two adjacent, independent instruction words
// into one even though their issue resources collide: the scheduler's
// structural-hazard rule in reverse (kindResource). It never breaks the
// packing-class rule alone; TestDisjointClassesCannotPack does.
func MergeIllegalPair(m *mach.Machine, af *asm.Func) bool {
	for _, b := range af.Blocks {
		for i := 0; i+1 < len(b.Insts); i++ {
			a, bb := b.Insts[i], b.Insts[i+1]
			if a.Cycle < 0 || bb.Cycle != a.Cycle+1 {
				continue
			}
			if a.Tmpl.Transfers() || bb.Tmpl.Transfers() || a.Tmpl == m.Nop || bb.Tmpl == m.Nop {
				continue
			}
			if len(a.Tmpl.ResVec) == 0 || len(bb.Tmpl.ResVec) == 0 ||
				a.Tmpl.ResVec[0]&bb.Tmpl.ResVec[0] == 0 {
				continue
			}
			if dependent(a, bb) {
				continue
			}
			bb.Cycle = a.Cycle
			return true
		}
	}
	return false
}

// dependent reports whether b reads a register a writes (merging such a
// pair would violate latency too; the mutation wants a pure resource
// violation).
func dependent(a, b *asm.Inst) bool {
	for _, dOp := range a.Tmpl.DefOps {
		d := a.Args[dOp]
		if d.Kind != asm.OpPhys {
			continue
		}
		for _, uOp := range b.Tmpl.UseOps {
			if o := b.Args[uOp]; o.Kind == asm.OpPhys && o.Phys == d.Phys {
				return true
			}
		}
	}
	return false
}

// ReassignRegister retargets a definition onto a callee-save register
// the function never saved: the classic allocator bug of handing out a
// register without spilling the caller's value (kindRegister).
func ReassignRegister(m *mach.Machine, af *asm.Func) bool {
	saved := map[mach.PhysID]bool{}
	for _, p := range af.CalleeSaved {
		for _, a := range m.Aliases(p) {
			saved[a] = true
		}
	}
	for _, b := range af.Blocks {
		for _, in := range b.Insts {
			if in.Cycle < 0 || in.Tmpl.Transfers() {
				continue
			}
			for _, dOp := range in.Tmpl.DefOps {
				o := in.Args[dOp]
				if o.Kind != asm.OpPhys {
					continue
				}
				set := m.PhysRef(o.Phys).Set
				if set == nil {
					continue
				}
				for _, rr := range m.Cwvm.CalleeSave {
					if rr.Set != set {
						continue
					}
					for ri := rr.Hi; ri >= rr.Lo; ri-- {
						q := rr.Set.Phys(ri)
						if q != o.Phys && !saved[q] {
							in.Args[dOp] = asm.Phys(q)
							return true
						}
					}
				}
			}
		}
	}
	return false
}

// CorruptSequence rewires one temporal-latch reader to a fresh sequence
// identity, breaking the %seq pairing the scheduler must preserve — as
// if the scheduler had interleaved two pipelined sequences' latches
// (kindTemporal).
func CorruptSequence(m *mach.Machine, af *asm.Func) bool {
	for _, b := range af.Blocks {
		for _, in := range b.Insts {
			if in.Cycle >= 0 && in.SeqID != 0 && len(in.Tmpl.ReadsTRegs) > 0 {
				in.SeqID = af.NewSeqID()
				return true
			}
		}
	}
	return false
}
