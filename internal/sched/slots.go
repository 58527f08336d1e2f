package sched

import (
	"marion/internal/asm"
	"marion/internal/mach"
)

// FillDelaySlots is the separate post-scheduling pass the paper points
// to (§4.4, after Gross & Hennessy): Marion itself always fills branch
// delay slots with nops; this optional pass replaces those nops with
// safe instructions hoisted from above the transfer in the same block.
// It returns the number of slots filled.
//
// An instruction X may move from before transfer B into B's
// always-executed delay slot when:
//
//   - B's slots are always executed (negative %slots counts are
//     taken-only: an instruction hoisted there would be annulled on
//     fall-through, so only nops are legal);
//   - X transfers nothing itself, touches no temporal latches, ticks
//     no clock, and has no implicit register effects;
//   - no instruction between X and the slot reads or writes X's
//     definitions, or writes X's uses (moving X past them is then a
//     no-op for intra-block dataflow);
//   - memory ordering is preserved (a load may not move past a store or
//     call; a store past any memory reference);
//   - B neither reads nor writes any register X defines (B's operands
//     are consumed at issue, before the slot executes — but keeping the
//     condition conservative costs little);
//   - X's resource vector, replayed from the slot cycle, claims no
//     pipeline stage an instruction staying put already holds;
//   - X is not itself in some other transfer's delay slot.
func FillDelaySlots(m *mach.Machine, af *asm.Func) int {
	filled := 0
	for _, b := range af.Blocks {
		filled += fillBlock(m, b)
	}
	return filled
}

// overlap reports whether two (unstarted) register walks name a common
// register: physical registers meet through their aliases, a half
// operand stands for its whole wide pseudo, and implicit effects count.
func overlap(a, b asm.Effects) bool {
	for a.Next() {
		for w := b; w.Next(); {
			if w.Key == a.Key {
				return true
			}
		}
	}
	return false
}

// slotResourceFree reports whether x's resource vector, replayed from
// the slot's cycle, stays disjoint from every instruction that is not
// moving. Latency-1 instructions with long vectors (a divider held for
// several cycles, say) can otherwise collide with a predecessor the
// scheduler had carefully spaced. x's old claim and the replaced nop's
// both vacate, so neither is counted.
func slotResourceFree(b *asm.Block, x, slot *asm.Inst) bool {
	for _, y := range b.Insts {
		if y == x || y == slot || y.Cycle < 0 {
			continue
		}
		for cx, rx := range x.Tmpl.ResVec {
			for cy, ry := range y.Tmpl.ResVec {
				if int(slot.Cycle)+cx == int(y.Cycle)+cy && rx&ry != 0 {
					return false
				}
			}
		}
	}
	return true
}

func fillBlock(m *mach.Machine, b *asm.Block) int {
	filled := 0
	// Find transfers followed by nop slots.
	for bi := 0; bi < len(b.Insts); bi++ {
		tr := b.Insts[bi]
		if !tr.Tmpl.Transfers() {
			continue
		}
		slots := tr.Tmpl.Slots
		if slots < 0 {
			// Taken-only (annulled) slots: anything hoisted from above
			// the branch would be skipped on fall-through, losing its
			// computation. Only the nops the scheduler placed are legal.
			continue
		}
		for s := 1; s <= slots && bi+s < len(b.Insts); s++ {
			slot := b.Insts[bi+s]
			if slot.Tmpl != m.Nop {
				continue // already useful (or filled)
			}
			// Search backward for a movable instruction.
			for ci := bi - 1; ci >= 0; ci-- {
				x := b.Insts[ci]
				t := x.Tmpl
				if t.Transfers() || t == m.Nop ||
					len(x.ImpDefs()) > 0 || len(x.ImpUses()) > 0 ||
					len(t.ReadsTRegs) > 0 || len(t.WritesTRegs) > 0 ||
					t.AffectsClock >= 0 {
					// Stop at other transfers entirely: everything above
					// them belongs to their region (and may sit in their
					// delay slots).
					if t.Transfers() {
						ci = -1
					}
					continue
				}
				if overlap(x.RegDefs(m), tr.RegUses(m)) {
					continue
				}
				ok := true
				for mi := ci + 1; mi <= bi+s; mi++ {
					mid := b.Insts[mi]
					if mid == slot {
						continue
					}
					if overlap(mid.RegDefs(m), x.RegDefs(m)) || overlap(mid.RegUses(m), x.RegDefs(m)) ||
						overlap(mid.RegDefs(m), x.RegUses(m)) {
						ok = false
						break
					}
					// Memory ordering.
					if t.ReadsMem && (mid.Tmpl.WritesMem || mid.Tmpl.IsCall) {
						ok = false
						break
					}
					if t.WritesMem && (mid.Tmpl.ReadsMem || mid.Tmpl.WritesMem || mid.Tmpl.IsCall) {
						ok = false
						break
					}
				}
				if !ok || !slotResourceFree(b, x, slot) {
					continue
				}
				// Move x into the slot: remove x from its old position
				// (everything after shifts down one) and let it replace
				// the nop, which disappears.
				copy(b.Insts[ci:], b.Insts[ci+1:])
				b.Insts = b.Insts[:len(b.Insts)-1]
				x.Cycle = slot.Cycle
				b.Insts[bi+s-1] = x
				bi-- // the transfer shifted down by one
				filled++
				break
			}
		}
	}
	// Recompute the block cost from the final cycles.
	maxCycle := 0
	for _, in := range b.Insts {
		maxCycle = max(maxCycle, int(in.Cycle))
	}
	if len(b.Insts) > 0 {
		b.SchedCost = maxCycle + 1
	}
	return filled
}
