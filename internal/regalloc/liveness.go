// Package regalloc implements Marion's global register allocator: graph
// coloring in the style of Chaitin with Briggs' optimistic improvement
// (paper §2.2). Interference is computed from the instruction order
// presented to the allocator; register pairs (%equiv overlaps) and
// precolored physical registers are handled through alias sets.
package regalloc

import (
	"marion/internal/asm"
	"marion/internal/mach"
)

// liveSet is keyed by asm.RegKey: one key per physical register
// (aliasing handled at interference time) or pseudo. Every range over
// one is a set copy, union or comparison, so map order cannot reach the
// allocation.
type liveSet map[asm.RegKey]bool

// step moves live backward across one instruction: defs die, uses are
// born. A def through a half operand is also a use (a partial write
// preserves the other half).
func (live liveSet) step(m *mach.Machine, in *asm.Inst) {
	for d := in.RegDefs(m); d.Next(); {
		if !d.Half {
			delete(live, d.Key)
		}
	}
	for u := in.RegUses(m); u.Next(); {
		live[u.Key] = true
	}
}

// liveness computes live-out sets per block by iterative backward
// dataflow over the CFG.
func liveness(m *mach.Machine, af *asm.Func) map[*asm.Block]liveSet {
	liveIn := map[*asm.Block]liveSet{}
	liveOut := map[*asm.Block]liveSet{}
	for _, b := range af.Blocks {
		liveIn[b] = liveSet{}
		liveOut[b] = liveSet{}
	}
	// Map IR blocks to asm blocks for successor lookup.
	byIR := map[interface{}]*asm.Block{}
	for _, b := range af.Blocks {
		byIR[b.IR] = b
	}
	changed := true
	for changed {
		changed = false
		for i := len(af.Blocks) - 1; i >= 0; i-- {
			b := af.Blocks[i]
			out := liveSet{}
			for _, s := range b.IR.Succs {
				if sb := byIR[s]; sb != nil {
					for k := range liveIn[sb] {
						out[k] = true
					}
				}
			}
			in := liveSet{}
			for k := range out {
				in[k] = true
			}
			for j := len(b.Insts) - 1; j >= 0; j-- {
				in.step(m, b.Insts[j])
			}
			if !sameSet(out, liveOut[b]) || !sameSet(in, liveIn[b]) {
				changed = true
			}
			liveOut[b] = out
			liveIn[b] = in
		}
	}
	return liveOut
}

func sameSet(a, b liveSet) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}
