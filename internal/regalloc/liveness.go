// Package regalloc implements Marion's global register allocator: graph
// coloring in the style of Chaitin with Briggs' optimistic improvement
// (paper §2.2). Interference is computed from the instruction order
// presented to the allocator; register pairs (%equiv overlaps) and
// precolored physical registers are handled through alias sets.
//
// Every table is dense and sized to the function: liveness is one bitset
// row over asm.RegKey per block, interference is Chaitin's pair of a
// triangular bit matrix (test-and-set) and per-node adjacency vectors
// (iteration), and simplification keeps weighted degrees incrementally.
// DESIGN.md §5 "Allocator data structures and tie-breaks" states the
// layout and the choices that reach the output.
package regalloc

import (
	"math/bits"

	"marion/internal/asm"
	"marion/internal/mach"
)

// bitset is a fixed-size set of small non-negative integers.
type bitset []uint64

// words is the length of a bitset over [0, n).
func words(n int) int { return (n + 63) >> 6 }

func (s bitset) has(i int) bool { return s[i>>6]&(1<<(uint(i)&63)) != 0 }
func (s bitset) set(i int)      { s[i>>6] |= 1 << (uint(i) & 63) }
func (s bitset) clear(i int)    { s[i>>6] &^= 1 << (uint(i) & 63) }

// next returns the smallest member that is at least i, or -1.
func (s bitset) next(i int) int {
	for w := i >> 6; w < len(s); w++ {
		word := s[w]
		if w == i>>6 {
			word &^= 1<<(uint(i)&63) - 1
		}
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

func (s bitset) count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// liveSet is a bitset indexed by asm.RegKey: one bit per physical
// register (aliasing handled at interference time) or pseudo.
type liveSet = bitset

// step moves live backward across one instruction: defs die, uses are
// born. A def through a half operand is also a use (a partial write
// preserves the other half).
func (live liveSet) step(m *mach.Machine, in *asm.Inst) {
	for d := in.RegDefs(m); d.Next(); {
		if !d.Half {
			live.clear(int(d.Key))
		}
	}
	for u := in.RegUses(m); u.Next(); {
		live.set(int(u.Key))
	}
}

// liveness fills the per-block live-out rows by iterative backward
// dataflow over the CFG. Rows only grow from empty towards the least
// fixpoint, so a block's live-in is recomputed only when its live-out
// gained a register.
func (a *allocator) liveness() {
	af := a.af
	for first, changed := true, true; changed; first = false {
		changed = false
		for i := len(af.Blocks) - 1; i >= 0; i-- {
			b := af.Blocks[i]
			out, grew := a.liveOut(i), first
			for _, s := range a.succ[a.succStart[i]:a.succStart[i+1]] {
				for w, v := range a.liveIn(int(s)) {
					if v&^out[w] != 0 {
						out[w] |= v
						grew = true
					}
				}
			}
			if !grew {
				continue
			}
			copy(a.live, out)
			for j := len(b.Insts) - 1; j >= 0; j-- {
				a.live.step(a.m, b.Insts[j])
			}
			in := a.liveIn(i)
			for w, v := range a.live {
				if v != in[w] {
					in[w] = v
					changed = true
				}
			}
		}
	}
}
