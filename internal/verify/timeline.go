package verify

import "marion/internal/asm"

// timeline groups a block's instructions into issue words and assigns
// each word a cycle, reconstructing the in-order issue timeline the
// machine sees. A word is a run of consecutive instructions with equal
// times.
//
// Scheduled instructions (Cycle >= 0) carry the scheduler's issue
// cycle: consecutive instructions with equal cycles form one word, and
// the gap between two scheduled words is the scheduler's cycle delta
// (preserving deliberate stall gaps, e.g. a load shadow left empty).
// Unscheduled instructions (Cycle < 0: the prologue/epilogue code
// internal/strategy/frame.go inserts after scheduling) each occupy a
// word of their own one cycle after their predecessor — they rely on
// hardware interlocks by design, and latency checks exempt them
// (checkDataHazards), but they still consume issue slots.
//
// A scheduled cycle that decreases along the block is reported as a
// malformed schedule.
func (v *verifier) timeline(bi int, b *asm.Block) []int {
	v.first[bi+1] = v.first[bi] + len(b.Insts)
	times := v.blockTimes(bi)
	t := -1
	prev := -1 // last scheduled cycle seen, -1 before the first
	for i := 0; i < len(b.Insts); {
		c := int(b.Insts[i].Cycle)
		j := i + 1
		if c >= 0 {
			for j < len(b.Insts) && int(b.Insts[j].Cycle) == c {
				j++
			}
		}
		switch {
		case c >= 0 && prev >= 0 && c > prev:
			t += c - prev
		case c >= 0 && prev >= 0 && c < prev:
			v.addf(bi, i, t+1, kindSchedule,
				"issue cycle %d follows cycle %d: block schedule is not nondecreasing", c, prev)
			t++
		default:
			t++
		}
		if c >= 0 {
			prev = c
		}
		for k := i; k < j; k++ {
			times[k] = t
		}
		i = j
	}
	return times
}

// blockTimes returns the issue cycles of block bi's instructions.
func (v *verifier) blockTimes(bi int) []int {
	return v.times[v.first[bi]:v.first[bi+1]]
}

// wordEnd returns one past the last instruction of the word starting at
// instruction i.
func wordEnd(times []int, i int) int {
	j := i + 1
	for j < len(times) && times[j] == times[i] {
		j++
	}
	return j
}
