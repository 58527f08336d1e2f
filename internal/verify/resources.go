package verify

import (
	"marion/internal/asm"
	"marion/internal/mach"
)

// checkResources replays every instruction's per-cycle resource vector
// over the block timeline and reports any cycle where a pipeline stage
// is claimed twice. It also re-checks long-instruction-word packing:
// every class-carrying instruction in a word must share at least one
// word element with the others (§4.5: the running intersection of
// nonempty classes must stay nonempty).
//
// In IssueOnly mode (the scheduler's CurrentCycleOnly ablation) only
// each instruction's issue-cycle resources are checked — later cycles
// of the vector are reserved but may legally collide, matching what
// the scheduler was asked to guarantee.
//
// Like the latency check, the replay covers only instructions that
// carry scheduler cycles: the prologue/epilogue code frame.go inserts
// afterwards (Cycle < 0, e.g. back-to-back callee-save ld.d restores
// whose MEMS cycles overlap on the 88000) was never hazard-checked and
// relies on the hardware's structural-hazard stalls by design.
func (v *verifier) checkResources(bi int, b *asm.Block, times []int) {
	// busy is a ring over the cycles a word's vectors can reach: no
	// vector is longer than it, so cycles before the word are retired.
	busy, past := v.busy, 0
	clear(busy)
	for i, j := 0, 0; i < len(b.Insts); i = j {
		j = wordEnd(times, i)
		t := times[i]
		for past = max(past, t-len(busy)); past < t; past++ {
			busy[past%len(busy)] = 0
		}
		for k := i; k < j; k++ {
			in := b.Insts[k]
			if in.Cycle < 0 {
				continue
			}
			for c, rs := range in.Tmpl.ResVec {
				if conflict := busy[(t+c)%len(busy)] & rs; conflict != 0 && (c == 0 || !v.opts.IssueOnly) {
					v.addf(bi, k, t, kindResource,
						"%s oversubscribes resource(s) %s at cycle %d",
						in.Tmpl.Mnemonic, v.resNames(conflict), t+c)
				}
				busy[(t+c)%len(busy)] |= rs
			}
		}

		if j-i < 2 {
			continue
		}
		// Long-word packing legality.
		var cls mach.ClassSet
		hasClass := false
		for k := i; k < j; k++ {
			c := b.Insts[k].Tmpl.Class
			if c.IsEmpty() {
				continue // not a long-word element; packs freely
			}
			if !hasClass {
				cls, hasClass = c, true
				continue
			}
			cls = cls.Intersect(c)
			if cls.IsEmpty() {
				v.addf(bi, k, t, kindResource,
					"%s cannot pack into this word: no common long-word element (%s)",
					b.Insts[k].Tmpl.Mnemonic, wordShape(b.Insts[i:j]))
				break
			}
		}
	}
}

// wordShape renders a word's mnemonics for a finding message.
func wordShape(word []*asm.Inst) string {
	s := word[0].Tmpl.Mnemonic
	for _, in := range word[1:] {
		s += "|" + in.Tmpl.Mnemonic
	}
	return s
}

// checkControl verifies delay-slot structure: at most one control
// transfer per word, and for a transfer with S delay slots the next S
// cycles must each hold a word consisting only of nops or slot-safe
// instructions. A missing word means the machine would execute
// whatever comes next (or the next block) inside the transfer's
// shadow. Negative slot counts are "taken only" (annulled) slots,
// where any non-nop would be skipped on fall-through, so only nops are
// legal there.
func (v *verifier) checkControl(bi int, b *asm.Block, times []int) {
	for i, j := 0, 0; i < len(b.Insts); i = j {
		j = wordEnd(times, i)
		first := -1
		for k := i; k < j; k++ {
			if !b.Insts[k].Tmpl.Transfers() {
				continue
			}
			if first >= 0 {
				v.addf(bi, k, times[k], kindControl,
					"%s shares an instruction word with control transfer %s",
					b.Insts[k].Tmpl.Mnemonic, b.Insts[first].Tmpl.Mnemonic)
				continue
			}
			first = k
			v.checkSlots(bi, b, times, k, j)
		}
	}
}

// checkSlots checks the delay slots of transfer ti, whose word ends
// before instruction next. Words issue in increasing cycles, so the word
// at each slot's cycle, if any, is the next one not yet passed.
func (v *verifier) checkSlots(bi int, b *asm.Block, times []int, ti, next int) {
	in := b.Insts[ti]
	slots := in.Tmpl.Slots
	annulled := slots < 0
	if annulled {
		slots = -slots
	}
	k := next
	for s := 1; s <= slots; s++ {
		at := times[ti] + s
		for k < len(times) && times[k] < at {
			k++
		}
		if k == len(times) || times[k] != at {
			v.addf(bi, ti, times[ti], kindControl,
				"delay slot %d of %s is missing: no instruction word at cycle %d",
				s, in.Tmpl.Mnemonic, at)
			continue
		}
		for ; k < len(times) && times[k] == at; k++ {
			sin := b.Insts[k]
			if sin.Tmpl == v.m.Nop {
				continue
			}
			switch {
			case sin.Tmpl.Transfers():
				v.addf(bi, k, at, kindControl,
					"control transfer %s sits in a delay slot of %s",
					sin.Tmpl.Mnemonic, in.Tmpl.Mnemonic)
			case annulled:
				v.addf(bi, k, at, kindControl,
					"%s sits in a taken-only (annulled) delay slot of %s: it is skipped on fall-through",
					sin.Tmpl.Mnemonic, in.Tmpl.Mnemonic)
			case !slotSafe(sin):
				v.addf(bi, k, at, kindControl,
					"%s is not safe in a delay slot of %s",
					sin.Tmpl.Mnemonic, in.Tmpl.Mnemonic)
			}
		}
	}
}

// slotSafe reports whether an instruction may legally occupy an
// always-executed delay slot: no control transfer, no implicit
// register traffic, and no temporal-pipeline interaction (a clock tick
// in a slot would advance latches the surrounding code depends on).
func slotSafe(in *asm.Inst) bool {
	t := in.Tmpl
	return !t.Transfers() &&
		len(in.ImpUses()) == 0 && len(in.ImpDefs()) == 0 &&
		len(t.ReadsTRegs) == 0 && len(t.WritesTRegs) == 0 &&
		t.AffectsClock < 0
}
