package verify

import (
	"slices"

	"marion/internal/asm"
)

// loc is the per-block state of one dataflow location, valid while its
// stamps equal the verifier's current block and word.
type loc struct {
	block int32 // stamp: the fields below describe this block
	idx   int32 // last writing instruction's index
	time  int32 // issue cycle of that write
	sched bool  // the writer carries a scheduler cycle (Cycle >= 0)
	// stamp: wordIdx wrote the location in this word
	word, wordIdx int32
}

// latchOwner remembers the live value of one +temporal latch set.
type latchOwner struct {
	block int32 // stamp: live while it equals the current block
	seq   int32 // sequence identity of the writer (asm.Inst.SeqID)
	idx   int   // writing instruction's index
	time  int   // issue cycle of the write
	lat   int   // writer's latency
}

// checkDataHazards replays a block's dataflow word by word and checks
// the latency, temporal-latch and same-word write invariants. Within a
// word all reads observe pre-word state and all writes commit at the
// end of the word (the machine's read-then-write phases), which is also
// what makes a same-word anti-dependence legal.
//
// Latency findings are restricted to producer/consumer pairs that BOTH
// carry scheduler cycles: the prologue/epilogue instructions inserted
// after scheduling (Cycle < 0) rely on hardware interlocks by design.
// Dependences never cross block boundaries (the scheduler's unit is the
// basic block; inter-block timing is the simulator's interlock
// problem), so all state resets per block: a new block stamp retires
// every location and latch at once.
func (v *verifier) checkDataHazards(bi int, b *asm.Block, times []int) {
	v.block++
	lastMem := -1 // time of the last memory-writing word, -1 if none

	for i, j := 0, 0; i < len(b.Insts); i = j {
		j = wordEnd(times, i)
		t := times[i]
		// Read phase: every use observes the state before this word.
		for k := i; k < j; k++ {
			in := b.Insts[k]
			for _, opIdx := range in.Tmpl.UseOps {
				o := in.Args[opIdx]
				if o.IsReg() {
					v.checkUse(bi, b, t, k, in, o)
				}
			}
			for _, p := range in.ImpUses() {
				v.checkUse(bi, b, t, k, in, asm.Phys(p))
			}
			for _, ts := range in.Tmpl.ReadsTRegs {
				ow := v.latches[slices.Index(v.m.RegSets, ts)]
				switch {
				case ow.block != v.block:
					v.addf(bi, k, t, kindTemporal,
						"%s reads latch set %s holding no live value (never written, or its clock ticked)",
						in.Tmpl.Mnemonic, ts.Name)
				case ow.seq != in.SeqID:
					v.addf(bi, k, t, kindTemporal,
						"%s (seq %d) reads latch set %s written by a different sequence (%s, seq %d)",
						in.Tmpl.Mnemonic, in.SeqID, ts.Name, b.Insts[ow.idx].Tmpl.Mnemonic, ow.seq)
				case t-ow.time < ow.lat:
					v.addf(bi, k, t, kindTemporal,
						"%s reads latch set %s %d cycle(s) after its write (latency %d)",
						in.Tmpl.Mnemonic, ts.Name, t-ow.time, ow.lat)
				}
			}
		}

		// Memory ordering: a store has latency 1 to every later memory
		// reference, so a scheduled memory reference listed after a
		// memory write in the same word is flagged ({st; ld}, {st; st}).
		// One listed before the write reads pre-word memory, a legal
		// anti-dependence ({ld; st}). Earlier words issue in earlier
		// cycles, so only a write of this word can match. Calls count as
		// both (the callee may read and write anything).
		for k := i; k < j; k++ {
			in := b.Insts[k]
			tm := in.Tmpl
			if !tm.ReadsMem && !tm.WritesMem && !tm.IsCall {
				continue
			}
			if in.Cycle >= 0 && lastMem >= 0 && t <= lastMem {
				v.addf(bi, k, t, kindLatency,
					"memory reference %s issues in the same cycle as an earlier memory write",
					tm.Mnemonic)
			}
			if (tm.WritesMem || tm.IsCall) && in.Cycle >= 0 {
				lastMem = t
			}
		}

		// Write phase: commit register defs, temporal-latch writes and
		// detect two writes to one location in a single word.
		v.word++
		for k := i; k < j; k++ {
			in := b.Insts[k]
			sched := in.Cycle >= 0
			for _, opIdx := range in.Tmpl.DefOps {
				o := in.Args[opIdx]
				if !o.IsReg() || v.isHardPhys(o) {
					continue
				}
				for _, key := range v.keys(o) {
					l := &v.locs[key]
					if l.word == v.word && sched && b.Insts[l.wordIdx].Cycle >= 0 {
						v.addf(bi, k, t, kindRegister,
							"%s and %s both write %s in one instruction word",
							b.Insts[l.wordIdx].Tmpl.Mnemonic, in.Tmpl.Mnemonic, v.regName(key))
					}
					*l = loc{block: v.block, idx: int32(k), time: int32(t), sched: sched, word: v.word, wordIdx: int32(k)}
				}
			}
			for _, p := range in.ImpDefs() {
				// Implicit defs (a call's clobber set) participate in
				// dependence tracking but not in the same-word
				// double-write check: they are a summary, not a write
				// port.
				for _, a := range v.m.Aliases(p) {
					l := &v.locs[a]
					l.block, l.idx, l.time, l.sched = v.block, int32(k), int32(t), sched
				}
			}
			for _, ts := range in.Tmpl.WritesTRegs {
				ow := &v.latches[slices.Index(v.m.RegSets, ts)]
				if ow.block == v.block && ow.time == t {
					v.addf(bi, k, t, kindTemporal,
						"%s and %s both write latch set %s in one instruction word",
						b.Insts[ow.idx].Tmpl.Mnemonic, in.Tmpl.Mnemonic, ts.Name)
				}
				*ow = latchOwner{block: v.block, seq: in.SeqID, idx: k, time: t, lat: in.Tmpl.Latency}
			}
		}

		// Clock advancement (EAP semantics): a word that advances clock
		// k shifts every latch clocked by k. A latch written this word
		// holds the new value; any other latch of that clock loses its
		// value — a later read of it is a use-after-advance.
		ticked := false
		for k := i; k < j; k++ {
			if ck := b.Insts[k].Tmpl.AffectsClock; ck >= 0 && ck < len(v.tickAt) {
				v.tickAt[ck] = int(v.word)
				ticked = true
			}
		}
		if ticked {
			for l, ts := range v.m.RegSets {
				ow := &v.latches[l]
				if ow.block == v.block && ts.Clock >= 0 && ts.Clock < len(v.tickAt) &&
					v.tickAt[ts.Clock] == int(v.word) && ow.time < t {
					ow.block = 0
				}
			}
		}
	}
}

// checkUse verifies one register read at cycle t against the last write
// of every location it observes.
func (v *verifier) checkUse(bi int, b *asm.Block, t, i int, in *asm.Inst, o asm.Operand) {
	if in.Cycle < 0 || v.isHardPhys(o) {
		return // reads of hard-wired registers carry no dependence
	}
	for _, k := range v.keys(o) {
		d := v.locs[k]
		if d.block != v.block || !d.sched {
			continue
		}
		prod := b.Insts[d.idx]
		lat := v.latencyOf(prod, in)
		if dist := t - int(d.time); dist < lat {
			v.addf(bi, i, t, kindLatency,
				"%s uses %s %d cycle(s) after %s writes it (latency %d)",
				in.Tmpl.Mnemonic, v.regName(k), dist, prod.Tmpl.Mnemonic, lat)
		}
	}
}
