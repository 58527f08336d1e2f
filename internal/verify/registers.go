package verify

import (
	"marion/internal/asm"
	"marion/internal/ir"
	"marion/internal/mach"
)

// bitset is a dense set over physical register ids.
type bitset []uint64

func (s bitset) has(i int) bool { return s[i/64]&(1<<uint(i%64)) != 0 }
func (s bitset) set(i int)      { s[i/64] |= 1 << uint(i%64) }
func (s bitset) clear(i int)    { s[i/64] &^= 1 << uint(i%64) }

func (s bitset) fill() {
	for i := range s {
		s[i] = ^uint64(0)
	}
}

// intersectWith intersects in place and reports whether s changed.
func (s bitset) intersectWith(o bitset) bool {
	changed := false
	for i := range s {
		n := s[i] & o[i]
		if n != s[i] {
			s[i], changed = n, true
		}
	}
	return changed
}

// unionWith unions in place and reports whether s changed.
func (s bitset) unionWith(o bitset) bool {
	changed := false
	for i := range s {
		n := s[i] | o[i]
		if n != s[i] {
			s[i], changed = n, true
		}
	}
	return changed
}

// sets is a run of equally sized bitsets in one slice.
type sets struct {
	w     int // words per set
	words []uint64
}

func (ss sets) at(i int) bitset { return bitset(ss.words[i*ss.w : (i+1)*ss.w : (i+1)*ss.w]) }

// newSets carves n empty sets over the physical registers off the
// call's bitset slab.
func (v *verifier) newSets(n int) sets {
	ss := sets{w: (v.m.NumPhys + 63) / 64}
	ss.words, v.bits = v.bits[:n*ss.w], v.bits[n*ss.w:]
	return ss
}

func (v *verifier) newSet() bitset { return v.newSets(1).at(0) }

// buildCFG maps the IR successor edges onto block indices (succs). It
// reports false for a hand-built function without CFG info.
func (v *verifier) buildCFG() bool {
	v.blockAt = ir.KeepMap(v.blockAt)
	idx := v.blockAt
	for bi, b := range v.af.Blocks {
		if b.IR == nil {
			return false
		}
		idx[b.IR] = bi
	}
	n := 0
	for bi, b := range v.af.Blocks {
		v.succAt[bi] = n
		for _, s := range b.IR.Succs {
			if si, ok := idx[s]; ok {
				v.succ[n] = si
				n++
			}
		}
	}
	v.succAt[len(v.af.Blocks)] = n
	return true
}

func (v *verifier) succs(bi int) []int { return v.succ[v.succAt[bi]:v.succAt[bi+1]] }

// markAliased sets a register and every register overlapping it.
func (v *verifier) markAliased(s bitset, p mach.PhysID) {
	for _, a := range v.m.Aliases(p) {
		s.set(int(a))
	}
}

// entryDefined adds to s the registers that legitimately hold a value
// on function entry: the stack/frame/return-address/global registers,
// hard-wired registers, the callee-save set (the caller's values — the
// function may read them only after saving, but "defined" they are),
// and the argument registers this function's signature binds.
func (v *verifier) entryDefined(s bitset) {
	c := &v.m.Cwvm
	for _, ref := range [...]mach.RegRef{c.SP, c.FP, c.RetAddr, c.GlobalPtr} {
		if ref.Valid() {
			v.markAliased(s, ref.Phys())
		}
	}
	for _, h := range c.Hard {
		v.markAliased(s, h.Ref.Phys())
	}
	for _, rr := range c.CalleeSave {
		for i := rr.Lo; i <= rr.Hi; i++ {
			v.markAliased(s, rr.Set.Phys(i))
		}
	}
	if fn := v.af.IR; fn != nil && len(fn.Params) > 0 {
		var buf [8]ir.Type
		types := buf[:0]
		for _, sym := range fn.Params {
			types = append(types, sym.Type)
		}
		for _, arg := range c.AssignArgs(types) {
			if arg.InReg {
				v.markAliased(s, arg.Ref.Phys())
			}
		}
	}
}

// genKill returns every block's upward-exposed uses and its defs over
// physical registers, alias-expanded on both sides (matching the
// allocator's own liveness model).
func (v *verifier) genKill() (use, def sets) {
	use, def = v.newSets(len(v.af.Blocks)), v.newSets(len(v.af.Blocks))
	for bi, b := range v.af.Blocks {
		u, d := use.at(bi), def.at(bi)
		for _, in := range b.Insts {
			v.instUses(in, func(p mach.PhysID) {
				for _, a := range v.m.Aliases(p) {
					if !d.has(int(a)) {
						u.set(int(a))
					}
				}
			})
			v.instDefs(in, func(p mach.PhysID) {
				v.markAliased(d, p)
			})
		}
	}
	return use, def
}

// checkDefiniteAssignment proves no instruction reads a physical
// register that some path to it never wrote: a forward must-analysis
// (intersection over predecessors) over the emitted code. This
// validates the allocator end to end — a wrong coloring, a lost spill
// reload or a miswired entry move all surface as a read of a register
// no prior instruction (on some path) defined. A block's transfer
// function only adds registers, so its out-set is its in-set plus def.
func (v *verifier) checkDefiniteAssignment(def sets) {
	ins, out := v.newSets(len(v.af.Blocks)), v.newSet()
	v.entryDefined(ins.at(0))
	for bi := 1; bi < len(v.af.Blocks); bi++ {
		ins.at(bi).fill() // top: refined by intersection
	}
	for changed := true; changed; {
		changed = false
		for bi := range v.af.Blocks {
			copy(out, ins.at(bi))
			out.unionWith(def.at(bi))
			for _, si := range v.succs(bi) {
				if ins.at(si).intersectWith(out) {
					changed = true
				}
			}
		}
	}
	for bi := range v.af.Blocks {
		copy(out, ins.at(bi))
		v.daFlow(bi, out)
	}
}

// daFlow runs the definite-assignment transfer function over one block,
// word-phased (reads in a word observe pre-word state), and reports
// uses of possibly-undefined registers.
func (v *verifier) daFlow(bi int, s bitset) {
	b := v.af.Blocks[bi]
	times := v.blockTimes(bi)
	for i, j := 0, 0; i < len(b.Insts); i = j {
		j = wordEnd(times, i)
		for k := i; k < j; k++ {
			v.instUses(b.Insts[k], func(p mach.PhysID) {
				if _, hard := v.m.IsHard(p); !hard && !s.has(int(p)) {
					v.addf(bi, k, times[k], kindRegister,
						"%s reads %s, which is not written on every path to this point",
						b.Insts[k].Tmpl.Mnemonic, v.m.PhysName(p))
				}
			})
		}
		for k := i; k < j; k++ {
			v.instDefs(b.Insts[k], func(p mach.PhysID) { v.markAliased(s, p) })
		}
	}
}

// checkClobbers runs a backward liveness pass over the emitted code and
// checks that no call clobbers a live non-result value — the
// caller-save discipline the allocator must maintain.
func (v *verifier) checkClobbers(use, def sets) {
	if len(v.snapAt) == 0 {
		return // no call with a clobber set (alloc sizes snapAt by them)
	}
	n := len(v.af.Blocks)
	liveIn, liveOut := v.newSets(n), v.newSets(n)
	for changed := true; changed; {
		changed = false
		for bi := n - 1; bi >= 0; bi-- {
			out := liveOut.at(bi)
			for _, si := range v.succs(bi) {
				if out.unionWith(liveIn.at(si)) {
					changed = true
				}
			}
			in, u, d := liveIn.at(bi), use.at(bi), def.at(bi)
			for w := range in {
				if x := in[w] | u[w] | out[w]&^d[w]; x != in[w] {
					in[w], changed = x, true
				}
			}
		}
	}

	results := v.newSet()
	for _, r := range v.m.Cwvm.Results {
		v.markAliased(results, r.Ref.Phys())
	}

	// A call's check reads the live set entering the first instruction
	// after its delay slots; only those sets are kept, numbered in
	// snapAt as the backward walk over a block with calls passes them.
	live, nsnap := v.newSet(), 0
	for bi, b := range v.af.Blocks {
		times, snapAt := v.blockTimes(bi), v.snapAt[v.first[bi]:v.first[bi+1]]
		calls := false
		for i, in := range b.Insts {
			if !clobbers(in) {
				continue
			}
			calls = true
			if j := afterSlots(times, i, in); j < len(times) && snapAt[j] == 0 {
				nsnap++
				snapAt[j] = nsnap
			}
		}
		if !calls {
			continue
		}
		copy(live, liveOut.at(bi))
		for i := len(b.Insts) - 1; i >= 0; i-- {
			in := b.Insts[i]
			v.instDefs(in, func(p mach.PhysID) {
				for _, a := range v.m.Aliases(p) {
					live.clear(int(a))
				}
			})
			v.instUses(in, func(p mach.PhysID) {
				v.markAliased(live, p)
			})
			if sn := snapAt[i]; sn > 0 {
				copy(v.snaps.at(sn-1), live)
			}
		}
		for i, in := range b.Insts {
			if !clobbers(in) {
				continue
			}
			after := liveOut.at(bi)
			if j := afterSlots(times, i, in); j < len(times) {
				after = v.snaps.at(snapAt[j] - 1)
			}
			for _, p := range in.ImpDefs() {
				if after.has(int(p)) && !results.has(int(p)) {
					v.addf(bi, i, times[i], kindRegister,
						"%s clobbers %s, which is live after the call",
						in.Tmpl.Mnemonic, v.m.PhysName(p))
				}
			}
		}
	}
}

// clobbers reports whether in is a call with a clobber set.
func clobbers(in *asm.Inst) bool { return in.Tmpl.IsCall && len(in.ImpDefs()) > 0 }

// afterSlots returns the first instruction after call i's delay slots:
// they execute before control reaches the callee, so the clobber takes
// effect after them.
func afterSlots(times []int, i int, in *asm.Inst) int {
	slots := max(in.Tmpl.Slots, -in.Tmpl.Slots) // annulled slots count too
	j := i + 1
	for j < len(times) && times[j] <= times[i]+slots {
		j++
	}
	return j
}

// checkCalleeSaveDiscipline flags writes to callee-save registers the
// function's prologue does not save.
func (v *verifier) checkCalleeSaveDiscipline() {
	csave := v.newSet()
	for _, rr := range v.m.Cwvm.CalleeSave {
		for i := rr.Lo; i <= rr.Hi; i++ {
			csave.set(int(rr.Set.Phys(i)))
		}
	}
	saved := v.newSet()
	for _, p := range v.af.CalleeSaved {
		v.markAliased(saved, p)
	}
	c := &v.m.Cwvm
	for _, ref := range [...]mach.RegRef{c.SP, c.FP, c.RetAddr, c.GlobalPtr} {
		if ref.Valid() {
			v.markAliased(saved, ref.Phys())
		}
	}
	for bi, b := range v.af.Blocks {
		times := v.blockTimes(bi)
		for i, in := range b.Insts {
			for _, opIdx := range in.Tmpl.DefOps {
				o := in.Args[opIdx]
				if o.Kind != asm.OpPhys || !csave.has(int(o.Phys)) || saved.has(int(o.Phys)) || v.isHardPhys(o) {
					continue
				}
				v.addf(bi, i, times[i], kindRegister,
					"%s writes callee-save register %s, which the function does not save",
					in.Tmpl.Mnemonic, v.m.PhysName(o.Phys))
			}
		}
	}
}

// instUses calls f for every physical register the instruction reads.
func (v *verifier) instUses(in *asm.Inst, f func(mach.PhysID)) {
	for _, opIdx := range in.Tmpl.UseOps {
		if o := in.Args[opIdx]; o.Kind == asm.OpPhys {
			f(o.Phys)
		}
	}
	for _, p := range in.ImpUses() {
		f(p)
	}
}

// instDefs calls f for every physical register the instruction writes,
// implicit defs (call clobber summaries) included.
func (v *verifier) instDefs(in *asm.Inst, f func(mach.PhysID)) {
	for _, opIdx := range in.Tmpl.DefOps {
		if o := in.Args[opIdx]; o.Kind == asm.OpPhys {
			f(o.Phys)
		}
	}
	for _, p := range in.ImpDefs() {
		f(p)
	}
}
