package sched

import (
	"marion/internal/asm"
	"marion/internal/ir"
	"marion/internal/mach"
)

// setPressure is the register pressure of one limited register set.
type setPressure struct {
	set              *mach.RegSet
	max, cur, change int
}

// startPressure counts the block's uses of every pseudo; with no limit
// set it leaves nothing tracked and the veto never fires.
func (r *run) startPressure() {
	r.limited = r.limited[:0]
	for _, rs := range r.m.RegSets {
		if lim, ok := r.opts.MaxLive[rs]; ok {
			r.limited = append(r.limited, setPressure{set: rs, max: lim})
		}
	}
	if len(r.limited) == 0 {
		return
	}
	pseudos := len(r.af.Pseudos)
	r.usesLeft, r.live = ir.Grow(r.usesLeft, pseudos), ir.Grow(r.live, pseudos)
	for i := range r.g.Nodes {
		for u := r.g.Nodes[i].Inst.RegUses(r.m); u.Next(); {
			if q, ok := r.pseudo(u.Key); ok {
				r.usesLeft[q]++
			}
		}
	}
}

// pseudo returns the pseudo k names, false for a physical register.
func (r *run) pseudo(k asm.RegKey) (asm.PseudoID, bool) {
	return k.Pseudo(r.m), k.IsPseudo(r.m)
}

// limitedSet returns the pressure of pseudo p's register set, nil when
// the set has no limit.
func (r *run) limitedSet(p asm.PseudoID) *setPressure {
	for j := range r.limited {
		if sp := &r.limited[j]; sp.set == r.af.Pseudos[p].Set {
			return sp
		}
	}
	return nil
}

// liveOut reports whether pseudo p is live beyond the block.
func (r *run) liveOut(p asm.PseudoID) bool {
	return int(p) < len(r.opts.LiveOut) && r.opts.LiveOut[p]
}

// pressureOK reports whether placing in now keeps every limited set
// within its limit: the instruction's net change per set is the values
// it starts minus the values whose last uses it holds.
func (r *run) pressureOK(in *asm.Inst) bool {
	if len(r.limited) == 0 {
		return true
	}
	for j := range r.limited {
		r.limited[j].change = 0
	}
	for e := in.RegDefs(r.m); e.Next(); {
		if q, ok := r.pseudo(e.Key); ok && !r.live[q] {
			if sp := r.limitedSet(q); sp != nil {
				sp.change++
			}
		}
	}
	// An operand may appear several times in one instruction; it dies
	// here when this instruction holds ALL its remaining uses: counting
	// them off reaches zero, at the last of them.
	for u := in.RegUses(r.m); u.Next(); {
		if q, ok := r.pseudo(u.Key); ok {
			if r.usesLeft[q]--; r.usesLeft[q] == 0 && r.live[q] && !r.liveOut(q) {
				if sp := r.limitedSet(q); sp != nil {
					sp.change--
				}
			}
		}
	}
	for u := in.RegUses(r.m); u.Next(); {
		if q, ok := r.pseudo(u.Key); ok {
			r.usesLeft[q]++ // in is only a candidate
		}
	}
	for j := range r.limited {
		if sp := &r.limited[j]; sp.change > 0 && sp.cur+sp.change > sp.max {
			return false
		}
	}
	return true
}

// pressureApply records that in has been placed.
func (r *run) pressureApply(in *asm.Inst) {
	if len(r.limited) == 0 {
		return
	}
	for u := in.RegUses(r.m); u.Next(); {
		q, ok := r.pseudo(u.Key)
		if !ok {
			continue
		}
		r.usesLeft[q]--
		if r.usesLeft[q] <= 0 && !r.liveOut(q) && r.live[q] {
			r.live[q] = false
			if sp := r.limitedSet(q); sp != nil {
				sp.cur--
			}
		}
	}
	for e := in.RegDefs(r.m); e.Next(); {
		if q, ok := r.pseudo(e.Key); ok && !r.live[q] {
			r.live[q] = true
			if sp := r.limitedSet(q); sp != nil {
				sp.cur++
			}
		}
	}
}

// worthStalling reports whether an unscheduled instruction that satisfies
// the pressure limit is merely waiting on operand latency; if so, the
// scheduler stalls instead of forcing a pressure-violating candidate.
func (r *run) worthStalling() bool {
	for _, i := range r.waiting {
		if r.pressureOK(r.g.Nodes[i].Inst) {
			return true
		}
	}
	return false
}
