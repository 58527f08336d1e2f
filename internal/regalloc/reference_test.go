package regalloc

// The map-based allocator this package shipped through PR 14, kept
// verbatim (but for handing over its assignment as a slice) as the
// differential oracle for the dense-table rewrite: liveness as one map
// per block, interference as []map[PseudoID]bool, and a simplify loop
// that recomputes every weighted degree on every step. It shares
// spillGlobals, insertSpills, rewrite and usedCalleeSave (and the pure
// helpers moveSource and degreeWeight) with the package; everything that
// decides a colour or a spill is private to this file.

import (
	"context"
	"fmt"
	"sort"

	"marion/internal/asm"
	"marion/internal/budget"
	"marion/internal/mach"
)

// referenceAllocate is AllocateOpts on the reference structures. It
// also returns each colouring round's spill list, which numbers the
// spill slots (after SpillGlobals' forced spills, which the shared
// spillGlobals picks).
func referenceAllocate(m *mach.Machine, af *asm.Func, opts Options) (*Result, [][]asm.PseudoID, error) {
	var rounds [][]asm.PseudoID
	a := newAllocator(m, af)
	res := a.res
	if opts.SpillGlobals {
		if err := a.spillGlobals(); err != nil {
			return nil, rounds, err
		}
	}
	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds
	}
	for round := 0; ; round++ {
		if round >= maxRounds {
			return nil, rounds, &budget.LimitError{Stage: "regalloc", Steps: maxRounds,
				Detail: fmt.Sprintf("%s: build-color-spill did not converge", af.Name)}
		}
		if opts.Context != nil {
			if err := opts.Context.Err(); err != nil {
				if err == context.DeadlineExceeded {
					return nil, rounds, &budget.LimitError{Stage: "regalloc",
						Detail: fmt.Sprintf("%s: deadline after %d round(s)", af.Name, round)}
				}
				return nil, rounds, err
			}
		}
		res.Rounds = round + 1
		spilled, err := refColorOnce(m, af, res)
		if err != nil {
			return nil, rounds, err
		}
		if len(spilled) == 0 {
			break
		}
		rounds = append(rounds, spilled)
		res.Spills += len(spilled)
		if err := a.insertSpills(spilled); err != nil {
			return nil, rounds, err
		}
	}
	a.rewrite()
	res.UsedCalleeSave = a.usedCalleeSave()
	return res, rounds, nil
}

// refLiveSet is keyed by asm.RegKey: one key per physical register
// (aliasing handled at interference time) or pseudo. Every range over
// one is a set copy, union or comparison, so map order cannot reach the
// allocation.
type refLiveSet map[asm.RegKey]bool

// step moves live backward across one instruction: defs die, uses are
// born. A def through a half operand is also a use (a partial write
// preserves the other half).
func (live refLiveSet) step(m *mach.Machine, in *asm.Inst) {
	for d := in.RegDefs(m); d.Next(); {
		if !d.Half {
			delete(live, d.Key)
		}
	}
	for u := in.RegUses(m); u.Next(); {
		live[u.Key] = true
	}
}

// refLiveness computes live-out sets per block by iterative backward
// dataflow over the CFG.
func refLiveness(m *mach.Machine, af *asm.Func) map[*asm.Block]refLiveSet {
	liveIn := map[*asm.Block]refLiveSet{}
	liveOut := map[*asm.Block]refLiveSet{}
	for _, b := range af.Blocks {
		liveIn[b] = refLiveSet{}
		liveOut[b] = refLiveSet{}
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
			out := refLiveSet{}
			for _, s := range b.IR.Succs {
				if sb := byIR[s]; sb != nil {
					for k := range liveIn[sb] {
						out[k] = true
					}
				}
			}
			in := refLiveSet{}
			for k := range out {
				in[k] = true
			}
			for j := len(b.Insts) - 1; j >= 0; j-- {
				in.step(m, b.Insts[j])
			}
			if !refSameSet(out, liveOut[b]) || !refSameSet(in, liveIn[b]) {
				changed = true
			}
			liveOut[b] = out
			liveIn[b] = in
		}
	}
	return liveOut
}

func refSameSet(a, b refLiveSet) bool {
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

// refGraph is the interference graph over pseudos, plus per-pseudo
// forbidden physical registers from interference with precolored/live
// physical registers.
type refGraph struct {
	adj    []map[asm.PseudoID]bool
	forbid []map[mach.PhysID]bool
}

func (g *refGraph) addEdge(a, b asm.PseudoID) {
	if a == b {
		return
	}
	if g.adj[a] == nil {
		g.adj[a] = map[asm.PseudoID]bool{}
	}
	if g.adj[b] == nil {
		g.adj[b] = map[asm.PseudoID]bool{}
	}
	g.adj[a][b] = true
	g.adj[b][a] = true
}

func (g *refGraph) addForbid(p asm.PseudoID, phys mach.PhysID, m *mach.Machine) {
	if g.forbid[p] == nil {
		g.forbid[p] = map[mach.PhysID]bool{}
	}
	for _, al := range m.Aliases(phys) {
		g.forbid[p][al] = true
	}
}

// refBuild constructs the interference graph from liveness.
func refBuild(m *mach.Machine, af *asm.Func) *refGraph {
	n := len(af.Pseudos)
	g := &refGraph{adj: make([]map[asm.PseudoID]bool, n), forbid: make([]map[mach.PhysID]bool, n)}
	liveOut := refLiveness(m, af)

	interfere := func(d asm.RegKey, live refLiveSet, moveSrc asm.RegKey, haveSrc bool) {
		// Map order is harmless: adj and forbid are sets.
		for l := range live {
			if l == d {
				continue
			}
			// Chaitin's move exception: the destination of a copy does
			// not interfere with its source.
			if haveSrc && l == moveSrc {
				continue
			}
			switch {
			case d.IsPseudo(m) && l.IsPseudo(m):
				g.addEdge(d.Pseudo(m), l.Pseudo(m))
			case d.IsPseudo(m):
				g.addForbid(d.Pseudo(m), l.Phys(), m)
			case l.IsPseudo(m):
				g.addForbid(l.Pseudo(m), d.Phys(), m)
			}
		}
	}

	for _, b := range af.Blocks {
		live := refLiveSet{}
		for k := range liveOut[b] {
			live[k] = true
		}
		for j := len(b.Insts) - 1; j >= 0; j-- {
			in := b.Insts[j]
			moveSrc, haveSrc := moveSource(m, in)
			for d := in.RegDefs(m); d.Next(); {
				interfere(d.Key, live, moveSrc, haveSrc)
			}
			live.step(m, in)
		}
	}
	return g
}

// refColorOnce builds and colors the graph; it returns the pseudos chosen
// for spilling (empty when coloring succeeded).
func refColorOnce(m *mach.Machine, af *asm.Func, res *Result) ([]asm.PseudoID, error) {
	g := refBuild(m, af)
	n := len(af.Pseudos)

	// K per register set, and the per-set allocable registers ordered
	// caller-save first (so callee-save stays untouched when possible).
	kOf := map[*mach.RegSet]int{}
	colorsOf := map[*mach.RegSet][]mach.PhysID{}
	calleeSave := map[mach.PhysID]bool{}
	for _, rr := range m.Cwvm.CalleeSave {
		for i := rr.Lo; i <= rr.Hi; i++ {
			calleeSave[rr.Set.Phys(i)] = true
		}
	}
	// Registers that must never be allocated, even if a description's
	// %allocable ranges (or their %equiv overlaps) include them: the
	// stack/frame pointers, the return address, the global pointer and
	// hard-wired registers.
	reserved := map[mach.PhysID]bool{}
	addReserved := func(r mach.RegRef) {
		if r.Valid() {
			for _, al := range m.Aliases(r.Phys()) {
				reserved[al] = true
			}
		}
	}
	addReserved(m.Cwvm.SP)
	addReserved(m.Cwvm.FP)
	addReserved(m.Cwvm.RetAddr)
	addReserved(m.Cwvm.GlobalPtr)
	for _, h := range m.Cwvm.Hard {
		addReserved(h.Ref)
	}
	for _, rs := range m.RegSets {
		var regs []mach.PhysID
		for _, r := range m.AllocableIn(rs) {
			ok := true
			for _, al := range m.Aliases(r) {
				if reserved[al] {
					ok = false
				}
			}
			if ok {
				regs = append(regs, r)
			}
		}
		sort.Slice(regs, func(a, b int) bool {
			ca, cb := calleeSave[regs[a]], calleeSave[regs[b]]
			if ca != cb {
				return !ca
			}
			return regs[a] < regs[b]
		})
		kOf[rs] = len(regs)
		colorsOf[rs] = regs
	}

	// Only pseudos some instruction still mentions take part.
	home, _ := af.PseudoHomes()
	present := make([]bool, n)
	for p, hb := range home {
		present[p] = hb != nil
	}

	weightedDeg := func(p asm.PseudoID, removed []bool) int {
		d := 0
		// Map order is harmless: a sum.
		for nb := range g.adj[p] {
			if !removed[nb] && present[nb] {
				d += degreeWeight(af.Pseudos[p].Set, af.Pseudos[nb].Set)
			}
		}
		// Forbidden physical registers eat colors permanently.
		d += len(g.forbid[p])
		return d
	}

	removed := make([]bool, n)
	var stack []asm.PseudoID
	remaining := 0
	for p := 0; p < n; p++ {
		if present[p] {
			remaining++
		} else {
			removed[p] = true
		}
	}

	for remaining > 0 {
		// Simplify: remove a node with degree < K.
		picked := asm.PseudoID(-1)
		for p := 0; p < n; p++ {
			if removed[p] {
				continue
			}
			set := af.Pseudos[p].Set
			if weightedDeg(asm.PseudoID(p), removed) < kOf[set] {
				picked = asm.PseudoID(p)
				break
			}
		}
		if picked < 0 {
			// Optimistic push (Briggs): pick the cheapest spill candidate
			// and push it anyway; it may still receive a color.
			best := asm.PseudoID(-1)
			bestCost := 0.0
			for p := 0; p < n; p++ {
				if removed[p] {
					continue
				}
				info := af.Pseudos[p]
				if info.NoSpill {
					continue
				}
				d := weightedDeg(asm.PseudoID(p), removed)
				if d == 0 {
					d = 1
				}
				cost := info.SpillCost / float64(d)
				if best < 0 || cost < bestCost {
					best, bestCost = asm.PseudoID(p), cost
				}
			}
			if best < 0 {
				// Only NoSpill nodes remain with high degree; push the
				// first (it will either color or fail hard below).
				for p := 0; p < n; p++ {
					if !removed[p] {
						best = asm.PseudoID(p)
						break
					}
				}
			}
			picked = best
		}
		removed[picked] = true
		stack = append(stack, picked)
		remaining--
	}

	// Select phase: pop and color.
	assigned := make([]mach.PhysID, n)
	for i := range assigned {
		assigned[i] = mach.NoPhys
	}
	var spills []asm.PseudoID
	for i := len(stack) - 1; i >= 0; i-- {
		p := stack[i]
		set := af.Pseudos[p].Set
		// Map order is harmless below: blocked is a set, and the color
		// is then the first free one in colorsOf's fixed order.
		blocked := map[mach.PhysID]bool{}
		for ph := range g.forbid[p] {
			blocked[ph] = true
		}
		for nb := range g.adj[p] {
			if c := assigned[nb]; c != mach.NoPhys {
				for _, al := range m.Aliases(c) {
					blocked[al] = true
				}
			}
		}
		got := mach.NoPhys
		for _, c := range colorsOf[set] {
			if !blocked[c] {
				got = c
				break
			}
		}
		if got == mach.NoPhys {
			if af.Pseudos[p].NoSpill {
				return nil, fmt.Errorf("%s: spill temporary t%d cannot be colored (register set %s too small)",
					af.Name, p, set.Name)
			}
			spills = append(spills, p)
			continue
		}
		assigned[p] = got
	}

	if len(spills) > 0 {
		return spills, nil
	}
	res.Assignment = assigned
	return nil, nil
}
