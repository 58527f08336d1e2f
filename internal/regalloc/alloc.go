package regalloc

import (
	"context"
	"fmt"
	"sort"

	"marion/internal/asm"
	"marion/internal/budget"
	"marion/internal/ir"
	"marion/internal/mach"
	"marion/internal/sel"
)

// DefaultMaxRounds is the build-color-spill iteration cap when
// Options.MaxRounds is unset. Real allocations converge in a handful of
// rounds; a description whose spill code itself cannot be colored would
// otherwise iterate forever.
const DefaultMaxRounds = 24

// Result describes a completed allocation.
type Result struct {
	// Assignment maps each pseudo to its physical register (spilled
	// pseudos are rewritten away before the final round).
	Assignment map[asm.PseudoID]mach.PhysID
	// SpillSlots is the number of 8-byte spill slots used.
	SpillSlots int
	// Spills counts pseudo-registers sent to memory across all rounds.
	Spills int
	// UsedCalleeSave lists the callee-save registers the function ended
	// up using (the strategy saves/restores them).
	UsedCalleeSave []mach.PhysID
	// Rounds is the number of build-color-spill iterations.
	Rounds int
}

// Options tune the allocator.
type Options struct {
	// SpillGlobals forces every pseudo-register that is live across
	// basic blocks to memory, leaving only block-local values in
	// registers: the local-allocation-only baseline standing in for the
	// paper's "cc -O1" comparator.
	SpillGlobals bool

	// MaxRounds caps the build-color-spill loop; exceeding it returns a
	// typed budget error (errors.Is budget.ErrExceeded) instead of
	// iterating forever on a non-convergent machine description.
	// 0 means DefaultMaxRounds.
	MaxRounds int

	// Context, when non-nil, is polled between rounds: a deadline
	// becomes a typed budget error, a cancellation is returned as-is.
	Context context.Context
}

// Allocate colors every pseudo-register of af, inserting spill code as
// needed. Operands are rewritten in place to physical registers.
func Allocate(m *mach.Machine, af *asm.Func) (*Result, error) {
	return AllocateOpts(m, af, Options{})
}

// AllocateOpts is Allocate with explicit options.
func AllocateOpts(m *mach.Machine, af *asm.Func, opts Options) (*Result, error) {
	res := &Result{Assignment: map[asm.PseudoID]mach.PhysID{}}
	if opts.SpillGlobals {
		var globals []asm.PseudoID
		_, cross := af.PseudoHomes()
		for p, c := range cross {
			if c {
				globals = append(globals, asm.PseudoID(p))
			}
		}
		res.Spills += len(globals)
		if err := insertSpills(m, af, res, globals); err != nil {
			return nil, err
		}
	}
	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds
	}
	for round := 0; ; round++ {
		if round >= maxRounds {
			return nil, &budget.LimitError{Stage: "regalloc", Steps: maxRounds,
				Detail: fmt.Sprintf("%s: build-color-spill did not converge", af.Name)}
		}
		if opts.Context != nil {
			if err := opts.Context.Err(); err != nil {
				if err == context.DeadlineExceeded {
					return nil, &budget.LimitError{Stage: "regalloc",
						Detail: fmt.Sprintf("%s: deadline after %d round(s)", af.Name, round)}
				}
				return nil, err
			}
		}
		res.Rounds = round + 1
		spilled, err := colorOnce(m, af, res)
		if err != nil {
			return nil, err
		}
		if len(spilled) == 0 {
			break
		}
		res.Spills += len(spilled)
		if err := insertSpills(m, af, res, spilled); err != nil {
			return nil, err
		}
	}
	rewrite(m, af, res)
	res.UsedCalleeSave = usedCalleeSave(m, af, res)
	return res, nil
}

// graph is the interference graph over pseudos, plus per-pseudo
// forbidden physical registers from interference with precolored/live
// physical registers.
type graph struct {
	adj    []map[asm.PseudoID]bool
	forbid []map[mach.PhysID]bool
}

func (g *graph) addEdge(a, b asm.PseudoID) {
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

func (g *graph) addForbid(p asm.PseudoID, phys mach.PhysID, m *mach.Machine) {
	if g.forbid[p] == nil {
		g.forbid[p] = map[mach.PhysID]bool{}
	}
	for _, al := range m.Aliases(phys) {
		g.forbid[p][al] = true
	}
}

// build constructs the interference graph from liveness.
func build(m *mach.Machine, af *asm.Func) *graph {
	n := len(af.Pseudos)
	g := &graph{adj: make([]map[asm.PseudoID]bool, n), forbid: make([]map[mach.PhysID]bool, n)}
	liveOut := liveness(m, af)

	interfere := func(d asm.RegKey, live liveSet, moveSrc asm.RegKey, haveSrc bool) {
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
		live := liveSet{}
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

// moveSource returns the register a copy reads when it reads exactly one
// (a def through a half operand counts as a read, as in liveSet.step).
func moveSource(m *mach.Machine, in *asm.Inst) (src asm.RegKey, ok bool) {
	if !in.Tmpl.Move {
		return 0, false
	}
	n := 0
	for d := in.RegDefs(m); d.Next(); {
		if d.Half {
			src, n = d.Key, n+1
		}
	}
	for u := in.RegUses(m); u.Next(); {
		src, n = u.Key, n+1
	}
	return src, n == 1
}

// degreeWeight is how many of my set's registers one neighbor can block.
func degreeWeight(mySet, nSet *mach.RegSet) int {
	if mySet == nSet {
		return 1
	}
	// A wider neighbor blocks size-ratio registers of a narrower set.
	if nSet.Size > mySet.Size {
		return nSet.Size / mySet.Size
	}
	return 1
}

// colorOnce builds and colors the graph; it returns the pseudos chosen
// for spilling (empty when coloring succeeded).
func colorOnce(m *mach.Machine, af *asm.Func, res *Result) ([]asm.PseudoID, error) {
	g := build(m, af)
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
	for p := 0; p < n; p++ {
		if present[p] {
			res.Assignment[asm.PseudoID(p)] = assigned[p]
		}
	}
	return nil, nil
}

// spillOffset returns the FP-relative offset of spill slot s.
func spillOffset(af *asm.Func, s int) int64 {
	return -int64(af.IR.LocalFrame) - 8*int64(s+1)
}

// insertSpills rewrites every reference to a spilled pseudo through a
// fresh temporary with a load/store to its frame slot.
func insertSpills(m *mach.Machine, af *asm.Func, res *Result, spilled []asm.PseudoID) error {
	slot := map[asm.PseudoID]int{}
	for _, p := range spilled {
		slot[p] = res.SpillSlots
		res.SpillSlots++
	}
	fp := m.Cwvm.FP.Phys()

	for _, b := range af.Blocks {
		var out []*asm.Inst
		for _, in := range b.Insts {
			var loads, stores []*asm.Inst
			// One temporary per spilled pseudo per instruction.
			tmps := map[asm.PseudoID]asm.PseudoID{}
			tmpFor := func(p asm.PseudoID) asm.PseudoID {
				if t, ok := tmps[p]; ok {
					return t
				}
				t := af.NewPseudo(af.Pseudos[p].Set, ir.NoReg)
				af.Pseudos[t].NoSpill = true
				tmps[p] = t
				return t
			}
			spillType := func(set *mach.RegSet) ir.Type {
				if set.Size == 8 {
					return ir.F64
				}
				return ir.I32
			}
			// Operand roles as bit sets over the template operand index;
			// the rewrite below must visit operands in index order, since
			// that order numbers the temporaries.
			var isUse, isDef uint64
			for u := in.RegUses(m); u.Next(); {
				if u.Op >= 0 {
					isUse |= 1 << u.Op
				}
			}
			for d := in.RegDefs(m); d.Next(); {
				if d.Op >= 0 {
					isDef |= 1 << d.Op
				}
			}
			for oi := range in.Args {
				a := in.Args[oi]
				if a.Kind != asm.OpPseudo && a.Kind != asm.OpPseudoHalf {
					continue
				}
				s, isSpilled := slot[a.Pseudo]
				if !isSpilled {
					continue
				}
				set := af.Pseudos[a.Pseudo].Set
				t := tmpFor(a.Pseudo)
				off := spillOffset(af, s)
				ty := spillType(set)
				use, def := isUse>>oi&1 != 0, isDef>>oi&1 != 0
				if use || a.Kind == asm.OpPseudoHalf && def {
					if len(loads) == 0 || loads[len(loads)-1].Args[0].Pseudo != t {
						ld, err := sel.BuildLoad(m, af, asm.Reg(t), fp, off, ty)
						if err != nil {
							return err
						}
						loads = append(loads, ld)
					}
				}
				if def {
					st, err := sel.BuildStore(m, af, asm.Reg(t), fp, off, ty)
					if err != nil {
						return err
					}
					stores = append(stores, st)
				}
				na := a
				na.Pseudo = t
				in.Args[oi] = na
			}
			out = append(out, loads...)
			out = append(out, in)
			out = append(out, stores...)
		}
		b.Insts = out
	}
	return nil
}

// rewrite replaces pseudo operands with their assigned physical
// registers; half operands resolve through the alias table.
func rewrite(m *mach.Machine, af *asm.Func, res *Result) {
	for _, b := range af.Blocks {
		for _, in := range b.Insts {
			for i, a := range in.Args {
				switch a.Kind {
				case asm.OpPseudo:
					in.Args[i] = asm.Phys(res.Assignment[a.Pseudo])
				case asm.OpPseudoHalf:
					whole := res.Assignment[a.Pseudo]
					al := m.Aliases(whole)
					in.Args[i] = asm.Phys(al[1+a.Half])
				}
			}
		}
	}
}

// usedCalleeSave reports which callee-save registers appear as defs.
func usedCalleeSave(m *mach.Machine, af *asm.Func, res *Result) []mach.PhysID {
	calleeSave := map[mach.PhysID]bool{}
	for _, rr := range m.Cwvm.CalleeSave {
		for i := rr.Lo; i <= rr.Hi; i++ {
			calleeSave[rr.Set.Phys(i)] = true
		}
	}
	used := map[mach.PhysID]bool{}
	for _, b := range af.Blocks {
		for _, in := range b.Insts {
			for d := in.RegDefs(m); d.Next(); {
				// Explicit defs only: a call's implicit defs are the
				// caller-save set and the return address, which frame()
				// saves on UsesCalls.
				if p := d.Key.Phys(); d.Op >= 0 && calleeSave[p] {
					used[p] = true
				}
			}
		}
	}
	// A wide register save covers its narrow overlaps: drop registers
	// whose covering wider register is also saved. (Map order is
	// harmless: only narrower registers are dropped, on account of wider
	// ones, and the survivors are sorted.)
	for p := range used {
		for _, al := range m.Aliases(p) {
			if al != p && used[al] && m.PhysRef(al).Set.Size > m.PhysRef(p).Set.Size {
				delete(used, p)
			}
		}
	}
	var out []mach.PhysID
	for p := range used {
		out = append(out, p)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}
