// Package sched implements Marion's list scheduler (paper §4): maximum
// distance-to-leaf priority, structural hazard avoidance through resource
// vectors, multiple instruction issue, long-instruction-word packing with
// classes, temporal scheduling of explicitly advanced pipelines (Rule 1
// with dynamic temporal groups) and branch delay slot filling with nops.
package sched

import (
	"context"
	"fmt"
	"sort"

	"marion/internal/asm"
	"marion/internal/budget"
	"marion/internal/cdag"
	"marion/internal/mach"
)

// DefaultMaxCycles is the scheduler's cycle-loop step cap when
// Options.MaxCycles is unset: far beyond any real schedule, so only a
// wedged scheduler (a machine description whose constraints admit no
// schedule) can reach it.
const DefaultMaxCycles = 1000000

// Options configure one scheduling run.
type Options struct {
	// CurrentCycleOnly restricts structural hazard checking to the issue
	// cycle, as the paper's implementation does (§4.3). Off by default:
	// the full resource vector is checked against all in-flight cycles.
	CurrentCycleOnly bool

	// FIFO disables the max-distance heuristic (ablation): candidates are
	// picked in code-thread order.
	FIFO bool

	// MaxLive limits the number of simultaneously live local values per
	// register set (IPS's prepass limit). Nil means unlimited.
	MaxLive map[*mach.RegSet]int

	// LiveOut marks pseudos that are live beyond the block (computed by
	// LiveOutPseudos); only consulted when MaxLive is set.
	LiveOut map[asm.PseudoID]bool

	// Dag overrides the code DAG options (ablations).
	Dag cdag.Options

	// Sequential places instructions in strict code-thread order (the
	// deadlock-free fallback: the thread order is an executable order by
	// construction). Set automatically when the greedy scheduler detects
	// a Rule-1 stall; also usable directly.
	Sequential bool

	// NoPack caps issue at one instruction per cycle: no long-word
	// packing, no multiple issue (the safe-sequential rung of the
	// degradation ladder).
	NoPack bool

	// MaxCycles caps the scheduler's cycle loop; when the loop runs past
	// the cap a typed budget error (errors.Is budget.ErrExceeded) is
	// returned instead of hanging. 0 means DefaultMaxCycles.
	MaxCycles int

	// Context, when non-nil, is polled inside the cycle loop: a deadline
	// becomes a typed budget error, a cancellation is returned as-is.
	Context context.Context
}

// Result is a pure scheduling outcome.
type Result struct {
	Order  []int // node indices in issue order
	Cycles []int // issue cycle of each Order entry
	Cost   int   // estimated block cycles, including delay slot nops
}

// LiveOutPseudos returns the pseudos of af that are live across basic
// block boundaries: referenced in more than one block (cross, from
// af.PseudoHomes), or rooted in a global IL pseudo-register.
func LiveOutPseudos(af *asm.Func, cross []bool) map[asm.PseudoID]bool {
	out := map[asm.PseudoID]bool{}
	for p, info := range af.Pseudos {
		if cross[p] || info.IR >= 0 && af.IR != nil && af.IR.Regs[info.IR].Global {
			out[asm.PseudoID(p)] = true
		}
	}
	return out
}

// Run schedules the block's code DAG without mutating the block. A
// non-nil error means the scheduler deadlocked — a machine description
// whose constraints admit no schedule (must be impossible for valid
// descriptions; see the protection pass).
func Run(m *mach.Machine, af *asm.Func, b *asm.Block, g *cdag.Graph, opts Options) (Result, error) {
	n := len(g.Nodes)
	res := Result{}
	if n == 0 {
		return res, nil
	}
	heights := g.Heights()

	predsLeft := make([]int, n)
	earliest := make([]int, n)
	for i, nd := range g.Nodes {
		predsLeft[i] = len(nd.Preds)
	}
	scheduled := make([]bool, n)
	placedCycle := make([]int, n)
	for i := range placedCycle {
		placedCycle[i] = -1
	}

	// Structural hazard state: busy[c] is the union of resources used at
	// absolute cycle c by in-flight instructions.
	var busy []mach.ResSet
	resAt := func(c int) mach.ResSet {
		if c < len(busy) {
			return busy[c]
		}
		return 0
	}
	reserve := func(start int, vec []mach.ResSet) {
		for c, rs := range vec {
			for start+c >= len(busy) {
				busy = append(busy, 0)
			}
			busy[start+c] |= rs
		}
	}
	hazardFree := func(start int, vec []mach.ResSet) bool {
		if len(vec) == 0 {
			return true
		}
		if opts.CurrentCycleOnly {
			return !vec[0].Intersects(resAt(start))
		}
		for c, rs := range vec {
			if rs.Intersects(resAt(start + c)) {
				return false
			}
		}
		return true
	}

	// Long-word packing state for the current cycle.
	var wordClass mach.ClassSet
	wordHasClass := false
	classOK := func(c mach.ClassSet) bool {
		if c.IsEmpty() || !wordHasClass {
			return true
		}
		return !wordClass.Intersect(c).IsEmpty()
	}
	classAdd := func(c mach.ClassSet) {
		if c.IsEmpty() {
			return
		}
		if !wordHasClass {
			wordClass, wordHasClass = c, true
			return
		}
		wordClass = wordClass.Intersect(c)
	}

	// Temporal scheduling state: pending[k] = destinations of temporal
	// edges (clock k) whose source was scheduled in an EARLIER cycle but
	// which are not yet scheduled themselves — the dynamic temporal group
	// of clock k. Edges from instructions placed this cycle take effect
	// only at the next cycle (the clock ticks once per instruction word),
	// which is what allows a new sequence head to pack with the group.
	// Both are member lists indexed by clock id, so groups are visited
	// in ascending clock order by construction: when two clocks' groups
	// are placeable in the same cycle (i860), the visit order is the
	// order they are placed, and printed, in.
	pending := make([][]int, len(m.Clocks))
	newPending := make([][]int, len(m.Clocks))
	placedThisCycle := map[int]bool{}

	// Rule 1: an instruction affecting clock k may only be placed in a
	// cycle where every outstanding destination of a temporal edge on k
	// (other than itself) is placed too — advancing the pipe earlier
	// would destroy latch values those destinations still need. Note a
	// group member that merely READS k's latches (e.g. a chaining sub-op
	// that affects a different clock) may be placed alone.
	rule1For := func(i, k int) bool {
		if k < 0 {
			return true
		}
		for _, mem := range pending[k] {
			if mem != i && !placedThisCycle[mem] {
				return false
			}
		}
		return true
	}
	rule1OK := func(i int) bool {
		return rule1For(i, g.Nodes[i].Inst.Tmpl.AffectsClock)
	}
	// groupRule1OK checks a member being placed as part of group k0's
	// atomic placement: its own clock k0 is satisfied by construction,
	// but any OTHER clock it affects must still satisfy Rule 1.
	groupRule1OK := func(i, k0 int) bool {
		k := g.Nodes[i].Inst.Tmpl.AffectsClock
		if k == k0 {
			return true
		}
		return rule1For(i, k)
	}

	// Register pressure state (IPS prepass limit).
	usesLeft := map[asm.PseudoID]int{}
	live := map[asm.PseudoID]bool{}
	pressure := map[*mach.RegSet]int{}
	// Only pseudo operands count: a half operand stands for its whole
	// wide pseudo, and physical registers (hence every implicit effect)
	// are outside the limit.
	pseudoOf := func(k asm.RegKey) (asm.PseudoID, bool) {
		return k.Pseudo(m), k.IsPseudo(m)
	}
	if opts.MaxLive != nil {
		for _, nd := range g.Nodes {
			for u := nd.Inst.RegUses(m); u.Next(); {
				if p, ok := pseudoOf(u.Key); ok {
					usesLeft[p]++
				}
			}
		}
	}
	pressureDelta := func(in *asm.Inst) map[*mach.RegSet]int {
		d := map[*mach.RegSet]int{}
		for e := in.RegDefs(m); e.Next(); {
			if p, ok := pseudoOf(e.Key); ok && !live[p] {
				d[af.Pseudos[p].Set]++
			}
		}
		// An operand may appear several times in one instruction; it dies
		// here when this instruction holds ALL its remaining uses.
		occ := map[asm.PseudoID]int{}
		for u := in.RegUses(m); u.Next(); {
			if p, ok := pseudoOf(u.Key); ok {
				occ[p]++
			}
		}
		// Map order is harmless: each entry adjusts its own set's count.
		for p, c := range occ {
			if live[p] && usesLeft[p] == c && !opts.LiveOut[p] {
				d[af.Pseudos[p].Set]--
			}
		}
		return d
	}
	pressureOK := func(in *asm.Inst) bool {
		if opts.MaxLive == nil {
			return true
		}
		// Map order is harmless: the answer is a conjunction over sets.
		for set, d := range pressureDelta(in) {
			lim, ok := opts.MaxLive[set]
			if !ok {
				continue
			}
			if d > 0 && pressure[set]+d > lim {
				return false
			}
		}
		return true
	}
	pressureApply := func(in *asm.Inst) {
		if opts.MaxLive == nil {
			return
		}
		for u := in.RegUses(m); u.Next(); {
			if p, ok := pseudoOf(u.Key); ok {
				usesLeft[p]--
				if usesLeft[p] <= 0 && !opts.LiveOut[p] && live[p] {
					live[p] = false
					pressure[af.Pseudos[p].Set]--
				}
			}
		}
		for e := in.RegDefs(m); e.Next(); {
			if p, ok := pseudoOf(e.Key); ok && !live[p] {
				live[p] = true
				pressure[af.Pseudos[p].Set]++
			}
		}
	}

	place := func(i, cycle int) {
		scheduled[i] = true
		placedCycle[i] = cycle
		placedThisCycle[i] = true
		reserve(cycle, g.Nodes[i].Inst.Tmpl.ResVec)
		classAdd(g.Nodes[i].Inst.Tmpl.Class)
		pressureApply(g.Nodes[i].Inst)
		for _, e := range g.Nodes[i].Succs {
			predsLeft[e.To]--
			if c := cycle + e.Latency; c > earliest[e.To] {
				earliest[e.To] = c
			}
			if e.Type == cdag.True && e.Clock >= 0 {
				newPending[e.Clock] = addMember(newPending[e.Clock], e.To)
			}
		}
		// The node itself leaves any group it belonged to.
		for k := range pending {
			pending[k] = dropMember(pending[k], i)
			newPending[k] = dropMember(newPending[k], i)
		}
		res.Order = append(res.Order, i)
		res.Cycles = append(res.Cycles, cycle)
	}

	maxCycles := opts.MaxCycles
	if maxCycles <= 0 {
		maxCycles = DefaultMaxCycles
	}
	remaining := n
	cycle := 0
	lastProgress := 0
	for remaining > 0 {
		// Greedy list scheduling with Rule 1 can wedge on code whose
		// register-reuse anti-dependences interleave temporal sequences
		// (a non-backtracking scheduler took a wrong turn). The code
		// thread itself is always a valid order, so fall back to strict
		// sequential placement for this block.
		if !opts.Sequential && cycle-lastProgress > 4096 {
			seq := opts
			seq.Sequential = true
			return Run(m, af, b, g, seq)
		}
		if opts.Context != nil && cycle&255 == 0 {
			if err := opts.Context.Err(); err != nil {
				if err == context.DeadlineExceeded {
					// The per-function budget expired mid-schedule: a
					// typed budget error so the caller can degrade.
					return res, &budget.LimitError{Stage: "sched",
						Detail: fmt.Sprintf("deadline at cycle %d, %d of %d unscheduled", cycle, remaining, n)}
				}
				return res, err
			}
		}
		if cycle > maxCycles+n {
			// Step cap: report enough state to diagnose a scheduling
			// deadlock (must be impossible for valid descriptions; see
			// the protection pass). A bad machine description must not
			// crash or hang the compiler, so this is a typed budget
			// error, not a panic; it flows through the phase error
			// plumbing as a per-function diagnostic.
			msg := fmt.Sprintf("deadlock at cycle %d, %d of %d unscheduled\n", cycle, remaining, n)
			for i := 0; i < n; i++ {
				if !scheduled[i] {
					msg += fmt.Sprintf("  [%d] %s predsLeft=%d earliest=%d affects=%d\n",
						i, g.Nodes[i].Inst, predsLeft[i], earliest[i], g.Nodes[i].Inst.Tmpl.AffectsClock)
				}
			}
			for k, grp := range pending {
				for _, mem := range grp {
					msg += fmt.Sprintf("  pending[clock %d] member [%d] %s scheduled=%v\n",
						k, mem, g.Nodes[mem].Inst, scheduled[mem])
				}
			}
			for i := 0; i < n; i++ {
				msg += fmt.Sprintf("  node[%d] seq=%d sched=%v %s preds:", i, g.Nodes[i].Inst.SeqID, scheduled[i], g.Nodes[i].Inst)
				for _, e := range g.Nodes[i].Preds {
					msg += fmt.Sprintf(" (%d,l%d,t%d,c%d)", e.To, e.Latency, e.Type, e.Clock)
				}
				msg += "\n"
			}
			return res, &budget.LimitError{Stage: "sched", Steps: maxCycles, Detail: msg}
		}
		placedThisCycle = map[int]bool{}
		wordClass, wordHasClass = mach.ClassSet{}, false

		// Candidates ready this cycle. In sequential mode only the lowest
		// unscheduled thread index is eligible.
		ready := func() []int {
			var r []int
			for i := 0; i < n; i++ {
				if !scheduled[i] && predsLeft[i] == 0 && earliest[i] <= cycle {
					r = append(r, i)
				}
				if opts.Sequential && !scheduled[i] {
					break
				}
			}
			if !opts.FIFO && !opts.Sequential {
				sort.Slice(r, func(a, b int) bool {
					if heights[r[a]] != heights[r[b]] {
						return heights[r[a]] > heights[r[b]]
					}
					return r[a] < r[b] // code-thread tie break
				})
			}
			return r
		}

		// First, place outstanding temporal groups atomically. A member
		// may itself affect another clock (chaining sub-operations like
		// the i860's a1m), so each member must also satisfy Rule 1; a
		// fixpoint loop lets one group's placement unblock another.
		// (Strict sequential mode places in thread order only.)
		groupProgress := !opts.Sequential
		for groupProgress {
			groupProgress = false
			for k0, grp := range pending {
				if len(grp) == 0 {
					continue
				}
				members := make([]int, 0, len(grp))
				ok := true
				for _, mem := range grp {
					if scheduled[mem] || predsLeft[mem] != 0 || earliest[mem] > cycle || !groupRule1OK(mem, k0) {
						ok = false
						break
					}
					members = append(members, mem)
				}
				if !ok {
					continue
				}
				sort.Ints(members)
				// All members must fit this cycle together.
				var groupRes mach.ResSet
				groupClass := wordClass
				groupHas := wordHasClass
				for _, mem := range members {
					t := g.Nodes[mem].Inst.Tmpl
					if !hazardFree(cycle, t.ResVec) {
						ok = false
						break
					}
					if len(t.ResVec) > 0 {
						if t.ResVec[0].Intersects(groupRes) {
							ok = false
							break
						}
						groupRes = groupRes.Union(t.ResVec[0])
					}
					if !t.Class.IsEmpty() {
						if groupHas && groupClass.Intersect(t.Class).IsEmpty() {
							ok = false
							break
						}
						if !groupHas {
							groupClass, groupHas = t.Class, true
						} else {
							groupClass = groupClass.Intersect(t.Class)
						}
					}
				}
				if ok {
					for _, mem := range members {
						place(mem, cycle)
					}
					groupProgress = true
				}
			}
		}

		// Fill the rest of the cycle by priority.
		progress := true
		fallback := -1
		for progress {
			progress = false
			fallback = -1
			if opts.NoPack && len(placedThisCycle) > 0 {
				break // one instruction per cycle: no multi-issue fill
			}
			for _, i := range ready() {
				t := g.Nodes[i].Inst.Tmpl
				if !rule1OK(i) {
					continue
				}
				if !hazardFree(cycle, t.ResVec) {
					continue
				}
				if !classOK(t.Class) {
					continue
				}
				if !pressureOK(g.Nodes[i].Inst) {
					if fallback < 0 {
						fallback = i
					}
					continue
				}
				place(i, cycle)
				progress = true
				break
			}
		}

		if len(placedThisCycle) == 0 && fallback >= 0 && !worthStalling(g, scheduled, predsLeft, earliest, cycle, pressureOK) {
			// Every acceptable candidate is pressure-blocked and no
			// latency-waiter would help: force the best candidate so the
			// limit cannot stall the schedule forever (IPS escape hatch).
			place(fallback, cycle)
		}

		if len(placedThisCycle) > 0 {
			lastProgress = cycle
		}
		remaining = n - len(res.Order)
		if remaining > 0 {
			cycle++
		}
		// Temporal edges from this cycle's placements become outstanding.
		for k, grp := range newPending {
			for _, mem := range grp {
				pending[k] = addMember(pending[k], mem)
			}
			newPending[k] = grp[:0]
		}
	}
	// Block cost: issue cycles plus the delay-slot nops Apply will
	// insert. Cycles are nondecreasing along res.Order, so placement
	// order is issue order, exactly as Apply's stable sort sees it.
	var lay slotLayout
	for k, i := range res.Order {
		lay.place(g.Nodes[i].Inst.Tmpl, res.Cycles[k])
	}
	res.Cost = lay.cost()
	return res, nil
}

// addMember adds node i to a temporal group's member list.
func addMember(grp []int, i int) []int {
	for _, mem := range grp {
		if mem == i {
			return grp
		}
	}
	return append(grp, i)
}

// dropMember removes node i from a temporal group's member list.
func dropMember(grp []int, i int) []int {
	for k, mem := range grp {
		if mem == i {
			return append(grp[:k], grp[k+1:]...)
		}
	}
	return grp
}

// slotLayout is the one statement of the delay-slot layout (§4.4:
// "Marion always fills branch delay slots with nops"): EVERY control
// transfer — a mid-block call as much as a final branch, since the
// instructions that follow a call in emission order would otherwise
// execute in its delay slots before control reaches the callee — is
// followed by |Slots| nop cycles, and everything after it issues that
// many cycles later. Run prices a schedule with it and Apply commits
// the schedule with it, so the estimate equals the post-Apply SchedCost
// by construction.
type slotLayout struct {
	shift int // nop cycles inserted so far
	last  int // last cycle occupied so far, nops included
}

// place lays out the next instruction in issue order: at is the cycle it
// issues in once the nops of earlier transfers are in, slots the number
// of nops that follow it.
func (l *slotLayout) place(t *mach.Instr, cycle int) (at, slots int) {
	at = cycle + l.shift
	if t.Transfers() {
		if slots = t.Slots; slots < 0 {
			slots = -slots
		}
	}
	l.shift += slots
	if at+slots > l.last {
		l.last = at + slots
	}
	return at, slots
}

// cost is the block's cycle count for everything placed so far.
func (l *slotLayout) cost() int { return l.last + 1 }

// worthStalling reports whether an unscheduled instruction that satisfies
// the pressure limit is merely waiting on operand latency; if so, the
// scheduler stalls instead of forcing a pressure-violating candidate.
func worthStalling(g *cdag.Graph, scheduled []bool, predsLeft, earliest []int, cycle int, pressureOK func(*asm.Inst) bool) bool {
	for i := range g.Nodes {
		if !scheduled[i] && predsLeft[i] == 0 && earliest[i] > cycle && pressureOK(g.Nodes[i].Inst) {
			return true
		}
	}
	return false
}

// Apply commits a schedule to the block: instructions are reordered by
// issue cycle, Cycle fields are set, and branch delay slots are filled
// with nops.
func Apply(m *mach.Machine, b *asm.Block, res Result) {
	if len(res.Order) == 0 {
		b.SchedCost = res.Cost
		return
	}
	insts := make([]*asm.Inst, 0, len(res.Order))
	for k, i := range res.Order {
		in := b.Insts[i]
		in.Cycle = res.Cycles[k]
		insts = append(insts, in)
	}
	sort.SliceStable(insts, func(a, b int) bool { return insts[a].Cycle < insts[b].Cycle })

	var out []*asm.Inst
	var lay slotLayout
	for _, in := range insts {
		var slots int
		in.Cycle, slots = lay.place(in.Tmpl, in.Cycle)
		out = append(out, in)
		for s := 0; s < slots; s++ {
			nop := asm.New(m.Nop)
			nop.Cycle = in.Cycle + 1 + s
			out = append(out, nop)
		}
	}
	b.Insts = out
	b.SchedCost = lay.cost()
}

// Schedule builds the code DAG, runs the list scheduler and commits the
// result; it returns the block's estimated cycle count.
func Schedule(m *mach.Machine, af *asm.Func, b *asm.Block, opts Options) (int, error) {
	res, err := plan(m, af, b, opts)
	if err != nil {
		return 0, err
	}
	Apply(m, b, res)
	return res.Cost, nil
}

// Estimate runs the scheduler without committing, returning the
// estimated block cost (used by RASE's schedule-cost estimates).
func Estimate(m *mach.Machine, af *asm.Func, b *asm.Block, opts Options) (int, error) {
	res, err := plan(m, af, b, opts)
	return res.Cost, err
}

// plan builds the block's code DAG and schedules it, committing nothing.
func plan(m *mach.Machine, af *asm.Func, b *asm.Block, opts Options) (Result, error) {
	return Run(m, af, b, cdag.Build(m, b, opts.Dag), opts)
}
