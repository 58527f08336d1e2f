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

// Scratch is the storage scheduling works in: the code DAG's (Dag) and
// the tables of Run's cycle loop. The zero value is ready to use. A
// strategy keeps one per function and schedules every block, in every
// pass, on it, so only a block longer than any before it allocates —
// beyond each Result's Order and Cycles, which are the caller's. A graph
// built on Dag is overwritten by the next Build or Schedule, and a
// scratch is never shared between goroutines.
type Scratch struct {
	Dag cdag.Scratch

	ints, heights       []int
	busy                []mach.ResSet
	pending, newPending [][]int
	members             []int
	limited             []setPressure
	usesLeft            []int32
	live                []bool
	useBuf              []asm.PseudoID
}

// setPressure is the register pressure of one limited register set.
type setPressure struct {
	set              *mach.RegSet
	max, cur, change int
}

// sized returns buf with length n, reallocated when it is too short. The
// contents are whatever the last use left.
func sized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// groups returns buf as one empty member list per clock, keeping the
// lists' storage.
func groups(buf [][]int, clocks int) [][]int {
	buf = sized(buf, clocks)
	for k := range buf {
		buf[k] = buf[k][:0]
	}
	return buf
}

// Run schedules the block's code DAG without mutating the block, in a
// scratch of its own. A non-nil error means the scheduler deadlocked — a
// machine description whose constraints admit no schedule (must be
// impossible for valid descriptions; see the protection pass).
func Run(m *mach.Machine, af *asm.Func, b *asm.Block, g *cdag.Graph, opts Options) (Result, error) {
	return new(Scratch).Run(m, af, b, g, opts)
}

// Run is the package's Run on s's tables. g may be any graph, built on
// s.Dag or not.
func (s *Scratch) Run(m *mach.Machine, af *asm.Func, b *asm.Block, g *cdag.Graph, opts Options) (Result, error) {
	n := len(g.Nodes)
	res := Result{}
	if n == 0 {
		return res, nil
	}
	s.heights = g.HeightsInto(s.heights)
	heights := s.heights

	// Per-node state. placedCycle[i] is the cycle node i was placed in,
	// -1 while it is unscheduled; comparing it with the current cycle
	// answers "placed in this instruction word?".
	s.ints = sized(s.ints, 5*n)
	ints := s.ints
	predsLeft, earliest, placedCycle := ints[:n], ints[n:2*n], ints[2*n:3*n]
	clear(earliest)
	placedNow := 0 // nodes placed in the current cycle

	// The candidates: ready holds every unscheduled node whose
	// predecessors are all placed and whose operands have arrived
	// (earliest <= cycle), kept sorted by the priority order — height
	// descending, code-thread index ascending (thread order alone for
	// FIFO and Sequential) — which is total, so the list has one order.
	// waiting holds the nodes whose predecessors are all placed but whose
	// operands are still in flight; they move to ready at the top of the
	// cycle that reaches their earliest.
	before := func(a, b int) bool {
		if !opts.FIFO && !opts.Sequential && heights[a] != heights[b] {
			return heights[a] > heights[b]
		}
		return a < b
	}
	ready, waiting := ints[3*n:3*n:4*n], ints[4*n:4*n]
	readyPos := func(i int) int {
		lo, hi := 0, len(ready)
		for lo < hi {
			if mid := (lo + hi) / 2; before(ready[mid], i) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}
	makeReady := func(i int) {
		at := readyPos(i)
		ready = append(ready, 0)
		copy(ready[at+1:], ready[at:])
		ready[at] = i
	}
	for i := range g.Nodes {
		predsLeft[i] = len(g.Nodes[i].Preds)
		placedCycle[i] = -1
		if predsLeft[i] == 0 {
			makeReady(i)
		}
	}

	// Structural hazard state: the union of resources used at each cycle
	// by in-flight instructions. Only the current cycle and the few after
	// it that a resource vector spans are ever looked at, so busy is a
	// ring over that window (absolute cycle c lives in slot c mod its
	// length) and a slot is cleared as the schedule moves past its cycle.
	window := 1
	for i := range g.Nodes {
		if l := len(g.Nodes[i].Inst.Tmpl.ResVec); l > window {
			window = l
		}
	}
	s.busy = sized(s.busy, window)
	busy := s.busy
	clear(busy)
	reserve := func(start int, vec []mach.ResSet) {
		for c, rs := range vec {
			busy[(start+c)%window] |= rs
		}
	}
	hazardFree := func(start int, vec []mach.ResSet) bool {
		if len(vec) == 0 {
			return true
		}
		if opts.CurrentCycleOnly {
			return !vec[0].Intersects(busy[start%window])
		}
		for c, rs := range vec {
			if rs.Intersects(busy[(start+c)%window]) {
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
	s.pending, s.newPending = groups(s.pending, len(m.Clocks)), groups(s.newPending, len(m.Clocks))
	pending, newPending := s.pending, s.newPending

	// Rule 1: an instruction affecting clock k may only be placed in a
	// cycle where every outstanding destination of a temporal edge on k
	// (other than itself) is placed too — advancing the pipe earlier
	// would destroy latch values those destinations still need. Note a
	// group member that merely READS k's latches (e.g. a chaining sub-op
	// that affects a different clock) may be placed alone.
	cycle := 0
	rule1For := func(i, k int) bool {
		if k < 0 {
			return true
		}
		for _, mem := range pending[k] {
			if mem != i && placedCycle[mem] != cycle {
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

	// Register pressure state (IPS prepass limit). Only pseudo operands
	// count: a half operand stands for its whole wide pseudo, and
	// physical registers (hence every implicit effect) are outside the
	// limit. Only limited register sets are tracked, in description
	// order; usesLeft and live are indexed by pseudo.
	limited := s.limited[:0]
	var usesLeft []int32
	var live []bool
	limitedSet := func(p asm.PseudoID) *setPressure {
		for j := range limited {
			if limited[j].set == af.Pseudos[p].Set {
				return &limited[j]
			}
		}
		return nil
	}
	pseudoOf := func(k asm.RegKey) (asm.PseudoID, bool) {
		return k.Pseudo(m), k.IsPseudo(m)
	}
	if opts.MaxLive != nil {
		for _, rs := range m.RegSets {
			if lim, ok := opts.MaxLive[rs]; ok {
				limited = append(limited, setPressure{set: rs, max: lim})
			}
		}
		s.limited = limited
		s.usesLeft, s.live = sized(s.usesLeft, len(af.Pseudos)), sized(s.live, len(af.Pseudos))
		usesLeft, live = s.usesLeft, s.live
		clear(usesLeft)
		clear(live)
		for i := range g.Nodes {
			for u := g.Nodes[i].Inst.RegUses(m); u.Next(); {
				if p, ok := pseudoOf(u.Key); ok {
					usesLeft[p]++
				}
			}
		}
	}
	// pressureOK reports whether placing in now keeps every limited set
	// within its limit: the instruction's net change per set is the
	// values it starts minus the values whose last uses it holds.
	pressureOK := func(in *asm.Inst) bool {
		if opts.MaxLive == nil {
			return true
		}
		for j := range limited {
			limited[j].change = 0
		}
		for e := in.RegDefs(m); e.Next(); {
			if p, ok := pseudoOf(e.Key); ok && !live[p] {
				if sp := limitedSet(p); sp != nil {
					sp.change++
				}
			}
		}
		// An operand may appear several times in one instruction; it dies
		// here when this instruction holds ALL its remaining uses.
		useBuf := s.useBuf[:0] // the candidate's pseudo uses, repeats included
		for u := in.RegUses(m); u.Next(); {
			if p, ok := pseudoOf(u.Key); ok {
				useBuf = append(useBuf, p)
			}
		}
		s.useBuf = useBuf
	uses:
		for k, p := range useBuf {
			for _, q := range useBuf[:k] {
				if q == p {
					continue uses // counted at its first appearance
				}
			}
			held := int32(1)
			for _, q := range useBuf[k+1:] {
				if q == p {
					held++
				}
			}
			if live[p] && usesLeft[p] == held && !opts.LiveOut[p] {
				if sp := limitedSet(p); sp != nil {
					sp.change--
				}
			}
		}
		for j := range limited {
			if sp := &limited[j]; sp.change > 0 && sp.cur+sp.change > sp.max {
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
					if sp := limitedSet(p); sp != nil {
						sp.cur--
					}
				}
			}
		}
		for e := in.RegDefs(m); e.Next(); {
			if p, ok := pseudoOf(e.Key); ok && !live[p] {
				live[p] = true
				if sp := limitedSet(p); sp != nil {
					sp.cur++
				}
			}
		}
	}

	res.Order = make([]int, 0, n)
	res.Cycles = make([]int, 0, n)
	// place puts ready node i into the current cycle's word.
	place := func(i int) {
		placedCycle[i] = cycle
		placedNow++
		at := readyPos(i)
		ready = append(ready[:at], ready[at+1:]...)
		reserve(cycle, g.Nodes[i].Inst.Tmpl.ResVec)
		classAdd(g.Nodes[i].Inst.Tmpl.Class)
		pressureApply(g.Nodes[i].Inst)
		for _, e := range g.Nodes[i].Succs {
			to := int(e.To)
			predsLeft[to]--
			if c := cycle + int(e.Latency); c > earliest[to] {
				earliest[to] = c
			}
			if e.Type == cdag.True && e.Clock >= 0 {
				newPending[e.Clock] = addMember(newPending[e.Clock], to)
			}
			// With its last predecessor placed the successor becomes a
			// candidate — for this very word when no latency separates
			// them — or waits for its operands.
			if predsLeft[to] == 0 {
				if earliest[to] <= cycle {
					makeReady(to)
				} else {
					waiting = append(waiting, to)
				}
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
	// worthStalling reports whether an unscheduled instruction that
	// satisfies the pressure limit is merely waiting on operand latency;
	// if so, the scheduler stalls instead of forcing a pressure-violating
	// candidate.
	worthStalling := func() bool {
		for _, i := range waiting {
			if pressureOK(g.Nodes[i].Inst) {
				return true
			}
		}
		return false
	}

	remaining := n
	lastProgress := 0
	nextSeq := 0 // Sequential: the lowest unscheduled thread index
	for remaining > 0 {
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
				if placedCycle[i] < 0 {
					msg += fmt.Sprintf("  [%d] %s predsLeft=%d earliest=%d affects=%d\n",
						i, g.Nodes[i].Inst, predsLeft[i], earliest[i], g.Nodes[i].Inst.Tmpl.AffectsClock)
				}
			}
			for k, grp := range pending {
				for _, mem := range grp {
					msg += fmt.Sprintf("  pending[clock %d] member [%d] %s scheduled=%v\n",
						k, mem, g.Nodes[mem].Inst, placedCycle[mem] >= 0)
				}
			}
			for i := 0; i < n; i++ {
				msg += fmt.Sprintf("  node[%d] seq=%d sched=%v %s preds:", i, g.Nodes[i].Inst.SeqID, placedCycle[i] >= 0, g.Nodes[i].Inst)
				for _, e := range g.Nodes[i].Preds {
					msg += fmt.Sprintf(" (%d,l%d,t%d,c%d)", e.To, e.Latency, e.Type, e.Clock)
				}
				msg += "\n"
			}
			return res, &budget.LimitError{Stage: "sched", Steps: maxCycles, Detail: msg}
		}
		placedNow = 0
		wordClass, wordHasClass = mach.ClassSet{}, false

		// Operands that arrive this cycle make their readers candidates.
		stillWaiting := waiting[:0]
		for _, i := range waiting {
			if earliest[i] <= cycle {
				makeReady(i)
			} else {
				stillWaiting = append(stillWaiting, i)
			}
		}
		waiting = stillWaiting

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
				members := s.members[:0] // the temporal group being placed
				ok := true
				for _, mem := range grp {
					if placedCycle[mem] >= 0 || predsLeft[mem] != 0 || earliest[mem] > cycle || !groupRule1OK(mem, k0) {
						ok = false
						break
					}
					members = append(members, mem)
				}
				s.members = members
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
						place(mem)
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
			if opts.NoPack && placedNow > 0 {
				break // one instruction per cycle: no multi-issue fill
			}
			cands := ready
			if opts.Sequential {
				// Only the lowest unscheduled thread index is eligible.
				for nextSeq < n && placedCycle[nextSeq] >= 0 {
					nextSeq++
				}
				if cands = nil; len(ready) > 0 && ready[0] == nextSeq {
					cands = ready[:1]
				}
			}
			for _, i := range cands {
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
				place(i) // reorders ready: rescan from the top
				progress = true
				break
			}
		}

		if placedNow == 0 && fallback >= 0 && !worthStalling() {
			// Every acceptable candidate is pressure-blocked and no
			// latency-waiter would help: force the best candidate so the
			// limit cannot stall the schedule forever (IPS escape hatch).
			place(fallback)
		}

		if placedNow > 0 {
			lastProgress = cycle
		} else if !opts.Sequential && len(waiting) == 0 && cycle-lastProgress >= window {
			// Greedy list scheduling with Rule 1 can wedge (a
			// non-backtracking scheduler took a wrong turn): on
			// pre-allocation code, where sequences of independent
			// statements are all candidates at once and a head placed
			// between another sequence's head and its members can never
			// be followed, and on code whose register-reuse
			// anti-dependences interleave temporal sequences. Nothing was
			// placed, no operand is in flight, the busy ring has drained
			// and no temporal edge is about to become outstanding: the
			// next cycle would find exactly this state, and so would
			// every one after it. The code thread itself is always a
			// valid order, so fall back to strict sequential placement
			// for this block.
			seq := opts
			seq.Sequential = true
			return s.Run(m, af, b, g, seq)
		}
		remaining = n - len(res.Order)
		if remaining > 0 {
			busy[cycle%window] = 0
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
	return new(Scratch).Schedule(m, af, b, opts)
}

// Schedule is the package's Schedule on s's tables.
func (s *Scratch) Schedule(m *mach.Machine, af *asm.Func, b *asm.Block, opts Options) (int, error) {
	res, err := s.Run(m, af, b, s.Dag.Build(m, b, opts.Dag), opts)
	if err != nil {
		return 0, err
	}
	Apply(m, b, res)
	return res.Cost, nil
}
