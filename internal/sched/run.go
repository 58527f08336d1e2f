package sched

import (
	"fmt"
	"slices"
	"strings"

	"marion/internal/asm"
	"marion/internal/cdag"
	"marion/internal/faults"
	"marion/internal/ir"
	"marion/internal/mach"
)

// run is the state of one scheduling run, kept in a Scratch so that the
// next run reuses its tables. Scratch.Run is the cycle loop over it; the
// methods below are that loop's parts.
type run struct {
	m    *mach.Machine
	af   *asm.Func
	g    *cdag.Graph
	opts Options

	// The schedule so far: node indices in issue order and their cycles,
	// priced with the delay-slot nops apply will insert. Cycles are
	// nondecreasing along order, so placement order is issue order, which
	// is the order apply lays the block out in.
	order, cycles []int
	layout        slotLayout

	cycle        int // the cycle being filled
	lastProgress int // the last cycle anything was placed in
	nextSeq      int // Sequential: the lowest unscheduled thread index

	// Per-node state, views of ints. placedCycle[i] is the cycle node i
	// was placed in, -1 while it is unscheduled; comparing it with the
	// current cycle answers "placed in this instruction word?".
	ints                             []int
	heights                          []int
	predsLeft, earliest, placedCycle []int

	// The candidates: ready holds every unscheduled node whose
	// predecessors are all placed and whose operands have arrived
	// (earliest <= cycle), kept sorted by the priority order — height
	// descending, code-thread index ascending (thread order alone for
	// FIFO and Sequential) — which is total, so the list has one order.
	// waiting holds the nodes whose predecessors are all placed but whose
	// operands are still in flight; they move to ready at the top of the
	// cycle that reaches their earliest.
	ready, waiting []int

	// word is the current cycle's instruction word, trial the copy a
	// temporal group is tried out in.
	word, trial word

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
	pending, newPending [][]int
	members             []int // the temporal group being placed

	// Register pressure state behind the IPS prepass limit
	// (Options.MaxLive). Only pseudo operands count: a half operand stands
	// for its whole wide pseudo, and physical registers (hence every
	// implicit effect) are outside the limit. Only limited register sets
	// are tracked, in description order; usesLeft and live are indexed by
	// pseudo.
	limited  []setPressure
	usesLeft []int32
	live     []bool
}

// start puts the run at cycle 0 with nothing placed, under r.opts. It
// keeps the storage of order and cycles, so the wedge fallback restarts
// on what the greedy attempt allocated.
func (r *run) start() {
	n := len(r.g.Nodes)
	r.order, r.cycles, r.layout = r.order[:0], r.cycles[:0], slotLayout{}
	r.cycle, r.lastProgress, r.nextSeq = 0, 0, 0

	r.ints = ir.Grow(r.ints, 5*n)
	r.predsLeft, r.earliest, r.placedCycle = r.ints[:n], r.ints[n:2*n], r.ints[2*n:3*n]
	r.ready, r.waiting = r.ints[3*n:3*n:4*n], r.ints[4*n:4*n]
	window := 0
	for i := range r.g.Nodes {
		nd := &r.g.Nodes[i]
		r.predsLeft[i] = len(nd.Preds)
		r.placedCycle[i] = -1
		if r.predsLeft[i] == 0 {
			r.makeReady(i)
		}
		window = max(window, len(nd.Inst.Tmpl.ResVec))
	}
	r.word.reset(window, r.opts.CurrentCycleOnly)
	clocks := len(r.m.Clocks)
	groups := slices.Grow(r.pending[:0], 2*clocks)[:2*clocks] // both sets of lists, pending first
	for k := range groups {
		groups[k] = groups[k][:0] // empty, keeping the list's storage
	}
	r.pending, r.newPending = groups[:clocks], groups[clocks:]
	r.startPressure()
}

// before is the priority order of the ready set.
func (r *run) before(a, b int) bool {
	if !r.opts.FIFO && !r.opts.Sequential && r.heights[a] != r.heights[b] {
		return r.heights[a] > r.heights[b]
	}
	return a < b
}

// readyPos is the position node i has, or would take, in ready.
func (r *run) readyPos(i int) int {
	lo, hi := 0, len(r.ready)
	for lo < hi {
		if mid := (lo + hi) / 2; r.before(r.ready[mid], i) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// makeReady makes node i a candidate.
func (r *run) makeReady(i int) {
	r.ready = slices.Insert(r.ready, r.readyPos(i), i)
}

// arrive makes candidates of the waiting nodes whose operands arrive
// this cycle.
func (r *run) arrive() {
	still := r.waiting[:0]
	for _, i := range r.waiting {
		if r.earliest[i] <= r.cycle {
			r.makeReady(i)
		} else {
			still = append(still, i)
		}
	}
	r.waiting = still
}

// candidates are the ready nodes the priority fill may look at, best
// first: all of them, or under Sequential only the lowest unscheduled
// thread index.
func (r *run) candidates() []int {
	if !r.opts.Sequential {
		return r.ready
	}
	for r.nextSeq < len(r.placedCycle) && r.placedCycle[r.nextSeq] >= 0 {
		r.nextSeq++
	}
	if len(r.ready) > 0 && r.ready[0] == r.nextSeq {
		return r.ready[:1]
	}
	return nil
}

// rule1OK is Rule 1: an instruction affecting clock k may only be placed
// in a cycle where every outstanding destination of a temporal edge on k
// (other than itself) is placed too — advancing the pipe earlier would
// destroy latch values those destinations still need. Note a group member
// that merely READS k's latches (e.g. a chaining sub-op that affects a
// different clock) may be placed alone. with is the clock whose group
// node i is being placed as part of, -1 for none: that clock is satisfied
// by construction, but any OTHER clock i affects must still satisfy the
// rule.
func (r *run) rule1OK(i, with int) bool {
	k := r.g.Nodes[i].Inst.Tmpl.AffectsClock
	if k < 0 || k == with {
		return true
	}
	for _, mem := range r.pending[k] {
		if mem != i && r.placedCycle[mem] != r.cycle {
			return false
		}
	}
	return true
}

// groupFits reports whether the outstanding temporal group of clock k
// can be placed in this cycle, atomically: every member is a candidate,
// satisfies Rule 1 for the other clocks it affects (chaining
// sub-operations like the i860's a1m), and all of them fit the word
// together, whole resource vectors included. The members are left in
// r.members, in thread order.
func (r *run) groupFits(k int) bool {
	if len(r.pending[k]) == 0 {
		return false
	}
	r.members = r.members[:0]
	for _, mem := range r.pending[k] {
		if r.placedCycle[mem] >= 0 || r.predsLeft[mem] != 0 || r.earliest[mem] > r.cycle || !r.rule1OK(mem, k) {
			return false
		}
		r.members = append(r.members, mem)
	}
	slices.Sort(r.members)
	r.trial.copyFrom(&r.word)
	for _, mem := range r.members {
		t := r.g.Nodes[mem].Inst.Tmpl
		if !r.trial.fits(t) {
			return false
		}
		r.trial.add(t)
	}
	return true
}

// placeGroups places every outstanding temporal group that fits this
// cycle; a fixpoint loop lets one group's placement unblock another.
// (Strict sequential mode places in thread order only.)
func (r *run) placeGroups() {
	for progress := !r.opts.Sequential; progress; {
		progress = false
		for k := range r.pending {
			if r.groupFits(k) {
				for _, mem := range r.members {
					r.place(mem)
				}
				progress = true
			}
		}
	}
}

// fill fills the rest of the word by priority. It returns the best
// candidate that only the pressure limit kept out of the last scan, -1
// when there is none.
func (r *run) fill() (vetoed int) {
	for {
		vetoed = -1
		if r.opts.NoPack && r.word.n > 0 {
			return vetoed // one instruction per cycle: no multi-issue fill
		}
		placed := false
		for _, i := range r.candidates() {
			in := r.g.Nodes[i].Inst
			if !r.rule1OK(i, -1) || !r.word.fits(in.Tmpl) {
				continue
			}
			if !r.pressureOK(in) {
				if vetoed < 0 {
					vetoed = i
				}
				continue
			}
			r.place(i) // reorders ready: rescan from the top
			placed = true
			break
		}
		if !placed {
			return vetoed
		}
	}
}

// place puts ready node i into the current cycle's word.
func (r *run) place(i int) {
	nd := &r.g.Nodes[i]
	r.placedCycle[i] = r.cycle
	at := r.readyPos(i)
	r.ready = slices.Delete(r.ready, at, at+1)
	r.word.add(nd.Inst.Tmpl)
	r.pressureApply(nd.Inst)
	for _, e := range nd.Succs {
		to := int(e.To)
		r.predsLeft[to]--
		if c := r.cycle + int(e.Latency); c > r.earliest[to] {
			r.earliest[to] = c
		}
		if e.Type == cdag.True && e.Clock >= 0 {
			r.newPending[e.Clock] = addMember(r.newPending[e.Clock], to)
		}
		// With its last predecessor placed the successor becomes a
		// candidate — for this very word when no latency separates
		// them — or waits for its operands.
		if r.predsLeft[to] == 0 {
			if r.earliest[to] <= r.cycle {
				r.makeReady(to)
			} else {
				r.waiting = append(r.waiting, to)
			}
		}
	}
	// The node itself leaves any group it belonged to.
	for k := range r.pending {
		r.pending[k] = dropMember(r.pending[k], i)
		r.newPending[k] = dropMember(r.newPending[k], i)
	}
	r.order = append(r.order, i)
	r.cycles = append(r.cycles, r.cycle)
	r.layout.place(nd.Inst.Tmpl, r.cycle)
}

// tick ends the cycle: the next word begins, and the temporal edges from
// this cycle's placements become outstanding.
func (r *run) tick() {
	r.word.next()
	r.cycle++
	for k, grp := range r.newPending {
		for _, mem := range grp {
			r.pending[k] = addMember(r.pending[k], mem)
		}
		r.newPending[k] = grp[:0]
	}
}

// wedged reports the fixpoint greedy list scheduling with Rule 1 can
// reach (a non-backtracking scheduler took a wrong turn): on
// pre-allocation code, where sequences of independent statements are all
// candidates at once and a head placed between another sequence's head
// and its members can never be followed, and on code whose register-reuse
// anti-dependences interleave temporal sequences. Nothing was placed, no
// operand is in flight, the reservation table has drained and no temporal
// edge is about to become outstanding: the next cycle would find exactly
// this state, and so would every one after it. The code thread itself is
// always a valid order, so the caller falls back to strict sequential
// placement for the block.
func (r *run) wedged() bool {
	return !r.opts.Sequential && len(r.waiting) == 0 && r.cycle-r.lastProgress >= r.word.table.Window()
}

// interrupted polls Options.Context and returns its error wrapped with
// where the loop stopped. Whether a deadline was a budget is the
// driver's to say: only it knows the attempt's context from the run's.
func (r *run) interrupted() error {
	if err := r.opts.Context.Err(); err != nil {
		return fmt.Errorf("sched: stopped at cycle %d, %d of %d unscheduled: %w",
			r.cycle, len(r.g.Nodes)-len(r.order), len(r.g.Nodes), err)
	}
	return nil
}

// deadlock is the step cap's error, with enough state to diagnose a
// scheduling deadlock (must be impossible for valid descriptions; see
// the protection pass). A bad machine description must not crash or hang
// the compiler, so this is a typed budget error, not a panic; it flows
// through the phase error plumbing as a per-function diagnostic.
func (r *run) deadlock(maxCycles int) error {
	nodes := r.g.Nodes
	var msg strings.Builder
	fmt.Fprintf(&msg, "deadlock at cycle %d, %d of %d unscheduled\n", r.cycle, len(nodes)-len(r.order), len(nodes))
	for k, grp := range r.pending {
		for _, mem := range grp {
			fmt.Fprintf(&msg, "  pending[clock %d] member [%d] %s scheduled=%v\n",
				k, mem, nodes[mem].Inst, r.placedCycle[mem] >= 0)
		}
	}
	for i := range nodes {
		in := nodes[i].Inst
		fmt.Fprintf(&msg, "  node[%d] seq=%d sched=%v predsLeft=%d earliest=%d affects=%d %s preds:",
			i, in.SeqID, r.placedCycle[i] >= 0, r.predsLeft[i], r.earliest[i], in.Tmpl.AffectsClock, in)
		for _, e := range nodes[i].Preds {
			fmt.Fprintf(&msg, " (%d,l%d,t%d,c%d)", e.To, e.Latency, e.Type, e.Clock)
		}
		msg.WriteString("\n")
	}
	return &faults.LimitError{Stage: "sched", Steps: maxCycles, Detail: msg.String()}
}

// addMember adds node i to a temporal group's member list.
func addMember(grp []int, i int) []int {
	if slices.Contains(grp, i) {
		return grp
	}
	return append(grp, i)
}

// dropMember removes node i from a temporal group's member list.
func dropMember(grp []int, i int) []int {
	if k := slices.Index(grp, i); k >= 0 {
		return slices.Delete(grp, k, k+1)
	}
	return grp
}
