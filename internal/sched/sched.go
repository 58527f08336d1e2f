// Package sched implements Marion's list scheduler (paper §4): maximum
// distance-to-leaf priority, structural hazard avoidance through resource
// vectors, multiple instruction issue, long-instruction-word packing with
// classes, temporal scheduling of explicitly advanced pipelines (Rule 1
// with dynamic temporal groups) and branch delay slot filling with nops.
package sched

import (
	"context"
	"slices"

	"marion/internal/asm"
	"marion/internal/cdag"
	"marion/internal/mach"
)

// defaultMaxCycles is the scheduler's cycle-loop step cap when
// Options.MaxCycles is unset: far beyond any real schedule, so only a
// wedged scheduler (a machine description whose constraints admit no
// schedule) can reach it.
const defaultMaxCycles = 1000000

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

	// LiveOut marks, indexed by pseudo, the pseudos that are live beyond
	// the block (computed by LiveOutPseudos); only consulted when MaxLive
	// is set.
	LiveOut []bool

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
	// the cap a typed budget error (errors.Is faults.ErrExceeded) is
	// returned instead of hanging. 0 means defaultMaxCycles.
	MaxCycles int

	// Context, when non-nil, is polled inside the cycle loop; once it is
	// done its error is returned, wrapped with the cycle the loop stopped
	// at and never typed as a budget (the driver decides that).
	Context context.Context
}

// Result is a pure scheduling outcome. The package's Run returns Order
// and Cycles of their own; a Scratch's Run returns them in its storage,
// valid until the next Run on the same Scratch.
type Result struct {
	Order  []int // node indices in issue order
	Cycles []int // issue cycle of each Order entry
	Cost   int   // estimated block cycles, including delay slot nops
}

// LiveOutPseudos returns, indexed by pseudo, which pseudos of af are live
// across basic block boundaries: referenced in more than one block
// (cross, from af.PseudoHomes), or rooted in a global IL pseudo-register.
func LiveOutPseudos(af *asm.Func, cross []bool) []bool {
	out := make([]bool, len(af.Pseudos))
	for p, info := range af.Pseudos {
		out[p] = cross[p] || info.IR >= 0 && af.IR != nil && af.IR.Regs[info.IR].Global
	}
	return out
}

// Scratch is the storage scheduling works in: the code DAG's (Dag) and
// the state of Run's cycle loop. The zero value is ready to use. A
// strategy.Scratch keeps one from one function to the next and schedules
// every block, in every pass, on it, so only a block longer than any
// before it allocates. A graph built on Dag, and a Result's Order and
// Cycles, are overwritten by the next Build or Schedule, and a scratch
// is never shared between goroutines.
type Scratch struct {
	Dag cdag.Scratch
	run run
	// list gathers a scheduled block's instructions and nops, which the
	// block gets a list of.
	list []*asm.Inst
}

// Detach drops what the scratch holds of the function it scheduled
// last — the function, its graph, its instructions, the options'
// deadline and liveness — keeping the tables' storage, the last
// Result's Order and Cycles included.
func (s *Scratch) Detach() {
	s.Dag.Detach()
	r := &s.run
	r.m, r.af, r.g, r.opts = nil, nil, nil, Options{}
	clear(s.list[:cap(s.list)])
	s.list = s.list[:0]
}

// Run schedules the block's code DAG without mutating the block, in a
// scratch of its own. A non-nil error means the scheduler deadlocked — a
// machine description whose constraints admit no schedule (must be
// impossible for valid descriptions; see the protection pass).
func Run(m *mach.Machine, af *asm.Func, b *asm.Block, g *cdag.Graph, opts Options) (Result, error) {
	return new(Scratch).Run(m, af, b, g, opts)
}

// Run is the package's Run on s's tables. g may be any graph, built on
// s.Dag or not. It is the list scheduler's cycle loop (§4): each cycle
// starts a new instruction word, first places the outstanding temporal
// groups whole, then fills the word with the ready instructions in
// priority order, and moves on.
func (s *Scratch) Run(m *mach.Machine, af *asm.Func, b *asm.Block, g *cdag.Graph, opts Options) (Result, error) {
	n := len(g.Nodes)
	if n == 0 {
		return Result{}, nil
	}
	r := &s.run
	r.m, r.af, r.g, r.opts = m, af, g, opts
	r.heights = g.HeightsInto(r.heights)
	r.order, r.cycles = slices.Grow(r.order[:0], n), slices.Grow(r.cycles[:0], n)
	r.start()
	maxCycles := opts.MaxCycles
	if maxCycles <= 0 {
		maxCycles = defaultMaxCycles
	}
	for len(r.order) < n {
		if opts.Context != nil && r.cycle&255 == 0 {
			if err := r.interrupted(); err != nil {
				return Result{Order: r.order, Cycles: r.cycles}, err
			}
		}
		if r.cycle > maxCycles+n {
			return Result{Order: r.order, Cycles: r.cycles}, r.deadlock(maxCycles)
		}
		r.arrive()
		r.placeGroups()
		vetoed := r.fill()
		if r.word.n == 0 && vetoed >= 0 && !r.worthStalling() {
			// Every acceptable candidate is pressure-blocked and no
			// latency-waiter would help: force the best candidate so the
			// limit cannot stall the schedule forever (IPS escape hatch).
			r.place(vetoed)
		}
		if r.word.n > 0 {
			r.lastProgress = r.cycle
		} else if r.wedged() {
			r.opts.Sequential = true
			r.start()
			continue
		}
		r.tick()
	}
	return Result{Order: r.order, Cycles: r.cycles, Cost: r.layout.cost()}, nil
}

// slotLayout is the one statement of the delay-slot layout (§4.4:
// "Marion always fills branch delay slots with nops"): EVERY control
// transfer — a mid-block call as much as a final branch, since the
// instructions that follow a call in emission order would otherwise
// execute in its delay slots before control reaches the callee — is
// followed by |Slots| nop cycles, and everything after it issues that
// many cycles later. Run prices a schedule with it and apply commits
// the schedule with it, so the estimate equals the post-apply SchedCost
// by construction.
type slotLayout struct {
	shift int // nop cycles inserted so far
	last  int // last cycle occupied so far, nops included
}

// place lays out the next instruction in issue order: at is the cycle it
// issues in once the nops of earlier transfers are in, slots the number
// of nops that follow it.
func (l *slotLayout) place(t *mach.Instr, cycle int) (at, slots int) {
	at, slots = cycle+l.shift, delaySlots(t)
	l.shift += slots
	if at+slots > l.last {
		l.last = at + slots
	}
	return at, slots
}

// delaySlots is the number of nops that follow t in issue order: its
// delay slots when it transfers control, else none.
func delaySlots(t *mach.Instr) int {
	if !t.Transfers() {
		return 0
	}
	return max(t.Slots, -t.Slots)
}

// cost is the block's cycle count for everything placed so far.
func (l *slotLayout) cost() int { return l.last + 1 }

// apply commits a schedule to the block: instructions are put in issue
// order (res.Order is, as Run returns it), Cycle fields are set, and
// branch delay slots are filled with nops of af's. The block's code is
// gathered in s.list, and the block gets a list of af's holding it.
func (s *Scratch) apply(m *mach.Machine, af *asm.Func, b *asm.Block, res Result) {
	if len(res.Order) == 0 {
		b.SchedCost = res.Cost
		return
	}
	out := s.list[:0]
	var lay slotLayout
	for k, i := range res.Order {
		in := b.Insts[i]
		c, slots := lay.place(in.Tmpl, res.Cycles[k])
		in.Cycle = int32(c)
		out = append(out, in)
		for d := range slots {
			nop := asm.New(af, m.Nop)
			nop.Cycle = int32(c + 1 + d)
			out = append(out, nop)
		}
	}
	b.Insts = af.List(out)
	b.SchedCost = lay.cost()
	s.list = out[:0]
}

// Schedule builds the code DAG on s.Dag, runs the list scheduler and
// commits the result; it returns the block's estimated cycle count.
func (s *Scratch) Schedule(m *mach.Machine, af *asm.Func, b *asm.Block, opts Options) (int, error) {
	res, err := s.Run(m, af, b, s.Dag.Build(m, b, opts.Dag), opts)
	if err != nil {
		return 0, err
	}
	s.apply(m, af, b, res)
	return res.Cost, nil
}
