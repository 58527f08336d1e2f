// Package strategy implements Marion's code generation strategies — the
// component that directs the invocation of and level of communication
// between instruction scheduling and global register allocation (paper
// §2). Six strategies are provided:
//
//   - Postpass: global register allocation followed by scheduling
//     (Gibbons & Muchnick).
//   - IPS: integrated prepass scheduling — schedule with a limit on
//     local register use, allocate, schedule again (Goodman & Hsu).
//   - RASE: register allocation with schedule estimates — gather
//     schedule cost estimates, allocate with them, final scheduling
//     (Bradlee, Eggers & Henry).
//   - Naive: global allocation, then one pass that picks candidates in
//     code-thread order (FIFO priority) — the no-heuristic baseline.
//   - Local: Naive with local-only allocation (SpillGlobals: every
//     cross-block value lives in memory), the stand-in for the paper's
//     "cc -O1" comparator.
//   - Safe: the bottom rung of the degradation ladder.
//
// The strategy also owns function prologue/epilogue generation and final
// frame layout, built from description-derived instructions.
package strategy

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"marion/internal/asm"
	"marion/internal/cdag"
	"marion/internal/faults"
	"marion/internal/ir"
	"marion/internal/mach"
	"marion/internal/regalloc"
	"marion/internal/sched"
	"marion/internal/sel"
)

// Kind selects a code generation strategy.
type Kind uint8

const (
	Naive Kind = iota
	Postpass
	IPS
	RASE
	// Local is the weakest baseline: local-only register allocation
	// (every cross-block value lives in memory) and no scheduling — the
	// stand-in for the paper's "cc -O1" local-optimization comparator.
	Local
	// Safe is the bottom rung of the degradation ladder: standard
	// allocation, then strict code-thread order with one instruction per
	// cycle — no reordering, no long-word packing, no multiple issue —
	// and every delay slot filled with nops. The thread order is an
	// executable order by construction, so Safe succeeds whenever
	// selection and allocation do.
	Safe
)

var kindNames = map[Kind]string{
	Naive: "naive", Postpass: "postpass", IPS: "ips", RASE: "rase", Local: "local",
	Safe: "safe",
}

// FallbackChain returns the degradation ladder below a strategy: the
// rungs the driver retries a failed or over-budget function on, in
// order. Each rung trades schedule quality for simplicity (RASE → IPS →
// Postpass → Safe); the baselines Naive and Local fall straight to
// Safe. Safe itself has no rung below it. The slice is the tail of one
// fixed ladder, so the call allocates nothing: callers must not write
// to it.
func FallbackChain(k Kind) []Kind {
	for i, rung := range ladder {
		if rung == k {
			return ladder[i+1:]
		}
	}
	// The baselines: the ladder's last rung, Safe.
	return ladder[len(ladder)-1:]
}

// ladder is the degradation ladder FallbackChain returns the tail of.
var ladder = [...]Kind{RASE, IPS, Postpass, Safe}

func (k Kind) String() string { return kindNames[k] }

// KindNames lists every strategy name in Kind order (the accepted
// inputs of ParseKind).
func KindNames() []string {
	kinds := make([]Kind, 0, len(kindNames))
	for k := range kindNames {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(a, b int) bool { return kinds[a] < kinds[b] })
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = kindNames[k]
	}
	return names
}

// ParseKind converts a strategy name.
func ParseKind(s string) (Kind, error) {
	// Map order is harmless: names are unique.
	for k, n := range kindNames {
		if n == s {
			return k, nil
		}
	}
	// The accepted list is derived from kindNames so it cannot drift
	// from the registered strategies.
	return 0, fmt.Errorf("unknown strategy %q (want %s)", s, strings.Join(KindNames(), ", "))
}

// Stats reports what the strategy did to one function.
type Stats struct {
	Spills      int
	SpillSlots  int
	AllocRounds int
	// EstimatedCycles is the sum of per-block scheduler cost estimates
	// (unweighted; see experiments for frequency-weighted costs).
	EstimatedCycles int
	// SchedulePasses counts scheduler invocations (including estimates).
	SchedulePasses int
	// SlotsFilled counts delay-slot nops replaced by useful instructions
	// (only when Options.FillDelaySlots is set).
	SlotsFilled int
}

// Options are three of the paper's scheduler design choices (§4), which
// the evaluation's ablations turn on one at a time (the fourth, FIFO
// candidate order, is the Naive strategy), plus the per-attempt
// deadline and fault injector the driver fills in. Everything else a
// scheduling pass needs (register limits, live-out sets, strict order,
// packing) the strategy sets per pass.
type Options struct {
	// CurrentCycleOnly checks structural hazards at the issue cycle only,
	// as the paper's implementation does (§4.3); the verifier then checks
	// under the same rule (sched.Options.CurrentCycleOnly).
	CurrentCycleOnly bool
	// NoAnti omits the type-3 (anti and output) edges from the code DAG
	// (§4.1; cdag.Options.NoAnti). Unsafe after allocation: for measuring
	// what the edges cost the schedule only.
	NoAnti bool
	// FillDelaySlots enables the optional post-scheduling pass (§4.4)
	// that replaces delay-slot nops with safe instructions hoisted from
	// above the transfer. Off by default: the paper's Marion always
	// emits nops. The Safe rung ignores it (nops stay nops).
	FillDelaySlots bool

	// Deadline, when non-nil, is the attempt's context: the scheduler's
	// cycle loop and the allocator's round loop poll it and stop with its
	// error instead of hanging. Set by the driver, which alone types an
	// expired Config.Budget as a budget error.
	Deadline context.Context

	// Inject is the fault-injection hook for this function attempt
	// (sites "sched", "regalloc", "frame"); nil injects nothing.
	Inject *faults.Injector
}

// Apply runs the full back end pipeline of the given strategy on a
// selected function: scheduling, allocation, prologue/epilogue, on a
// scratch of its own.
func Apply(m *mach.Machine, af *asm.Func, kind Kind, opts Options) (*Stats, error) {
	return new(Scratch).Apply(m, af, kind, opts)
}

// Scratch is the storage a strategy works in: the scheduler's, in which
// every block of the function is built and scheduled in every pass, and
// the allocator's. The zero value is ready to use; applying function
// after function on one scratch gives what a fresh scratch gives. A
// scratch has one owner and is never shared between goroutines.
type Scratch struct {
	sched sched.Scratch
	alloc regalloc.Scratch
}

// Detach drops what the scheduler and the allocator hold of the
// function they worked on last, keeping their storage up to the bound.
func (s *Scratch) Detach() {
	s.sched.Detach()
	s.alloc.Detach()
}

// Apply is the package's Apply on this scratch.
func (s *Scratch) Apply(m *mach.Machine, af *asm.Func, kind Kind, opts Options) (*Stats, error) {
	return apply(m, af, kind, opts, &s.alloc, func() *sched.Scratch { return &s.sched })
}

// apply is Apply with the scratch each block is built and scheduled on
// supplied by the caller, block by block: the reuse test hands every
// block a fresh one and compares.
func apply(m *mach.Machine, af *asm.Func, kind Kind, opts Options, ra *regalloc.Scratch, scratch func() *sched.Scratch) (*Stats, error) {
	st := &Stats{}

	// Every pass starts from the caller's design choices; the per-function
	// budget context reaches every bounded loop.
	base := sched.Options{
		CurrentCycleOnly: opts.CurrentCycleOnly,
		Dag:              cdag.Options{NoAnti: opts.NoAnti},
		Context:          opts.Deadline,
	}

	// Parameter binding moves come first; they are ordinary instructions
	// that scheduling and allocation see.
	if err := insertEntryMoves(m, af); err != nil {
		return nil, err
	}

	// Every strategy ends the same way, allocation and then a scheduling
	// pass over the allocated code; they differ in what comes first and
	// in the options of the two.
	post := base
	var aopts regalloc.Options
	switch kind {
	case Naive, Local:
		aopts.SpillGlobals = kind == Local
		post.FIFO = true

	case Safe:
		post.Sequential, post.NoPack, post.MaxLive = true, true, nil

	case IPS:
		// Prepass: schedule with a limit on local register use.
		pre := base
		pre.MaxLive = map[*mach.RegSet]int{}
		for _, rs := range m.RegSets {
			if k := m.NumAllocableIn(rs); k > 0 {
				pre.MaxLive[rs] = max(k-1, 2)
			}
		}
		_, cross := af.PseudoHomes()
		pre.LiveOut = sched.LiveOutPseudos(af, cross)
		if err := scheduleAll(m, af, scratch, st, opts.Inject, pre, true); err != nil {
			return nil, err
		}

	case RASE:
		if err := raseEstimates(m, af, scratch, st, base); err != nil {
			return nil, err
		}
	}
	if err := allocate(m, af, ra, st, opts, aopts); err != nil {
		return nil, err
	}
	if err := scheduleAll(m, af, scratch, st, opts.Inject, post, false); err != nil {
		return nil, err
	}

	if opts.FillDelaySlots && kind != Safe {
		st.SlotsFilled = sched.FillDelaySlots(m, af)
	}
	if err := opts.Inject.Fire("frame"); err != nil {
		return nil, err
	}
	return st, frame(m, af)
}

func allocate(m *mach.Machine, af *asm.Func, ra *regalloc.Scratch, st *Stats, opts Options, aopts regalloc.Options) error {
	if err := opts.Inject.Fire("regalloc"); err != nil {
		return err
	}
	aopts.Context = opts.Deadline
	res, err := ra.AllocateOpts(m, af, aopts)
	if err != nil {
		return err
	}
	st.Spills += res.Spills
	st.SpillSlots = res.SpillSlots
	st.AllocRounds += res.Rounds
	af.SpillSlots = res.SpillSlots
	af.CalleeSaved = res.UsedCalleeSave
	elideMoves(af)
	return nil
}

// elideMoves drops register moves whose source and destination were
// colored identically.
func elideMoves(af *asm.Func) {
	for _, b := range af.Blocks {
		out := b.Insts[:0]
		for _, in := range b.Insts {
			if in.Tmpl.Move && len(in.Tmpl.DefOps) == 1 && len(in.Tmpl.UseOps) >= 1 {
				d := in.Args[in.Tmpl.DefOps[0]]
				s := in.Args[in.Tmpl.UseOps[0]]
				if d.Kind == asm.OpPhys && d == s {
					continue
				}
			}
			out = append(out, in)
		}
		b.Insts = out
	}
}

// scheduleAll schedules every block and records the summed estimate.
// A PRE-allocation pass (prepass) has one safeguard: blocks containing
// explicitly-advanced-pipeline sub-operations keep their selection
// order. A prepass reorder would interleave temporal sequences; the
// allocator's register reuse then adds cross-sequence anti-dependences
// that can make the interleaving unschedulable under Rule 1. The
// post-allocation pass, which starts from sequence-contiguous order,
// performs the temporal overlap instead (as Postpass does).
func scheduleAll(m *mach.Machine, af *asm.Func, scratch func() *sched.Scratch, st *Stats, inj *faults.Injector, opts sched.Options, prepass bool) error {
	if err := inj.Fire("sched"); err != nil {
		return err
	}
	total := 0
	for _, b := range af.Blocks {
		stripNops(m, b)
		o := opts
		if prepass && blockHasTemporal(b) {
			// Strict order: even FIFO priority would interleave
			// sequences by filling stall cycles with later sub-ops.
			o.Sequential = true
			o.MaxLive = nil
		}
		c, err := scratch().Schedule(m, af, b, o)
		if err != nil {
			return err
		}
		total += c
		st.SchedulePasses++
	}
	st.EstimatedCycles = total
	return nil
}

func blockHasTemporal(b *asm.Block) bool {
	for _, in := range b.Insts {
		if len(in.Tmpl.ReadsTRegs) > 0 || len(in.Tmpl.WritesTRegs) > 0 {
			return true
		}
	}
	return false
}

// stripNops removes delay-slot nops from an earlier scheduling pass so a
// block can be rescheduled.
func stripNops(m *mach.Machine, b *asm.Block) {
	out := b.Insts[:0]
	for _, in := range b.Insts {
		if in.Tmpl == m.Nop && len(in.Args) == 0 {
			continue
		}
		in.Cycle = -1
		out = append(out, in)
	}
	b.Insts = out
}

// raseEstimates implements RASE's estimate pass: for each block, the
// scheduler is invoked to measure the cost of running with one register
// fewer than the allocator has; local pseudo-register spill costs are
// scaled by that penalty, so the allocator spends registers where the
// schedule needs them. (The paper replaces local pseudos with per-block
// register-usage nodes; the spill-cost scaling is our equivalent over
// the same Chaitin-Briggs allocator.)
func raseEstimates(m *mach.Machine, af *asm.Func, scratch func() *sched.Scratch, st *Stats, opts sched.Options) error {
	home, cross := af.PseudoHomes()
	tight := opts
	tight.MaxLive = map[*mach.RegSet]int{}
	for _, rs := range m.RegSets {
		if k := m.NumAllocableIn(rs); k > 2 {
			tight.MaxLive[rs] = k - 2
		}
	}
	tight.LiveOut = sched.LiveOutPseudos(af, cross)
	for _, b := range af.Blocks {
		// Both estimates schedule the same block state, so they share
		// one code DAG: the scheduler only reads it.
		sc := scratch()
		g := sc.Dag.Build(m, b, opts.Dag)
		free, err := sc.Run(m, af, b, g, opts)
		if err != nil {
			return err
		}
		st.SchedulePasses++
		constrained, err := sc.Run(m, af, b, g, tight)
		if err != nil {
			return err
		}
		st.SchedulePasses++

		penalty := float64(constrained.Cost-free.Cost) + 1
		if penalty < 1 {
			penalty = 1
		}
		// Pseudos local to this block pay the penalty.
		for p, hb := range home {
			if hb == b && !cross[p] {
				af.Pseudos[p].SpillCost *= penalty
			}
		}
		b.SchedCost = free.Cost
	}
	return nil
}

// insertEntryMoves binds incoming parameters: moves from CWVM argument
// registers into parameter pseudos, loads for stack-resident arguments,
// and stores for address-taken parameters that live in the frame. They
// go in front of block 0's code.
func insertEntryMoves(m *mach.Machine, af *asm.Func) error {
	fn := af.IR
	if fn == nil || len(fn.Params) == 0 {
		return nil
	}
	fp := m.Cwvm.FP.Phys()
	var buf [8]*asm.Inst
	entry := buf[:0]
	types := make([]ir.Type, len(fn.Params))
	for i, sym := range fn.Params {
		types[i] = sym.Type
	}
	locs := m.Cwvm.AssignArgs(types)

	for i, sym := range fn.Params {
		t := sym.Type
		loc := locs[i]
		reg := fn.ParamRegs[i]
		switch {
		case loc.InReg && reg != ir.NoReg:
			p, err := pseudoOf(af, reg)
			if err != nil {
				return err
			}
			mv, err := sel.BuildMove(m, af, asm.Reg(p), asm.Phys(loc.Ref.Phys()))
			if err != nil {
				return err
			}
			entry = append(entry, mv...)

		case loc.InReg && reg == ir.NoReg:
			// Address-taken parameter: store the incoming register into
			// its frame home.
			st, err := sel.BuildStore(m, af, asm.Phys(loc.Ref.Phys()), fp, int64(sym.Offset), t)
			if err != nil {
				return err
			}
			entry = append(entry, st)

		case reg != ir.NoReg:
			// Stack argument into a register pseudo.
			p, err := pseudoOf(af, reg)
			if err != nil {
				return err
			}
			ld, err := sel.BuildLoad(m, af, asm.Reg(p), fp, int64(loc.StackOff), t)
			if err != nil {
				return err
			}
			entry = append(entry, ld)

		default:
			// Stack argument that is address-taken: copy via a temporary.
			set := m.Cwvm.GeneralSet(t)
			tmp := af.NewPseudo(set, ir.NoReg)
			ld, err := sel.BuildLoad(m, af, asm.Reg(tmp), fp, int64(loc.StackOff), t)
			if err != nil {
				return err
			}
			stc, err := sel.BuildStore(m, af, asm.Reg(tmp), fp, int64(sym.Offset), t)
			if err != nil {
				return err
			}
			entry = append(entry, ld, stc)
		}
	}

	if len(af.Blocks) == 0 {
		return nil
	}
	b0 := af.Blocks[0]
	b0.Insts = af.List(entry, b0.Insts)
	return nil
}

func pseudoOf(af *asm.Func, r ir.RegID) (asm.PseudoID, error) {
	for i := range af.Pseudos {
		if af.Pseudos[i].IR == r {
			return asm.PseudoID(i), nil
		}
	}
	return asm.NoPseudo, fmt.Errorf("%s: no pseudo for IL register t%d", af.Name, r)
}
