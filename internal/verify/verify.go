// Package verify is a machine-description-driven verifier for emitted
// code: it takes a compiled function plus its machine tables and
// statically re-checks every invariant the scheduler and register
// allocator are supposed to establish, reporting structured
// per-instruction findings instead of silently trusting the back end.
//
// The checks are derived from the same Maril constructs that drive code
// generation — latencies and %aux overrides, per-cycle resource
// vectors, long-word packing classes, clocks and +temporal latches,
// delay-slot counts, and the CWVM register conventions — but the
// verifier shares no code with internal/sched, internal/cdag or
// internal/regalloc: it replays the emitted schedule from the machine
// tables alone, so a bug in the scheduler's dependence DAG or the
// allocator's interference graph cannot hide itself. See DESIGN.md §8
// for the invariant catalogue.
//
// Invariants checked per function:
//
//   - schedule:  issue cycles are nondecreasing within a block.
//   - latency:   every data-dependent consumer issues at least the
//     producer's (auxiliary-adjusted) latency later.
//   - resource:  replaying the per-cycle resource vectors over the
//     block never oversubscribes a stage, and every multi-op word is a
//     legal long-word packing (nonempty class intersection).
//   - temporal:  every +temporal latch read pairs with the same
//     sequence's write, after its latency, and no intervening tick of
//     the latch's clock destroyed the value (EAP advancement).
//   - control:   every control transfer has its delay slots present,
//     adjacent, and filled with nops or slot-safe instructions.
//   - register:  a dataflow pass over emitted code proves no use of a
//     possibly-undefined register, no call clobbering a live value, no
//     two writes to one register in a word, and no unsaved callee-save
//     register being overwritten.
package verify

import (
	"fmt"
	"strings"

	"marion/internal/asm"
	"marion/internal/ir"
	"marion/internal/mach"
)

// Kind classifies a finding by the invariant it violates.
type Kind uint8

const (
	kindSchedule Kind = iota // malformed schedule (non-monotone cycles)
	kindLatency              // data dependence issued inside the latency window
	kindResource             // resource oversubscription / illegal packing
	kindTemporal             // temporal-latch / clock-advancement violation
	kindControl              // delay-slot structure violation
	kindRegister             // undefined use / live-value clobber
)

func (k Kind) String() string {
	switch k {
	case kindSchedule:
		return "schedule"
	case kindLatency:
		return "latency"
	case kindResource:
		return "resource"
	case kindTemporal:
		return "temporal"
	case kindControl:
		return "control"
	case kindRegister:
		return "register"
	}
	return fmt.Sprintf("kind%d", int(k))
}

// Finding is one invariant violation, anchored to an instruction.
type Finding struct {
	Kind  Kind
	Func  string
	Block string
	Index int // instruction index within the block
	Cycle int // issue cycle on the block's in-order timeline, -1 if unknown
	Msg   string
}

func (f Finding) String() string {
	at := fmt.Sprintf("%s/%s#%d", f.Func, f.Block, f.Index)
	if f.Cycle >= 0 {
		at += fmt.Sprintf("@%d", f.Cycle)
	}
	return fmt.Sprintf("%s: %s: %s", at, f.Kind, f.Msg)
}

// Report accumulates the findings for one function (or, merged, for a
// whole program). A nil *Report reports no findings.
type Report struct {
	Findings []Finding
}

// Empty reports whether the report has no findings.
func (r *Report) Empty() bool { return r == nil || len(r.Findings) == 0 }

// Count returns the number of findings of one kind.
func (r *Report) Count(k Kind) int {
	if r == nil {
		return 0
	}
	n := 0
	for _, f := range r.Findings {
		if f.Kind == k {
			n++
		}
	}
	return n
}

// Merge appends another report's findings.
func (r *Report) Merge(o *Report) {
	if o != nil {
		r.Findings = append(r.Findings, o.Findings...)
	}
}

// Err returns nil for an empty report, or an error listing every
// finding.
func (r *Report) Err() error {
	if r.Empty() {
		return nil
	}
	return fmt.Errorf("verify: %d finding(s):\n%s", len(r.Findings), r.String())
}

func (r *Report) String() string {
	if r == nil {
		return ""
	}
	var sb strings.Builder
	for i, f := range r.Findings {
		if i > 0 {
			sb.WriteByte('\n')
		}
		sb.WriteString("  " + f.String())
	}
	return sb.String()
}

// Options tune the verifier to the scheduling mode that produced the
// code, so the verifier checks exactly the invariants the scheduler was
// asked to establish.
type Options struct {
	// IssueOnly mirrors sched.Options.CurrentCycleOnly: structural
	// hazards are checked only at each instruction's issue cycle
	// (later cycles of its resource vector are reserved but may
	// legally collide, as on a machine with hardware interlocks).
	IssueOnly bool
}

// Func verifies one compiled function against its machine description
// and returns the findings (never nil), on a scratch of its own.
func Func(m *mach.Machine, af *asm.Func, opts Options) *Report {
	return new(Scratch).Func(m, af, opts)
}

// Scratch is the storage verification works in: the verifier's dense
// tables, resized to each function and cleared, so no stamp or entry a
// function leaves can match in the next. The zero value is ready to
// use. Verifying function after function on one scratch allocates only
// the reports and what outgrows an earlier function, and finds what a
// fresh scratch finds; a scratch has one owner and is never shared
// between goroutines.
type Scratch struct{ v verifier }

// Func is the package's Func on this scratch.
func (s *Scratch) Func(m *mach.Machine, af *asm.Func, opts Options) *Report {
	v := &s.v
	v.m, v.af, v.opts, v.report = m, af, opts, &Report{}
	if af.Text != nil {
		// A cache hit has no instructions to replay: refuse it rather
		// than pass it for want of anything to check.
		v.report.Findings = append(v.report.Findings, Finding{Kind: kindSchedule, Func: af.Name, Cycle: -1,
			Msg: "printed text only (a cache hit): nothing to verify; compile without a cache"})
		return v.report
	}
	v.block, v.word = 0, 0
	v.run()
	return v.report
}

// Detach drops what the scratch holds of the function it verified last
// — the function, its report and the CFG map's blocks — keeping the
// tables' storage up to the bound. The views carved from ints and slab
// go with it; alloc carves them again.
func (s *Scratch) Detach() {
	v := &s.v
	*v = verifier{
		ints: ir.Trim(v.ints), locs: ir.Trim(v.locs), latches: ir.Trim(v.latches),
		busy: ir.Trim(v.busy), slab: ir.Trim(v.slab), blockAt: ir.KeepMap(v.blockAt),
	}
}

// verifier carries the per-function verification state in dense tables
// sized per call from the function, not per-block maps or
// per-instruction slices. A dataflow location is a physical register, or
// NumPhys+p for pseudo-register p (pre-allocation code in unit tests).
type verifier struct {
	m      *mach.Machine
	af     *asm.Func
	opts   Options
	report *Report

	// times[first[b]+i] is the issue cycle of instruction i of block b
	// on the block's in-order timeline (see timeline.go).
	times, first []int
	// The CFG: block b's successors are succ[succAt[b]:succAt[b+1]].
	succAt, succ []int
	// snapAt[first[b]+j] numbers (from 1) the live-set snapshot taken
	// before instruction j for a call's clobber check (checkClobbers).
	snapAt []int
	tickAt []int // per clock: the word stamp of its last tick
	ints   []int // the slab the six above are carved from

	locs    []loc             // per dataflow location, stamped per block/word
	latches []latchOwner      // per register set (latch) in m.RegSets
	busy    []mach.ResSet     // stages claimed, per block cycle mod len(busy)
	bits    []uint64          // bitset slab, carved by newSets
	snaps   sets              // one bitset per clobber snapshot
	slab    []uint64          // the storage bits and snaps are carved from
	blockAt map[*ir.Block]int // buildCFG's index of af.Blocks

	block, word int32 // stamps of the current block and word
	pseudo      [1]mach.PhysID
}

func (v *verifier) run() {
	v.alloc()
	for bi, b := range v.af.Blocks {
		times := v.timeline(bi, b)
		v.checkDataHazards(bi, b, times)
		v.checkResources(bi, b, times)
		v.checkControl(bi, b, times)
	}
	if !v.buildCFG() || len(v.af.Blocks) == 0 {
		return
	}
	use, def := v.genKill()
	v.checkDefiniteAssignment(def)
	v.checkClobbers(use, def)
	v.checkCalleeSaveDiscipline()
}

// alloc sizes every table for the function in one pass over its
// instructions.
func (v *verifier) alloc() {
	nb, nInst, nEdge, nCall, nPseudo, maxRes := len(v.af.Blocks), 0, 0, 0, 0, 0
	for _, b := range v.af.Blocks {
		nInst += len(b.Insts)
		if b.IR != nil {
			nEdge += len(b.IR.Succs)
		}
		for _, in := range b.Insts {
			maxRes = max(maxRes, len(in.Tmpl.ResVec))
			if clobbers(in) {
				nCall++
			}
			for _, o := range in.Args {
				if o.Kind == asm.OpPseudo || o.Kind == asm.OpPseudoHalf {
					nPseudo = max(nPseudo, int(o.Pseudo)+1)
				}
			}
		}
	}
	nSnapAt := nInst * min(nCall, 1) // read only for calls
	v.ints = ir.Grow(v.ints, nInst+nSnapAt+2*(nb+1)+nEdge+len(v.m.Clocks))
	ints := v.ints
	carve := func(n int) []int {
		s := ints[:n:n]
		ints = ints[n:]
		return s
	}
	v.times, v.snapAt, v.first, v.succAt = carve(nInst), carve(nSnapAt), carve(nb+1), carve(nb+1)
	v.succ, v.tickAt = carve(nEdge), carve(len(v.m.Clocks))
	v.locs = ir.Grow(v.locs, v.m.NumPhys+nPseudo)
	v.latches = ir.Grow(v.latches, len(v.m.RegSets))
	w := (v.m.NumPhys + 63) / 64
	// Bitsets: per block DA in-set, use, def, live-in and live-out; five
	// scratch/whole-function sets; one snapshot per call.
	v.slab = ir.Grow(v.slab, w*(5*nb+5+nCall))
	v.bits, v.snaps = v.slab[:w*(5*nb+5)], sets{w: w, words: v.slab[w*(5*nb+5):]}
	v.busy = ir.Grow(v.busy, max(maxRes, 1))
}

func (v *verifier) addf(bi, idx, cycle int, k Kind, format string, args ...any) {
	v.report.Findings = append(v.report.Findings, Finding{
		Kind:  k,
		Func:  v.af.Name,
		Block: v.af.Blocks[bi].Label(),
		Index: idx,
		Cycle: cycle,
		Msg:   fmt.Sprintf(format, args...),
	})
}

// keys returns the dataflow locations an operand touches: a physical
// register expands to every alias (wide/narrow overlap). The result is
// valid until the next call.
func (v *verifier) keys(o asm.Operand) []mach.PhysID {
	switch o.Kind {
	case asm.OpPhys:
		return v.m.Aliases(o.Phys)
	case asm.OpPseudo, asm.OpPseudoHalf:
		v.pseudo[0] = mach.PhysID(v.m.NumPhys + int(o.Pseudo))
		return v.pseudo[:]
	}
	return nil
}

// isHardPhys reports whether the operand is a hard-wired register (a
// read of which carries no dependence).
func (v *verifier) isHardPhys(o asm.Operand) bool {
	if o.Kind != asm.OpPhys {
		return false
	}
	_, hard := v.m.IsHard(o.Phys)
	return hard
}

// latencyOf computes the required issue distance from a producing
// instruction to a consumer, applying the description's %aux overrides.
// This is derived directly from the machine tables (m.AuxLats), not
// from the scheduler's DAG builder.
func (v *verifier) latencyOf(d, in *asm.Inst) int {
	lat := d.Tmpl.Latency
	for _, a := range v.m.AuxLats {
		if a.First != d.Tmpl.Mnemonic || a.Second != in.Tmpl.Mnemonic {
			continue
		}
		if a.FirstOp == 0 && a.SecondOp == 0 {
			lat = a.Latency // unconditional form
			continue
		}
		fi, si := a.FirstOp-1, a.SecondOp-1
		if fi >= 0 && si >= 0 && fi < len(d.Args) && si < len(in.Args) &&
			d.Args[fi] == in.Args[si] {
			lat = a.Latency
		}
	}
	return lat
}

// resNames renders a resource set for a finding message.
func (v *verifier) resNames(rs mach.ResSet) string {
	var names []string
	for i, name := range v.m.Resources {
		if rs.Has(mach.ResID(i)) {
			names = append(names, name)
		}
	}
	return strings.Join(names, ",")
}

// regName renders a dataflow location for a finding message.
func (v *verifier) regName(k mach.PhysID) string {
	if int(k) >= v.m.NumPhys {
		return fmt.Sprintf("t%d", int(k)-v.m.NumPhys)
	}
	return v.m.PhysName(k)
}
