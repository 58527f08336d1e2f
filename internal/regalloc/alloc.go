package regalloc

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"

	"marion/internal/asm"
	"marion/internal/faults"
	"marion/internal/ir"
	"marion/internal/mach"
	"marion/internal/sel"
)

// defaultMaxRounds is the build-color-spill iteration cap when
// Options.MaxRounds is unset. Real allocations converge in a handful of
// rounds; a description whose spill code itself cannot be colored would
// otherwise iterate forever.
const defaultMaxRounds = 24

// maxPseudos caps the pseudo-registers of one function (spill
// temporaries included). The interference matrix takes n(n-1)/2 bits:
// 256 MiB here, and a function a request body can hold would otherwise
// ask for gigabytes and take the process down with it.
const maxPseudos = 1 << 16

// Result describes a completed allocation.
type Result struct {
	// Assignment[p] is pseudo p's physical register: mach.NoPhys for a
	// pseudo no instruction mentions (spilled pseudos are rewritten away
	// before the final round).
	Assignment []mach.PhysID
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
	// typed budget error (errors.Is faults.ErrExceeded) instead of
	// iterating forever on a non-convergent machine description.
	// 0 means defaultMaxRounds.
	MaxRounds int

	// Context, when non-nil, is polled between rounds; once it is done
	// its error is returned, wrapped with the round allocation stopped
	// at and never typed as a budget (the driver decides that).
	Context context.Context
}

// Allocate colors every pseudo-register of af, inserting spill code as
// needed. Operands are rewritten in place to physical registers.
func Allocate(m *mach.Machine, af *asm.Func) (*Result, error) {
	return new(Scratch).AllocateOpts(m, af, Options{})
}

// Scratch is the storage allocation works in: the machine's colouring
// facts, built once per machine, and the per-round tables, resized to
// each function and cleared. The zero value is ready to use. Allocating
// function after function on one scratch allocates only the Result and
// what outgrows an earlier function, and gives what a fresh scratch
// gives; a scratch has one owner and is never shared between
// goroutines.
type Scratch struct{ a allocator }

// AllocateOpts is Allocate with explicit options, on this scratch.
func (s *Scratch) AllocateOpts(m *mach.Machine, af *asm.Func, opts Options) (*Result, error) {
	a := s.a.reset(m, af)
	res := a.res
	if opts.SpillGlobals {
		if err := a.spillGlobals(); err != nil {
			return nil, err
		}
	}
	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = defaultMaxRounds
	}
	for round := 0; ; round++ {
		if round >= maxRounds {
			return nil, &faults.LimitError{Stage: "regalloc", Steps: maxRounds,
				Detail: fmt.Sprintf("%s: build-color-spill did not converge", af.Name)}
		}
		if opts.Context != nil {
			if err := opts.Context.Err(); err != nil {
				return nil, fmt.Errorf("regalloc: %s: stopped after %d round(s): %w", af.Name, round, err)
			}
		}
		if n := len(af.Pseudos); n > maxPseudos {
			return nil, &faults.LimitError{Stage: "regalloc", Steps: maxPseudos,
				Detail: fmt.Sprintf("%s: %d pseudo-registers", af.Name, n)}
		}
		res.Rounds = round + 1
		spilled, err := a.colorOnce()
		if err != nil {
			return nil, err
		}
		if len(spilled) == 0 {
			break
		}
		res.Spills += len(spilled)
		if err := a.insertSpills(spilled); err != nil {
			return nil, err
		}
	}
	a.rewrite()
	res.UsedCalleeSave = a.usedCalleeSave()
	return res, nil
}

// Detach drops what the scratch holds of the function it allocated
// last, keeping the tables' storage up to the bound and the machines'
// facts. The bitsets carved from slab go with it; every round carves
// them again.
func (s *Scratch) Detach() {
	a := &s.a
	*a = allocator{
		facts: a.facts, known: a.known,
		succStart: ir.Trim(a.succStart), succ: ir.Trim(a.succ), byID: ir.Trim(a.byID), set: ir.Trim(a.set),
		slab: ir.Trim(a.slab), adjStart: ir.Trim(a.adjStart), adj: ir.Trim(a.adj), deg: ir.Trim(a.deg),
		stack: ir.Trim(a.stack), slot: ir.Trim(a.slot),
		list: ir.Keep(a.list), loads: ir.Keep(a.loads), stores: ir.Keep(a.stores),
	}
}

// spillGlobals sends every pseudo that more than one block mentions to
// memory, as a round's spill list would be.
func (a *allocator) spillGlobals() error {
	var globals []asm.PseudoID
	_, cross := a.af.PseudoHomes()
	for p, c := range cross {
		if c {
			globals = append(globals, asm.PseudoID(p))
		}
	}
	a.res.Spills += len(globals)
	return a.insertSpills(globals)
}

// allocator is the state of one AllocateOpts call: the machine's
// colouring facts, built once per machine, and scratch sized to the
// function, reused by every build-colour-spill round and, through a
// Scratch, by the next call.
type allocator struct {
	// facts are the colouring facts of the machine being allocated for,
	// one of known: the facts of every machine the scratch has met, the
	// most recent last, at most maxKnown of them.
	facts
	known []facts

	af  *asm.Func
	res *Result

	// Per function: the CFG successors of block i are
	// succ[succStart[i]:succStart[i+1]], as indices into af.Blocks;
	// byID is every block index ordered by its IR block's ID.
	succStart []int32
	succ      []int32
	byID      []int32

	// Per pseudo, over all rounds: index of its register set.
	set []uint8

	// Per round (resize carves the bitsets out of one slab).
	n         int // len(af.Pseudos) this round
	slab      []uint64
	keyWords  int      // words of a liveSet row: NumPhys+n bits
	liveRows  []uint64 // per block: live-in row, live-out row
	live      liveSet  // the row being stepped
	matrix    bitset   // interference, triangular: bit hi(hi-1)/2+lo for lo < hi
	forbid    []uint64 // per pseudo: physical registers it may not take
	present   bitset   // pseudos some instruction mentions
	removed   bitset   // pseudos simplify has pushed (or that are not present)
	low       bitset   // un-removed pseudos with deg < k
	blocked   bitset   // select's scratch, over PhysID
	adjStart  []int32  // adjacency of p is adj[adjStart[p]:adjStart[p+1]]
	adj       []asm.PseudoID
	deg       []int // weighted degree among un-removed neighbours, plus |forbid|
	stack     []asm.PseudoID
	remaining int

	// insertSpills' scratch: per pseudo, its spill slot, -1 when not
	// being spilled; a block's rewritten code; one instruction's spill
	// loads and stores.
	slot                []int32
	list, loads, stores []*asm.Inst
}

// facts are one machine's colouring facts. Register sets are named by
// their index in m.RegSets.
type facts struct {
	m          *mach.Machine
	physWords  int             // words of a bitset over PhysID
	k          []int           // per set: number of colours
	colors     [][]mach.PhysID // per set: colours, caller-save first, then ascending
	weight     []int           // [mine*len(k)+nb]: degreeWeight of a neighbour in set nb
	calleeSave bitset          // over PhysID
}

// maxKnown bounds the machines a scratch keeps facts for: more than the
// shipped targets, so a scratch that meets them in turn builds each
// machine's facts once.
const maxKnown = 8

// reset readies a for allocating af: m's facts, built when a has not
// met m before, and the function's successor lists. The per-round
// tables are resized and cleared by every build.
func (a *allocator) reset(m *mach.Machine, af *asm.Func) *allocator {
	if a.m != m {
		a.facts = a.factsFor(m)
	}
	a.af, a.res = af, &Result{}
	a.set = ir.Grow(a.set, len(af.Pseudos))[:0]
	a.successors()
	return a
}

// factsFor returns m's facts from known, building them (and forgetting
// the oldest machine's when known is full) the first time.
func (a *allocator) factsFor(m *mach.Machine) facts {
	for _, f := range a.known {
		if f.m == m {
			return f
		}
	}
	if len(a.known) == maxKnown {
		a.known = append(a.known[:0], a.known[1:]...)
	}
	f := machineFacts(m)
	a.known = append(a.known, f)
	return f
}

// machineFacts derives the machine's colouring facts: K and the colour
// order per register set, caller-save first (so callee-save stays
// untouched when possible).
func machineFacts(m *mach.Machine) facts {
	a := facts{m: m, physWords: words(m.NumPhys)}
	a.calleeSave = make(bitset, a.physWords)
	for _, rr := range m.Cwvm.CalleeSave {
		for i := rr.Lo; i <= rr.Hi; i++ {
			a.calleeSave.set(int(rr.Set.Phys(i)))
		}
	}
	// Registers that must never be allocated, even if a description's
	// %allocable ranges (or their %equiv overlaps) include them: the
	// stack/frame pointers, the return address, the global pointer and
	// hard-wired registers.
	reserved := make(bitset, a.physWords)
	addReserved := func(r mach.RegRef) {
		if r.Valid() {
			for _, al := range m.Aliases(r.Phys()) {
				reserved.set(int(al))
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
	sets := len(m.RegSets)
	a.k = make([]int, sets)
	a.colors = make([][]mach.PhysID, sets)
	a.weight = make([]int, sets*sets)
	for si, rs := range m.RegSets {
		regs := m.AllocableIn(rs)
		keep := regs[:0]
	next:
		for _, r := range regs {
			for _, al := range m.Aliases(r) {
				if reserved.has(int(al)) {
					continue next
				}
			}
			keep = append(keep, r)
		}
		sort.Slice(keep, func(i, j int) bool {
			ci, cj := a.calleeSave.has(int(keep[i])), a.calleeSave.has(int(keep[j]))
			if ci != cj {
				return !ci
			}
			return keep[i] < keep[j]
		})
		a.k[si] = len(keep)
		a.colors[si] = keep
		for sj, nb := range m.RegSets {
			a.weight[si*sets+sj] = degreeWeight(rs, nb)
		}
	}
	return a
}

// successors resolves every block's CFG successors to block indices
// through the IR block's identity: its ID (whatever the IL text's label
// said) finds it in byID, and a successor outside af is dropped.
func (a *allocator) successors() {
	blocks := a.af.Blocks
	a.byID = ir.Grow(a.byID, len(blocks))
	edges := 0
	for i, b := range blocks {
		a.byID[i] = int32(i)
		edges += len(b.IR.Succs)
	}
	slices.SortFunc(a.byID, func(x, y int32) int { return cmp.Compare(blocks[x].IR.ID, blocks[y].IR.ID) })
	a.succStart = ir.Grow(a.succStart, len(blocks)+1)
	a.succ = ir.Grow(a.succ, edges)[:0]
	for i, b := range blocks {
		for _, s := range b.IR.Succs {
			j, _ := slices.BinarySearchFunc(a.byID, s.ID, func(x int32, id int) int { return cmp.Compare(blocks[x].IR.ID, id) })
			for ; j < len(a.byID) && blocks[a.byID[j]].IR.ID == s.ID; j++ {
				if blocks[a.byID[j]].IR == s {
					a.succ = append(a.succ, a.byID[j])
					break
				}
			}
		}
		a.succStart[i+1] = int32(len(a.succ))
	}
}

// resize sizes the round's scratch to the function as it now stands
// (insertSpills adds temporaries between rounds) and clears it.
func (a *allocator) resize() {
	n := len(a.af.Pseudos)
	if done := len(a.set); done < n {
		a.set = slices.Grow(a.set, n-done)
		for _, info := range a.af.Pseudos[done:] {
			si := 0
			for a.m.RegSets[si] != info.Set {
				si++
			}
			a.set = append(a.set, uint8(si))
		}
	}
	a.n = n
	a.keyWords = words(a.m.NumPhys + n)
	blocks, pw := len(a.af.Blocks), words(n)
	a.slab = ir.Grow(a.slab, (2*blocks+1)*a.keyWords+words(n*(n-1)/2)+n*a.physWords+3*pw+a.physWords)
	rest := a.slab
	take := func(k int) []uint64 {
		s := rest[:k:k]
		rest = rest[k:]
		return s
	}
	a.liveRows = take(2 * blocks * a.keyWords)
	a.live = take(a.keyWords)
	a.matrix = take(words(n * (n - 1) / 2))
	a.forbid = take(n * a.physWords)
	a.present, a.removed, a.low = take(pw), take(pw), take(pw)
	a.blocked = take(a.physWords)
	a.adjStart = ir.Grow(a.adjStart, n+1)
	a.deg = ir.Grow(a.deg, n)
	a.stack = ir.Grow(a.stack, n)[:0]
}

func (a *allocator) liveIn(block int) liveSet {
	return a.liveRows[2*block*a.keyWords:][:a.keyWords]
}

func (a *allocator) liveOut(block int) liveSet {
	return a.liveRows[(2*block+1)*a.keyWords:][:a.keyWords]
}

func (a *allocator) forbidRow(p int) bitset {
	return a.forbid[p*a.physWords:][:a.physWords]
}

// build constructs the interference graph from liveness and sets up
// simplify: adjacency vectors, weighted degrees, the low-degree set.
func (a *allocator) build() {
	a.resize()
	m, af := a.m, a.af
	// Only pseudos some instruction still mentions take part.
	for _, b := range af.Blocks {
		for _, in := range b.Insts {
			for _, arg := range in.Args {
				if arg.Kind == asm.OpPseudo || arg.Kind == asm.OpPseudoHalf {
					a.present.set(int(arg.Pseudo))
				}
			}
		}
	}
	a.liveness()

	// Pass 1: the bit matrix suppresses duplicate edges while adjStart
	// counts each node's neighbours.
	for bi, b := range af.Blocks {
		copy(a.live, a.liveOut(bi))
		for j := len(b.Insts) - 1; j >= 0; j-- {
			in := b.Insts[j]
			// Chaitin's move exception: the destination of a copy does
			// not interfere with its source.
			moveSrc, haveSrc := moveSource(m, in)
			if !haveSrc {
				moveSrc = -1
			}
			for d := in.RegDefs(m); d.Next(); {
				a.interfere(d.Key, moveSrc)
			}
			a.live.step(m, in)
		}
	}

	// Pass 2: one adjacency slab, filled from the matrix rows.
	total := int32(0)
	for p := 0; p < a.n; p++ {
		total, a.adjStart[p] = total+a.adjStart[p], total
	}
	a.adjStart[a.n] = total
	a.adj = ir.Grow(a.adj, int(total))
	fill := a.deg    // borrowed as the per-node fill cursor
	hi, base := 1, 0 // matrix row hi is bits [base, base+hi)
	for i := a.matrix.next(0); i >= 0; i = a.matrix.next(i + 1) {
		for i >= base+hi {
			base += hi
			hi++
		}
		lo := i - base
		a.adj[int(a.adjStart[hi])+fill[hi]] = asm.PseudoID(lo)
		a.adj[int(a.adjStart[lo])+fill[lo]] = asm.PseudoID(hi)
		fill[hi]++
		fill[lo]++
	}

	sets := len(a.k)
	a.remaining = 0
	for p := 0; p < a.n; p++ {
		if !a.present.has(p) {
			a.removed.set(p)
			continue
		}
		// Forbidden physical registers eat colors permanently.
		d := a.forbidRow(p).count()
		for _, nb := range a.neighbours(p) {
			d += a.weight[int(a.set[p])*sets+int(a.set[nb])]
		}
		a.deg[p] = d
		if d < a.k[a.set[p]] {
			a.low.set(p)
		}
		a.remaining++
	}
}

func (a *allocator) neighbours(p int) []asm.PseudoID {
	return a.adj[a.adjStart[p]:a.adjStart[p+1]]
}

// interfere records that register d, defined here, conflicts with
// everything in a.live except itself and the move source: a pseudo pair
// becomes an edge, a pseudo against a physical register forbids that
// register's aliases to the pseudo.
func (a *allocator) interfere(d, moveSrc asm.RegKey) {
	m := a.m
	for i := a.live.next(0); i >= 0; i = a.live.next(i + 1) {
		switch l := asm.RegKey(i); {
		case l == d || l == moveSrc:
		case d.IsPseudo(m) && l.IsPseudo(m):
			a.addEdge(int(d.Pseudo(m)), int(l.Pseudo(m)))
		case d.IsPseudo(m):
			a.addForbid(d.Pseudo(m), l.Phys())
		case l.IsPseudo(m):
			a.addForbid(l.Pseudo(m), d.Phys())
		}
	}
}

func (a *allocator) addForbid(p asm.PseudoID, phys mach.PhysID) {
	row := a.forbidRow(int(p))
	for _, al := range a.m.Aliases(phys) {
		row.set(int(al))
	}
}

func (a *allocator) addEdge(p, q int) {
	if p < q {
		p, q = q, p
	}
	if i := p*(p-1)/2 + q; !a.matrix.has(i) {
		a.matrix.set(i)
		a.adjStart[p]++
		a.adjStart[q]++
	}
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
func (a *allocator) colorOnce() ([]asm.PseudoID, error) {
	a.build()
	for a.remaining > 0 {
		a.remove(a.pick())
	}
	return a.selectColors()
}

// pick chooses the next pseudo to push. Simplify: the lowest-numbered
// un-removed node with degree < K. When there is none, the optimistic
// push (Briggs): the cheapest spill candidate — the first strict minimum
// of cost over degree in index order — is pushed anyway; it may still
// receive a color.
func (a *allocator) pick() asm.PseudoID {
	if p := a.low.next(0); p >= 0 {
		return asm.PseudoID(p)
	}
	best, first := asm.PseudoID(-1), asm.PseudoID(-1)
	bestCost := 0.0
	for p := 0; p < a.n; p++ {
		if a.removed.has(p) {
			continue
		}
		if first < 0 {
			first = asm.PseudoID(p)
		}
		info := &a.af.Pseudos[p]
		if info.NoSpill {
			continue
		}
		cost := info.SpillCost / float64(max(a.deg[p], 1))
		if best < 0 || cost < bestCost {
			best, bestCost = asm.PseudoID(p), cost
		}
	}
	if best < 0 {
		// Only NoSpill nodes remain with high degree; push the first (it
		// will either color or fail hard in selectColors).
		return first
	}
	return best
}

// remove pushes p and takes its weight off each un-removed neighbour,
// once: degrees only fall, so a neighbour enters the low set at most
// once and nothing is ever rescanned.
func (a *allocator) remove(p asm.PseudoID) {
	a.removed.set(int(p))
	a.low.clear(int(p))
	a.stack = append(a.stack, p)
	a.remaining--
	sets := len(a.k)
	for _, nb := range a.neighbours(int(p)) {
		if a.removed.has(int(nb)) {
			continue
		}
		a.deg[nb] -= a.weight[int(a.set[nb])*sets+int(a.set[p])]
		if a.deg[nb] < a.k[a.set[nb]] {
			a.low.set(int(nb))
		}
	}
}

// selectColors pops in reverse push order and gives each pseudo the
// first colour of its set that neither its forbidden registers nor an
// alias of a coloured neighbour blocks. The pseudos left without one, in
// pop order, are the round's spill list.
func (a *allocator) selectColors() ([]asm.PseudoID, error) {
	m, af := a.m, a.af
	assigned := ir.Grow(a.res.Assignment, a.n)
	for i := range assigned {
		assigned[i] = mach.NoPhys
	}
	a.res.Assignment = assigned
	var spills []asm.PseudoID
	for i := len(a.stack) - 1; i >= 0; i-- {
		p := a.stack[i]
		copy(a.blocked, a.forbidRow(int(p)))
		for _, nb := range a.neighbours(int(p)) {
			if c := assigned[nb]; c != mach.NoPhys {
				for _, al := range m.Aliases(c) {
					a.blocked.set(int(al))
				}
			}
		}
		got := mach.NoPhys
		for _, c := range a.colors[a.set[p]] {
			if !a.blocked.has(int(c)) {
				got = c
				break
			}
		}
		if got == mach.NoPhys {
			if af.Pseudos[p].NoSpill {
				return nil, fmt.Errorf("%s: spill temporary t%d cannot be colored (register set %s too small)",
					af.Name, p, af.Pseudos[p].Set.Name)
			}
			spills = append(spills, p)
			continue
		}
		assigned[p] = got
	}
	return spills, nil
}

// spillOffset returns the FP-relative offset of spill slot s.
func spillOffset(af *asm.Func, s int) int64 {
	return -int64(af.IR.LocalFrame) - 8*int64(s+1)
}

func spillType(set *mach.RegSet) ir.Type {
	if set.Size == 8 {
		return ir.F64
	}
	return ir.I32
}

// insertSpills rewrites every reference to a spilled pseudo through a
// fresh temporary with a load/store to its frame slot. Instructions that
// mention no spilled pseudo cost one slot lookup per operand, and blocks
// without one keep their instruction list; one with one gets a new list
// of af's.
func (a *allocator) insertSpills(spilled []asm.PseudoID) error {
	m, af := a.m, a.af
	a.slot = ir.Grow(a.slot, len(af.Pseudos))
	for i := range a.slot {
		a.slot[i] = -1
	}
	for _, p := range spilled {
		a.slot[p] = int32(a.res.SpillSlots)
		a.res.SpillSlots++
	}
	fp := m.Cwvm.FP.Phys()

	// One temporary per spilled pseudo per instruction.
	type tmp struct{ of, is asm.PseudoID }
	var tmps []tmp
	loads, stores := a.loads[:0], a.stores[:0]
	for _, b := range af.Blocks {
		// out gathers the block's code from its first spilled operand on.
		out, rewritten := a.list[:0], false
		for ii, in := range b.Insts {
			tmps, loads, stores = tmps[:0], loads[:0], stores[:0]
			// Operand roles as bit sets over the template operand index;
			// the rewrite below must visit operands in index order, since
			// that order numbers the temporaries.
			var isUse, isDef uint64
			for oi := range in.Args {
				arg := in.Args[oi]
				if arg.Kind != asm.OpPseudo && arg.Kind != asm.OpPseudoHalf {
					continue
				}
				s := a.slot[arg.Pseudo]
				if s < 0 {
					continue
				}
				if len(tmps) == 0 {
					// The instruction's first spilled operand: only now is
					// it worth knowing which operands are read and written,
					// and that the block needs a new instruction slice.
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
					if !rewritten {
						out, rewritten = append(out, b.Insts[:ii]...), true
					}
				}
				set := af.Pseudos[arg.Pseudo].Set
				t := asm.NoPseudo
				for _, have := range tmps {
					if have.of == arg.Pseudo {
						t = have.is
					}
				}
				if t == asm.NoPseudo {
					t = af.NewPseudo(set, ir.NoReg)
					af.Pseudos[t].NoSpill = true
					tmps = append(tmps, tmp{arg.Pseudo, t})
				}
				off := spillOffset(af, int(s))
				ty := spillType(set)
				use, def := isUse>>oi&1 != 0, isDef>>oi&1 != 0
				if use || arg.Kind == asm.OpPseudoHalf && def {
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
				arg.Pseudo = t
				in.Args[oi] = arg
			}
			if rewritten {
				out = append(out, loads...)
				out = append(out, in)
				out = append(out, stores...)
			}
		}
		if rewritten {
			b.Insts = af.List(out)
		}
		a.list = out[:0]
	}
	a.loads, a.stores = loads[:0], stores[:0]
	return nil
}

// rewrite replaces pseudo operands with their assigned physical
// registers; half operands resolve through the alias table.
func (a *allocator) rewrite() {
	assigned := a.res.Assignment
	for _, b := range a.af.Blocks {
		for _, in := range b.Insts {
			for i, arg := range in.Args {
				switch arg.Kind {
				case asm.OpPseudo:
					in.Args[i] = asm.Phys(assigned[arg.Pseudo])
				case asm.OpPseudoHalf:
					al := a.m.Aliases(assigned[arg.Pseudo])
					in.Args[i] = asm.Phys(al[1+arg.Half])
				}
			}
		}
	}
}

// usedCalleeSave reports which callee-save registers appear as defs, in
// ascending order.
func (a *allocator) usedCalleeSave() []mach.PhysID {
	m := a.m
	used := make(bitset, a.physWords)
	for _, b := range a.af.Blocks {
		for _, in := range b.Insts {
			for d := in.RegDefs(m); d.Next(); {
				// Explicit defs only: a call's implicit defs are the
				// caller-save set and the return address, which frame()
				// saves on UsesCalls.
				if p := int(d.Key); d.Op >= 0 && a.calleeSave.has(p) {
					used.set(p)
				}
			}
		}
	}
	n := used.count()
	if n == 0 {
		return nil
	}
	out := make([]mach.PhysID, 0, n)
next:
	for i := used.next(0); i >= 0; i = used.next(i + 1) {
		p := mach.PhysID(i)
		// A wide register save covers its narrow overlaps: drop
		// registers whose covering wider register is also saved.
		for _, al := range m.Aliases(p) {
			if al != p && used.has(int(al)) && m.PhysRef(al).Set.Size > m.PhysRef(p).Set.Size {
				continue next
			}
		}
		out = append(out, p)
	}
	return out
}
