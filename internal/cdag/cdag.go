// Package cdag builds the code DAG (paper §4.1): nodes are instructions,
// directed labeled edges are dependences. An edge (x,y) with label l
// means y cannot issue fewer than l cycles after x. The DAG is threaded
// by the code thread (the initial instruction order of the block).
//
// Edge types follow the paper: type 1 (true dependences, labeled with the
// producer's latency, possibly overridden by %aux), type 2 (memory
// ordering) and type 3 (anti and output dependences). Edges carried by
// temporal registers are additionally marked with their EAP clock, and a
// protection pass (§4.6) inserts extra edges so that a non-backtracking
// scheduler cannot deadlock on temporal sequences.
package cdag

import (
	"marion/internal/asm"
	"marion/internal/mach"
)

// EdgeType classifies a dependence edge.
type EdgeType uint8

const (
	True   EdgeType = 1 // value flows producer -> consumer
	Memory EdgeType = 2 // memory reference ordering
	Anti   EdgeType = 3 // anti / output dependence
	Extra  EdgeType = 4 // branch-last and temporal-protection edges
)

// Edge is one dependence edge. It is twelve bytes: a long i860 block has
// thousands of them, each stored twice (Succs and Preds).
type Edge struct {
	To      int32
	Latency int32
	// Clock is the EAP clock index for temporal edges, -1 otherwise.
	Clock int16
	Type  EdgeType
}

// Node is one instruction in the code DAG.
type Node struct {
	Index int // position in the code thread
	Inst  *asm.Inst
	Succs []Edge
	Preds []Edge // Preds[i].To is the predecessor index
}

// Graph is the code DAG of one basic block. Schedulers only read it, so
// one graph serves every scheduling run over the same block state. A
// graph lives in the Scratch that built it: the next Build on that
// scratch overwrites it.
type Graph struct {
	M     *mach.Machine
	Nodes []Node
}

// Options control which edge types are built (the strategy's choice,
// §4.1) — disabling types is used for ablation studies and tests.
type Options struct {
	NoAnti bool // omit type 3 edges
	// NoProtect disables the temporal-sequence protection pass (unsafe
	// on EAP machines; for ablation only).
	NoProtect bool
}

// Scratch is the storage code DAGs are built in: the node slab, the edge
// arena and every table Build and the protection pass work from. The
// zero value is ready to use. Building block after block on one scratch
// allocates only when a block outgrows what an earlier one left, but
// each Build invalidates the graph the previous one returned, so a
// scratch has one owner (a strategy.Scratch's scheduler, which keeps it
// from one function to the next) and is never shared between
// goroutines.
type Scratch struct {
	graph Graph // graph.Nodes is the node slab

	// Build discovers edges grouped by destination, in thread order, so
	// the discovery list IS the Preds array: node i's predecessors are
	// preds[start[i]:start[i+1]], stored once. layout carves the Succs out
	// of the arena, edges, which it sizes from the edge count; the few
	// protection edges join the lists they belong to afterwards (link), a
	// full list moving to the arena's tail.
	preds, edges []Edge
	// Per node: where its Preds begin, its out-degree, and the index in
	// preds of its most recent out-edge (-1: none). An edge from -> to
	// already exists exactly when from's most recent out-edge lies in the
	// range of the node being built.
	start, out, last []int32
	ints             []int32 // the three above
	open             int32   // start of the node being built

	regs     []regState
	readers  []reader
	memReads []int // loads since last store/call
	tWrites  map[tkey]int
	defUpds  []defUpd
	twUpds   []twUpd
	// clocks[k] records that some temporal edge on clock k exists, so
	// protect skips clocks the block never uses; temporal, that any does.
	clocks   []bool
	temporal bool

	// The protection pass's tables (see protect).
	seq   []seqState
	reach closure
	words []uint64
	done  []bool
}

// Detach drops what the scratch holds of the block it built last: the
// graph's machine and every node's instruction, in the whole node slab
// (a longer block built earlier left nodes past the last one's end).
// The tables keep their storage; the next Build overwrites every node.
func (s *Scratch) Detach() {
	clear(s.graph.Nodes[:cap(s.graph.Nodes)])
	s.graph = Graph{Nodes: s.graph.Nodes[:0]}
}

// Temporal latch pairing is per (latch, sequence identity): the selector
// emits each %seq expansion with a unique SeqID, so a reader's producer
// is its own sequence's writer regardless of how sequences were
// interleaved by earlier scheduling passes.
type tkey struct {
	ts  *mach.RegSet
	seq int32
}

// Instructions already scheduled into packed words (equal Cycle values,
// as when a strategy reschedules a block) execute with read-before-write
// semantics WITHIN the word: all reads observe pre-word state, the clock
// ticks once. The DAG must honor that, so tracking-state updates from a
// word's defs commit only after the whole word is processed.
type defUpd struct {
	k     asm.RegKey
	i, op int
}

type twUpd struct {
	k tkey
	i int
}

// sized returns buf with length n, reallocated when it is too short. The
// contents are whatever the last use left.
func sized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// push appends e to the discovery list. The list doubles when full:
// append's 1.25x steps would copy a long block's edges five times over.
func (s *Scratch) push(e Edge) {
	if len(s.preds) == cap(s.preds) {
		grown := make([]Edge, len(s.preds), 2*cap(s.preds)+8)
		copy(grown, s.preds)
		s.preds = grown
	}
	s.preds = append(s.preds, e)
}

// carve cuts an empty list with room for k edges off the arena's tail.
// When the arena is full a larger one takes its place; the lists cut
// earlier stay where they are, in the old array, which the graph's nodes
// keep alive.
func (s *Scratch) carve(k int) []Edge {
	at := len(s.edges)
	if at+k > cap(s.edges) {
		s.edges, at = make([]Edge, 0, cap(s.edges)+cap(s.edges)/2+k), 0
	}
	s.edges = s.edges[:at+k]
	return s.edges[at : at : at+k]
}

// link appends e to one node's edge list after layout, moving a full
// list to the arena's tail with room to double.
func (s *Scratch) link(list *[]Edge, e Edge) {
	l := *list
	if len(l) == cap(l) {
		l = append(s.carve(2*len(l)+2), l...)
	}
	*list = append(l, e)
}

// add records the dependence from -> to, where to is the node being
// built, keeping one edge per pair with the strictest latency. A
// temporal edge merged into a register edge between the same pair keeps
// its type and clock: to is a member of the temporal sequence whichever
// dependence was found first.
func (s *Scratch) add(from, to, lat int, t EdgeType, clock int) {
	if from == to {
		return
	}
	if clock >= 0 {
		s.clocks[clock], s.temporal = true, true
	}
	if j := s.last[from]; j >= s.open {
		e := &s.preds[j]
		if int32(lat) > e.Latency {
			e.Latency = int32(lat)
		}
		if clock >= 0 {
			e.Type, e.Clock = t, int16(clock)
		}
		return
	}
	s.last[from] = int32(len(s.preds))
	s.out[from]++
	s.push(Edge{To: int32(from), Latency: int32(lat), Type: t, Clock: int16(clock)})
}

// layout points every node's Preds at its range of the discovery list
// and carves its Succs, in discovery order, out of the arena, which gets
// half as much again for the lists the protection pass will move.
func (s *Scratch) layout() {
	room := len(s.preds)
	if s.temporal {
		room += room/2 + 16
	}
	if s.edges = s.edges[:0]; cap(s.edges) < room {
		s.edges = make([]Edge, 0, room)
	}
	succs := s.carve(len(s.preds))
	nodes := s.graph.Nodes
	so := 0
	for i := range nodes {
		nd := &nodes[i]
		nd.Preds = s.preds[s.start[i]:s.start[i+1]:s.start[i+1]]
		nd.Succs = succs[so : so : so+int(s.out[i])]
		so += int(s.out[i])
	}
	for to := range nodes {
		for _, e := range nodes[to].Preds {
			from := &nodes[e.To]
			e.To = int32(to)
			from.Succs = append(from.Succs, e)
		}
	}
}

// regState is the dependence-tracking state of one register key: its
// last writer and the readers since. Node indices are stored plus one so
// the zero value means "none".
type regState struct {
	def   int32 // last writer + 1
	defOp int32 // template operand index of that def
	// The chain of readers since the last def, oldest first: the first
	// and last link's index + 1 in Build's readers.
	firstUse, lastUse int32
}

// reader is one link of a register's reader chain.
type reader struct {
	node int32
	next int32 // following link + 1, or 0
}

// Build constructs the code DAG for a block in a scratch of its own.
func Build(m *mach.Machine, b *asm.Block, opts Options) *Graph {
	return new(Scratch).Build(m, b, opts)
}

// Build constructs the code DAG for a block, overwriting the graph the
// scratch held before.
func (s *Scratch) Build(m *mach.Machine, b *asm.Block, opts Options) *Graph {
	n := len(b.Insts)
	s.graph = Graph{M: m, Nodes: sized(s.graph.Nodes, n)}
	s.ints = sized(s.ints, 3*n+1)
	s.start, s.out, s.last = s.ints[:n+1], s.ints[n+1:2*n+1], s.ints[2*n+1:]
	clear(s.out)
	// A straight-line block has up to four edges an instruction.
	if s.preds = s.preds[:0]; cap(s.preds) < 4*n+16 {
		s.preds = make([]Edge, 0, 4*n+16)
	}
	s.clocks, s.temporal = sized(s.clocks, len(m.Clocks)), false
	clear(s.clocks)
	// The register tracking table is indexed by the one dense
	// asm.RegKey: physical registers, then the pseudos the block
	// mentions.
	keys := m.NumPhys
	for i, in := range b.Insts {
		s.graph.Nodes[i] = Node{Index: i, Inst: in}
		s.last[i] = -1
		for _, a := range in.Args {
			if a.Kind == asm.OpPseudo || a.Kind == asm.OpPseudoHalf {
				if k := int(asm.PseudoKey(m, a.Pseudo)) + 1; k > keys {
					keys = k
				}
			}
		}
	}
	s.regs = sized(s.regs, keys)
	clear(s.regs)
	regs := s.regs
	if s.readers = s.readers[:0]; cap(s.readers) < 2*n+4 {
		s.readers = make([]reader, 0, 2*n+4)
	}
	readers := s.readers
	lastMemWrite := -1 // last store/call
	memReads := s.memReads[:0]
	// The latch table is only ever indexed, never ranged over, and stays
	// nil until a block has temporal sub-operations.
	clear(s.tWrites)
	defUpds, twUpds := s.defUpds, s.twUpds

	wordStart := 0
	for wordStart < n {
		wordEnd := wordStart + 1
		if b.Insts[wordStart].Cycle >= 0 {
			for wordEnd < n && b.Insts[wordEnd].Cycle == b.Insts[wordStart].Cycle {
				wordEnd++
			}
		}
		defUpds, twUpds = defUpds[:0], twUpds[:0]
		newMemWrite := -1

		for i := wordStart; i < wordEnd; i++ {
			in := b.Insts[i]
			tmpl := in.Tmpl
			s.open = int32(len(s.preds))
			s.start[i] = s.open

			// Type 1: true dependences through registers. A half operand
			// conservatively covers the whole wide register.
			for u := in.RegUses(m); u.Next(); {
				if u.Hard {
					continue // reads of hard-wired registers carry no dependence
				}
				r := &regs[u.Key]
				if r.def != 0 {
					d := int(r.def - 1)
					s.add(d, i, TrueLatency(m, b.Insts[d], in, int(r.defOp), u.Op), True, -1)
				}
				readers = append(readers, reader{node: int32(i)})
				link := int32(len(readers))
				if r.lastUse != 0 {
					readers[r.lastUse-1].next = link
				} else {
					r.firstUse = link
				}
				r.lastUse = link
			}

			// Temporal register reads (paired within the sequence).
			for _, ts := range tmpl.ReadsTRegs {
				if d, ok := s.tWrites[tkey{ts, in.SeqID}]; ok {
					s.add(d, i, b.Insts[d].Tmpl.Latency, True, ts.Clock)
				}
			}

			// Type 2: memory ordering.
			reads := tmpl.ReadsMem || tmpl.IsCall
			writes := tmpl.WritesMem || tmpl.IsCall
			if reads && !writes {
				if lastMemWrite >= 0 {
					s.add(lastMemWrite, i, 1, Memory, -1)
				}
				memReads = append(memReads, i)
			}
			if writes {
				if lastMemWrite >= 0 {
					s.add(lastMemWrite, i, 1, Memory, -1)
				}
				for _, r := range memReads {
					s.add(r, i, 1, Memory, -1)
				}
				newMemWrite = i
			}

			// Defs: type 3 anti and output edges against pre-word state;
			// the tracking update is deferred to the end of the word.
			for d := in.RegDefs(m); d.Next(); {
				if !opts.NoAnti {
					r := regs[d.Key]
					if r.def != 0 {
						s.add(int(r.def-1), i, 1, Anti, -1) // output dependence
					}
					for l := r.firstUse; l != 0; l = readers[l-1].next {
						s.add(int(readers[l-1].node), i, 0, Anti, -1) // anti dependence
					}
				}
				defUpds = append(defUpds, defUpd{d.Key, i, d.Op})
			}

			// Temporal register writes. No anti/output edges are built:
			// ordering between temporal sequences is enforced dynamically
			// by scheduling Rule 1 plus the protection pass — anti edges
			// would forbid the packing the EAP mechanism exists for.
			for _, ts := range tmpl.WritesTRegs {
				twUpds = append(twUpds, twUpd{tkey{ts, in.SeqID}, i})
			}
		}

		// Commit the word's state updates.
		for _, u := range defUpds {
			regs[u.k] = regState{def: int32(u.i + 1), defOp: int32(u.op)}
		}
		for _, u := range twUpds {
			if s.tWrites == nil {
				s.tWrites = map[tkey]int{}
			}
			s.tWrites[u.k] = u.i
		}
		if newMemWrite >= 0 {
			lastMemWrite = newMemWrite
			memReads = memReads[:0]
		}
		wordStart = wordEnd
	}
	s.readers, s.memReads, s.defUpds, s.twUpds = readers, memReads, defUpds, twUpds

	// Control transfers stay last: every other node precedes the final
	// branch/jump/ret/nothing. A node with an out-edge precedes one that
	// has none, so the sinks alone need the edge.
	if n > 0 && b.Insts[n-1].Tmpl.Transfers() {
		for i := 0; i < n-1; i++ {
			if s.out[i] == 0 {
				s.add(i, n-1, 0, Extra, -1)
			}
		}
	}
	s.start[n] = int32(len(s.preds))
	s.layout()
	if !opts.NoProtect && s.temporal {
		s.protect()
	}
	return &s.graph
}

// TrueLatency returns the edge label for a true dependence from producer
// d (defining operand dOp) to consumer in (using operand uOp), applying
// %aux overrides. The simulator uses the same function, so scheduler and
// simulator agree on the description's timing.
func TrueLatency(m *mach.Machine, d, in *asm.Inst, dOp, uOp int) int {
	lat := d.Tmpl.Latency
	for _, a := range m.AuxLats {
		if a.First != d.Tmpl.Mnemonic || a.Second != in.Tmpl.Mnemonic {
			continue
		}
		if a.FirstOp == 0 && a.SecondOp == 0 {
			lat = a.Latency // unconditional form
			continue
		}
		fi, si := a.FirstOp-1, a.SecondOp-1
		if fi < len(d.Args) && si < len(in.Args) && d.Args[fi] == in.Args[si] {
			lat = a.Latency
		}
	}
	return lat
}
