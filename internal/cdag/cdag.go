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

// Edge is one dependence edge.
type Edge struct {
	To      int
	Latency int
	Type    EdgeType
	// Clock is the EAP clock index for temporal edges, -1 otherwise.
	Clock int
}

// Node is one instruction in the code DAG.
type Node struct {
	Index int // position in the code thread
	Inst  *asm.Inst
	Succs []Edge
	Preds []Edge // Preds[i].To is the predecessor index
}

// Graph is the code DAG of one basic block. Schedulers only read it, so
// one graph serves every scheduling run over the same block state.
type Graph struct {
	M     *mach.Machine
	Nodes []Node
}

// Options control which edge types are built (the strategy's choice,
// §4.1) — disabling types is used for ablation studies and tests.
type Options struct {
	NoAnti   bool // omit type 3 edges
	NoMemory bool // omit type 2 edges
	// NoProtect disables the temporal-sequence protection pass (unsafe
	// on EAP machines; for ablation only).
	NoProtect bool
}

// builder collects the dependence edges of one block as a flat list in
// discovery order; finish lays them out as the nodes' Succs and Preds.
type builder struct {
	edges []pendingEdge
	// last[from] is the index in edges of from's most recent out-edge,
	// or -1. Build discovers edges grouped by destination, in thread
	// order, so an edge from -> to already exists exactly when from's
	// most recent out-edge goes to to.
	last []int32
	// clocks[k] records that some temporal edge on clock k exists (nil
	// until the first one), so protect skips clocks the block never uses.
	clocks  []bool
	nclocks int
}

type pendingEdge struct {
	from, to, lat, clock int32
	typ                  EdgeType
	// next chains the protection edges into one node: the following
	// one's index + 1, or 0 (see protect).
	next int32
}

// push appends e and returns its index. The list doubles when full:
// append's 1.25x steps would copy a long block's edges five times over.
func (bl *builder) push(e pendingEdge) int32 {
	if len(bl.edges) == cap(bl.edges) {
		grown := make([]pendingEdge, len(bl.edges), 2*cap(bl.edges)+8)
		copy(grown, bl.edges)
		bl.edges = grown
	}
	bl.edges = append(bl.edges, e)
	return int32(len(bl.edges) - 1)
}

// add records the dependence from -> to, keeping one edge per pair with
// the strictest latency. A temporal edge merged into a register edge
// between the same pair keeps its type and clock: to is a member of the
// temporal sequence whichever dependence was found first.
func (bl *builder) add(from, to, lat int, t EdgeType, clock int) {
	if from == to {
		return
	}
	if clock >= 0 {
		if bl.clocks == nil {
			bl.clocks = make([]bool, bl.nclocks)
		}
		bl.clocks[clock] = true
	}
	if j := bl.last[from]; j >= 0 && int(bl.edges[j].to) == to {
		e := &bl.edges[j]
		if int32(lat) > e.lat {
			e.lat = int32(lat)
		}
		if clock >= 0 {
			e.typ, e.clock = t, int32(clock)
		}
		return
	}
	bl.last[from] = bl.push(pendingEdge{from: int32(from), to: int32(to), lat: int32(lat), clock: int32(clock), typ: t})
}

// finish carves every node's Succs and Preds, in discovery order, out of
// two arrays sized by a counting pass.
func (bl *builder) finish(g *Graph) {
	n := len(g.Nodes)
	deg := make([]int32, 2*n)
	out, in := deg[:n], deg[n:]
	for _, e := range bl.edges {
		out[e.from]++
		in[e.to]++
	}
	all := make([]Edge, 2*len(bl.edges))
	succs, preds := all[:len(bl.edges)], all[len(bl.edges):]
	so, po := 0, 0
	for i := range g.Nodes {
		nd := &g.Nodes[i]
		nd.Succs = succs[so : so : so+int(out[i])]
		nd.Preds = preds[po : po : po+int(in[i])]
		so += int(out[i])
		po += int(in[i])
	}
	for _, e := range bl.edges {
		from, to := &g.Nodes[e.from], &g.Nodes[e.to]
		from.Succs = append(from.Succs, Edge{To: int(e.to), Latency: int(e.lat), Type: e.typ, Clock: int(e.clock)})
		to.Preds = append(to.Preds, Edge{To: int(e.from), Latency: int(e.lat), Type: e.typ, Clock: int(e.clock)})
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

// Build constructs the code DAG for a block.
func Build(m *mach.Machine, b *asm.Block, opts Options) *Graph {
	n := len(b.Insts)
	g := &Graph{M: m, Nodes: make([]Node, n)}
	bl := builder{edges: make([]pendingEdge, 0, 2*n+8), last: make([]int32, n), nclocks: len(m.Clocks)}
	// The register tracking table is indexed by the one dense
	// asm.RegKey: physical registers, then the pseudos the block
	// mentions.
	keys := m.NumPhys
	for i, in := range b.Insts {
		g.Nodes[i] = Node{Index: i, Inst: in}
		bl.last[i] = -1
		for _, a := range in.Args {
			if a.Kind == asm.OpPseudo || a.Kind == asm.OpPseudoHalf {
				if k := int(asm.PseudoKey(m, a.Pseudo)) + 1; k > keys {
					keys = k
				}
			}
		}
	}
	regs := make([]regState, keys)
	readers := make([]reader, 0, 2*n+4)
	lastMemWrite := -1 // last store/call
	var memReads []int // loads since last store/call
	// Temporal latch pairing is per (latch, sequence identity): the
	// selector emits each %seq expansion with a unique SeqID, so a
	// reader's producer is its own sequence's writer regardless of how
	// sequences were interleaved by earlier scheduling passes. The map
	// is only ever indexed, never ranged over, and stays nil on blocks
	// without temporal sub-operations.
	type tkey struct {
		ts  *mach.RegSet
		seq int
	}
	var lastTWrite map[tkey]int

	// Instructions already scheduled into packed words (equal Cycle
	// values, as when a strategy reschedules a block) execute with
	// read-before-write semantics WITHIN the word: all reads observe
	// pre-word state, the clock ticks once. The DAG must honor that, so
	// tracking-state updates from a word's defs commit only after the
	// whole word is processed.
	type defUpd struct {
		k     asm.RegKey
		i, op int
	}
	var defUpds []defUpd
	type twUpd struct {
		k tkey
		i int
	}
	var twUpds []twUpd
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

			// Type 1: true dependences through registers. A half operand
			// conservatively covers the whole wide register.
			for u := in.RegUses(m); u.Next(); {
				if u.Hard {
					continue // reads of hard-wired registers carry no dependence
				}
				r := &regs[u.Key]
				if r.def != 0 {
					d := int(r.def - 1)
					bl.add(d, i, TrueLatency(m, b.Insts[d], in, int(r.defOp), u.Op), True, -1)
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
				if d, ok := lastTWrite[tkey{ts, in.SeqID}]; ok {
					bl.add(d, i, b.Insts[d].Tmpl.Latency, True, ts.Clock)
				}
			}

			// Type 2: memory ordering.
			if !opts.NoMemory {
				reads := tmpl.ReadsMem || tmpl.IsCall
				writes := tmpl.WritesMem || tmpl.IsCall
				if reads && !writes {
					if lastMemWrite >= 0 {
						bl.add(lastMemWrite, i, 1, Memory, -1)
					}
					memReads = append(memReads, i)
				}
				if writes {
					if lastMemWrite >= 0 {
						bl.add(lastMemWrite, i, 1, Memory, -1)
					}
					for _, r := range memReads {
						bl.add(r, i, 1, Memory, -1)
					}
					newMemWrite = i
				}
			}

			// Defs: type 3 anti and output edges against pre-word state;
			// the tracking update is deferred to the end of the word.
			for d := in.RegDefs(m); d.Next(); {
				if !opts.NoAnti {
					r := regs[d.Key]
					if r.def != 0 {
						bl.add(int(r.def-1), i, 1, Anti, -1) // output dependence
					}
					for l := r.firstUse; l != 0; l = readers[l-1].next {
						bl.add(int(readers[l-1].node), i, 0, Anti, -1) // anti dependence
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
			if lastTWrite == nil {
				lastTWrite = map[tkey]int{}
			}
			lastTWrite[u.k] = u.i
		}
		if newMemWrite >= 0 {
			lastMemWrite = newMemWrite
			memReads = memReads[:0]
		}
		wordStart = wordEnd
	}

	// Control transfers stay last: every other node precedes the final
	// branch/jump/ret/nothing.
	if n > 0 && b.Insts[n-1].Tmpl.Transfers() {
		for i := 0; i < n-1; i++ {
			bl.add(i, n-1, 0, Extra, -1)
		}
	}
	bl.finish(g)
	if !opts.NoProtect && bl.clocks != nil && bl.protect(g) {
		bl.finish(g)
	}
	return g
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
