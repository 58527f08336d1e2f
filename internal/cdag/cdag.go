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

// Graph is the code DAG of one basic block.
type Graph struct {
	M     *mach.Machine
	Nodes []*Node
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

// Build constructs the code DAG for a block.
func Build(m *mach.Machine, b *asm.Block, opts Options) *Graph {
	g := &Graph{M: m}
	for i, in := range b.Insts {
		g.Nodes = append(g.Nodes, &Node{Index: i, Inst: in})
	}

	// Tracking tables, keyed by the one asm.RegKey. They are only ever
	// indexed, never ranged over, so map order cannot reach edge order.
	lastDef := map[asm.RegKey]int{}    // key -> node index of last writer
	lastDefOp := map[asm.RegKey]int{}  // key -> template operand index of that def
	lastUses := map[asm.RegKey][]int{} // key -> readers since last def
	lastMemWrite := -1                 // last store/call
	memReads := []int{}                // loads since last store/call
	// Temporal latch pairing is per (latch, sequence identity): the
	// selector emits each %seq expansion with a unique SeqID, so a
	// reader's producer is its own sequence's writer regardless of how
	// sequences were interleaved by earlier scheduling passes.
	type tkey struct {
		ts  *mach.RegSet
		seq int
	}
	lastTWrite := map[tkey]int{}
	tReads := map[tkey][]int{}

	addEdge := func(from, to int, lat int, t EdgeType, clock int) {
		if from == to || from < 0 {
			return
		}
		// Duplicate suppression: keep the strictest label per (from,to).
		for i := range g.Nodes[from].Succs {
			e := &g.Nodes[from].Succs[i]
			if e.To == to {
				if lat > e.Latency {
					e.Latency = lat
					for j := range g.Nodes[to].Preds {
						p := &g.Nodes[to].Preds[j]
						if p.To == from && p.Type == e.Type {
							p.Latency = lat
						}
					}
				}
				return
			}
		}
		g.Nodes[from].Succs = append(g.Nodes[from].Succs, Edge{To: to, Latency: lat, Type: t, Clock: clock})
		g.Nodes[to].Preds = append(g.Nodes[to].Preds, Edge{To: from, Latency: lat, Type: t, Clock: clock})
	}

	// Instructions already scheduled into packed words (equal Cycle
	// values, as when a strategy reschedules a block) execute with
	// read-before-write semantics WITHIN the word: all reads observe
	// pre-word state, the clock ticks once. The DAG must honor that, so
	// tracking-state updates from a word's defs commit only after the
	// whole word is processed.
	wordStart := 0
	for wordStart < len(b.Insts) {
		wordEnd := wordStart + 1
		if b.Insts[wordStart].Cycle >= 0 {
			for wordEnd < len(b.Insts) && b.Insts[wordEnd].Cycle == b.Insts[wordStart].Cycle {
				wordEnd++
			}
		}

		type defUpd struct {
			k     asm.RegKey
			i, op int
		}
		var defUpds []defUpd
		var twUpds []struct {
			k tkey
			i int
		}
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
				if d, ok := lastDef[u.Key]; ok {
					lat := TrueLatency(m, b.Insts[d], in, lastDefOp[u.Key], u.Op)
					addEdge(d, i, lat, True, -1)
				}
				lastUses[u.Key] = append(lastUses[u.Key], i)
			}

			// Temporal register reads (paired within the sequence).
			for _, ts := range tmpl.ReadsTRegs {
				k := tkey{ts, in.SeqID}
				if d, ok := lastTWrite[k]; ok {
					lat := b.Insts[d].Tmpl.Latency
					addEdge(d, i, lat, True, ts.Clock)
				}
				tReads[k] = append(tReads[k], i)
			}

			// Type 2: memory ordering.
			if !opts.NoMemory {
				reads := tmpl.ReadsMem || tmpl.IsCall
				writes := tmpl.WritesMem || tmpl.IsCall
				if reads && !writes {
					if lastMemWrite >= 0 {
						addEdge(lastMemWrite, i, 1, Memory, -1)
					}
					memReads = append(memReads, i)
				}
				if writes {
					if lastMemWrite >= 0 {
						addEdge(lastMemWrite, i, 1, Memory, -1)
					}
					for _, r := range memReads {
						addEdge(r, i, 1, Memory, -1)
					}
					newMemWrite = i
				}
			}

			// Defs: type 3 anti and output edges against pre-word state;
			// the tracking update is deferred to the end of the word.
			for d := in.RegDefs(m); d.Next(); {
				if !opts.NoAnti {
					if prev, ok := lastDef[d.Key]; ok {
						addEdge(prev, i, 1, Anti, -1) // output dependence
					}
					for _, u := range lastUses[d.Key] {
						addEdge(u, i, 0, Anti, -1) // anti dependence
					}
				}
				defUpds = append(defUpds, defUpd{d.Key, i, d.Op})
			}

			// Temporal register writes. No anti/output edges are built:
			// ordering between temporal sequences is enforced dynamically
			// by scheduling Rule 1 plus the protection pass — anti edges
			// would forbid the packing the EAP mechanism exists for.
			for _, ts := range tmpl.WritesTRegs {
				twUpds = append(twUpds, struct {
					k tkey
					i int
				}{tkey{ts, in.SeqID}, i})
			}
		}

		// Commit the word's state updates.
		for _, u := range defUpds {
			lastDef[u.k] = u.i
			lastDefOp[u.k] = u.op
			delete(lastUses, u.k)
		}
		for _, u := range twUpds {
			lastTWrite[u.k] = u.i
			delete(tReads, u.k)
		}
		if newMemWrite >= 0 {
			lastMemWrite = newMemWrite
			memReads = memReads[:0]
		}
		wordStart = wordEnd
	}

	// Control transfers stay last: every other node precedes the final
	// branch/jump/ret/nothing.
	if n := len(b.Insts); n > 0 && b.Insts[n-1].Tmpl.Transfers() {
		for i := 0; i < n-1; i++ {
			addEdge(i, n-1, 0, Extra, -1)
		}
	}

	if !opts.NoProtect {
		g.protect(addEdge)
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
