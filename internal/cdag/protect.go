package cdag

import (
	"math/bits"

	"marion/internal/ir"
)

// seqState is a node's place among the temporal sequences of the clock
// being processed: the head of its sequence (following that clock's
// temporal predecessor edges transitively), and whether it is a non-head
// member.
type seqState struct {
	head   int32
	member bool
}

// protect implements the temporal-sequence protection pass (paper §4.6,
// Figure 6). For each clock k, a temporal sequence is a chain of nodes
// connected by temporal edges ON THAT CLOCK (a chaining sub-operation
// like the i860's a1m belongs to a multiplier sequence as a member and
// heads its own adder sequence). An alternate entry into sequence T is
// an edge (y,x) whose destination x is in T but is not T's head; for
// every such entry, each ancestor z of y (y included) that affects k
// must precede head(T) (or the head of z's own sequence must, when
// z -> head(T) would create a cycle). This ensures every k-affecting
// ancestor of any sequence member is scheduled before the sequence's
// head, which makes deadlock under scheduling Rule 1 impossible.
//
// The paper states that as an edge per ancestor. A list scheduler
// consumes only the partial order, and a latency-0 edge z -> h that
// parallels a path from z to h changes nothing it looks at: h's height
// does not enter z's any higher than through the path, h cannot become
// ready before the path's last node is placed, which is after z, and
// h's earliest cycle is by then no earlier than z's. So an edge goes in
// only when z does not reach h already, and an entry's ancestors are
// visited nearest first (descending thread index, which is reverse
// topological order but for protection edges): the edge from a near
// ancestor puts every ancestor of it on a path to h, where the far
// ancestor's edge would spare none. The graph has the closure of the
// paper's edge set with a subset of its edges — on long i860 blocks a
// hundredth of them.
//
// Every question — "which nodes are ancestors of y?", "would z -> h
// create a cycle?", "does z reach h already?" — is answered from the
// block's reachability closure (see closure), built when the first
// alternate entry is found and kept current as protection edges go in.
// The closure takes 2*n*ceil(n/64) words, and a protection edge costs
// O(n*n/64) word operations to account for. The edges an entry inserts
// all end at its head h and start outside h's descendants, so they
// leave both y's ancestors and h's descendants as they were: the order
// ancestors are visited in decides which implied edges are skipped,
// never the closure.
//
// The graph is laid out already; the edges that survive join their
// nodes' lists one by one (link).
func (s *Scratch) protect() {
	g := &s.graph
	n := len(g.Nodes)
	s.seq = ir.Grow(s.seq, n)
	seq := s.seq
	reach := &s.reach
	reach.words = 0 // not built yet
	affectsOf := -1 // the clock reach.affects holds the tickers of

	// The clock being processed and the head of the sequence being
	// entered.
	var k int
	var h int32

	// order makes from precede h.
	order := func(from int32) {
		if reach.reaches(int(from), int(h)) {
			return // by a path: the edge would constrain nothing
		}
		s.link(&g.Nodes[from].Succs, Edge{To: h, Type: extra, Clock: -1})
		s.link(&g.Nodes[h].Preds, Edge{To: from, Type: extra, Clock: -1})
		reach.addEdge(int(from), int(h))
	}
	// entry handles the alternate entry from y into h's sequence.
	entry := func(y int) {
		if reach.words == 0 {
			s.buildClosure()
		}
		if affectsOf != k {
			affectsOf = k
			clear(reach.affects)
			for z := range g.Nodes {
				if g.Nodes[z].Inst.Tmpl.AffectsClock == k {
					reach.affects[z>>6] |= 1 << (uint(z) & 63)
				}
			}
		}
		// The ancestors that reach h already — on a long block nearly
		// all of them — are passed over a word at a time.
		anc, above := reach.anc(y), reach.anc(int(h))
		for w := len(anc) - 1; w >= 0; w-- {
			x := anc[w]
			if w == y>>6 {
				x |= 1 << (uint(y) & 63)
			}
			for x &= reach.affects[w] &^ above[w]; x != 0; {
				b := bits.Len64(x) - 1
				x &^= 1 << uint(b)
				z := int32(w<<6 + b)
				if hz := seq[z].head; hz == h {
					continue // h itself, or a member of its sequence
				} else if !reach.reaches(int(h), int(z)) {
					order(z)
				} else if hz != z && !reach.reaches(int(h), int(hz)) {
					order(hz)
				}
			}
		}
	}

	for k = range s.clocks {
		if !s.clocks[k] {
			continue
		}
		for i := range g.Nodes {
			nd := &seq[i]
			nd.head, nd.member = int32(i), false
			for _, e := range g.Nodes[i].Preds {
				if e.Type == True && int(e.Clock) == k {
					// Temporal sources precede their destinations in the
					// code thread, so their head is final.
					nd.head = seq[e.To].head
					nd.member = true
				}
			}
		}

		for i := range g.Nodes {
			if !seq[i].member {
				continue
			}
			h = seq[i].head
			// Protection edges end at heads of clock k, never at the
			// member i, so i's predecessors do not change under this loop;
			// a head of an earlier clock's sequence can be a member here,
			// and the protection edges into it are entries like any other.
			for _, e := range g.Nodes[i].Preds {
				if e.Type == True && int(e.Clock) == k && seq[e.To].head == h {
					continue // the in-sequence temporal edge itself
				}
				entry(int(e.To))
			}
		}
	}
}

// closure is the reachability closure of a graph, as two n-row bitset
// matrices of ceil(n/64) words per row: row a of desc holds the nodes
// reachable from a by one or more edges, row a of up the nodes a is
// reachable from. It is built from the edges in the graph's Succs, which
// must be all there are at that point; addEdge accounts for every later
// one. affects is one more row: protect's set of nodes that advance the
// clock it is working on.
type closure struct {
	words             int // per row
	desc, up, affects []uint64
}

func (c *closure) row(m []uint64, a int) []uint64 { return m[a*c.words : (a+1)*c.words] }

// anc returns the set of a's proper ancestors.
func (c *closure) anc(a int) []uint64 { return c.row(c.up, a) }

// reaches reports whether there is a path (possibly empty) from a to b.
func (c *closure) reaches(a, b int) bool {
	return a == b || c.desc[a*c.words+b>>6]&(1<<(uint(b)&63)) != 0
}

// buildClosure fills s.reach from the laid-out graph.
func (s *Scratch) buildClosure() {
	n := len(s.graph.Nodes)
	c := &s.reach
	c.words = (n + 63) / 64
	s.words = ir.Grow(s.words, (2*n+1)*c.words)
	c.desc, c.up, c.affects = s.words[:n*c.words], s.words[n*c.words:2*n*c.words], s.words[2*n*c.words:]
	s.done = ir.Grow(s.done, 2*n)
	for a := 0; a < n; a++ {
		s.fill(c.desc, s.done[:n], false, a)
		s.fill(c.up, s.done[n:], true, a)
	}
}

// fill computes a's row of rows — its descendants, or with up its
// ancestors — by memoized depth-first search: it does not depend on
// edges running forward in thread order.
func (s *Scratch) fill(rows []uint64, done []bool, up bool, a int) {
	if done[a] {
		return
	}
	done[a] = true // edges are acyclic by construction
	edges := s.graph.Nodes[a].Succs
	if up {
		edges = s.graph.Nodes[a].Preds
	}
	ra := s.reach.row(rows, a)
	for _, e := range edges {
		to := int(e.To)
		s.fill(rows, done, up, to)
		for w, x := range s.reach.row(rows, to) {
			ra[w] |= x
		}
		ra[to>>6] |= 1 << (uint(to) & 63)
	}
}

// addEdge accounts for a new edge from -> to, which from did not reach
// before: from and its ancestors now reach to and its descendants.
func (c *closure) addEdge(from, to int) {
	c.spread(c.desc, c.up, from, to)
	c.spread(c.up, c.desc, to, from)
}

// spread adds {b} and b's row of m to the rows of a and of every node
// in a's row of the opposite matrix.
func (c *closure) spread(m, opposite []uint64, a, b int) {
	gain := c.row(m, b)
	add := func(a int) {
		ra := c.row(m, a)
		if ra[b>>6]&(1<<(uint(b)&63)) != 0 {
			return // holds b, and so b's row, already
		}
		for w, x := range gain {
			ra[w] |= x
		}
		ra[b>>6] |= 1 << (uint(b) & 63)
	}
	add(a)
	for w, x := range c.row(opposite, a) {
		for ; x != 0; x &= x - 1 {
			add(w<<6 + bits.TrailingZeros64(x))
		}
	}
}

// HeightsInto computes, for every node, the maximum latency-weighted
// distance to any leaf — the paper's list scheduling priority heuristic
// — in buf when buf is long enough.
func (g *Graph) HeightsInto(buf []int) []int {
	h := ir.Grow(buf, len(g.Nodes))
	for i := range h {
		h[i] = -1 // not computed yet
	}
	for i := range h {
		g.height(h, i)
	}
	return h
}

// height fills in and returns h[i]. Protection edges may run backward in
// thread order, so this is a memoized search rather than a reverse
// sweep; edges are acyclic by construction.
func (g *Graph) height(h []int, i int) int {
	if h[i] < 0 {
		h[i] = 0
		best := 0
		for _, e := range g.Nodes[i].Succs {
			if d := int(e.Latency) + g.height(h, int(e.To)); d > best {
				best = d
			}
		}
		h[i] = best
	}
	return h[i]
}
