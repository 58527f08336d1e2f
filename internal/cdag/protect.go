package cdag

import "math/bits"

// protect implements the temporal-sequence protection pass (paper §4.6,
// Figure 6). For each clock k, a temporal sequence is a chain of nodes
// connected by temporal edges ON THAT CLOCK (a chaining sub-operation
// like the i860's a1m belongs to a multiplier sequence as a member and
// heads its own adder sequence). An alternate entry into sequence T is
// an edge (y,x) whose destination x is in T but is not T's head; for
// every such entry, each ancestor z of y (y included) that affects k
// gets an extra edge z -> head(T) (or from the head of z's own sequence
// when the direct edge would create a cycle). This ensures every
// k-affecting ancestor of any sequence member is scheduled before the
// sequence's head, which makes deadlock under scheduling Rule 1
// impossible.
//
// Both questions — "which nodes are ancestors of y?" and "would z -> h
// create a cycle?" — are answered from the block's reachability closure
// (see closure), built when the first alternate entry is found and kept
// current as protection edges go in: an entry costs one pass over a
// bitset row plus constant work per k-affecting ancestor, where the
// paper's backward search costs O(e) per entry. The closure takes
// 2*n*ceil(n/64) words, and a protection edge that opens a new path
// costs O(n*n/64) word operations to account for. The edges an entry
// inserts all end at its head h and start outside h's descendants, so
// they leave both y's ancestors and h's descendants as they were: the
// order ancestors are visited in cannot change the edges inserted.
//
// g holds the dependence edges found so far (bl.finish has run). The
// protection edges are appended to bl.edges, and protect reports whether
// there are any, in which case the caller lays the graph out again: on
// long i860 blocks they outnumber the dependence edges several times
// over, so they are not appended to the nodes one by one.
func (bl *builder) protect(g *Graph) bool {
	n := len(g.Nodes)
	base := len(bl.edges)

	// Per-node scratch, shared by every clock and entry.
	type scratch struct {
		// head: the head of the node's clock-k temporal sequence
		// (following clock-k temporal predecessor edges transitively);
		// member marks non-head members.
		head   int32
		member bool
		// direct == mark: the node has an edge to h already.
		direct int32
		// The protection edges INTO the node, oldest first: the first
		// and last one's index + 1 in bl.edges, chained by their next.
		firstProt, lastProt int32
	}
	nodes := make([]scratch, n)
	var reach *closure
	var affects []uint64 // the set of nodes that advance clock affectsOf
	affectsOf := -1
	mark := int32(0)

	// The clock being processed and the head of the sequence being
	// entered.
	var k int
	var h int32

	// insert adds the protection edge from -> h unless the pair is
	// ordered by a direct edge already.
	insert := func(from int32) {
		if nodes[from].direct == mark {
			return
		}
		nodes[from].direct = mark
		l := bl.push(pendingEdge{from: from, to: h, clock: -1, typ: Extra}) + 1
		if t := &nodes[h]; t.lastProt != 0 {
			bl.edges[t.lastProt-1].next = l
			t.lastProt = l
		} else {
			t.firstProt, t.lastProt = l, l
		}
		reach.addEdge(int(from), int(h))
	}
	// entry handles the alternate entry from y into h's sequence.
	entry := func(y int) {
		if reach == nil {
			reach = g.newClosure()
			affects = make([]uint64, reach.words)
		}
		if affectsOf != k {
			affectsOf = k
			clear(affects)
			for z := range g.Nodes {
				if g.Nodes[z].Inst.Tmpl.AffectsClock == k {
					affects[z>>6] |= 1 << (uint(z) & 63)
				}
			}
		}
		for w, x := range reach.anc(y) {
			if w == y>>6 {
				x |= 1 << (uint(y) & 63)
			}
			for x &= affects[w]; x != 0; x &= x - 1 {
				z := int32(w<<6 + bits.TrailingZeros64(x))
				if hz := nodes[z].head; hz == h {
					continue // h itself, or a member of its sequence
				} else if !reach.reaches(int(h), int(z)) {
					insert(z)
				} else if hz != z && !reach.reaches(int(h), int(hz)) {
					insert(hz)
				}
			}
		}
	}

	for k = range bl.clocks {
		if !bl.clocks[k] {
			continue
		}
		for i := range g.Nodes {
			nd := &nodes[i]
			nd.head, nd.member = int32(i), false
			for _, e := range g.Nodes[i].Preds {
				if e.Type == True && e.Clock == k {
					// Temporal sources precede their destinations in the
					// code thread, so their head is final.
					nd.head = nodes[e.To].head
					nd.member = true
				}
			}
		}

		for i := range g.Nodes {
			if !nodes[i].member {
				continue
			}
			h = nodes[i].head
			// Mark the nodes that already have an edge to h, so that a
			// pair rediscovered from another entry is not inserted twice.
			mark++
			for _, e := range g.Nodes[h].Preds {
				nodes[e.To].direct = mark
			}
			for l := nodes[h].firstProt; l != 0; l = bl.edges[l-1].next {
				nodes[bl.edges[l-1].from].direct = mark
			}
			// Protection edges end at heads of clock k, never at the
			// member i, so i's predecessors do not change under this loop;
			// a head of an earlier clock's sequence can be a member here,
			// and the protection edges into it are entries like any other.
			for _, e := range g.Nodes[i].Preds {
				if e.Type == True && e.Clock == k && nodes[e.To].head == h {
					continue // the in-sequence temporal edge itself
				}
				entry(e.To)
			}
			for l := nodes[i].firstProt; l != 0; l = bl.edges[l-1].next {
				entry(int(bl.edges[l-1].from))
			}
		}
	}
	return len(bl.edges) > base
}

// closure is the reachability closure of a graph, as two n-row bitset
// matrices of ceil(n/64) words per row: row a of desc holds the nodes
// reachable from a by one or more edges, row a of up the nodes a is
// reachable from. It is built from the edges in g's Succs, which must be
// all there are at that point; addEdge accounts for every later one.
type closure struct {
	words    int // per row
	desc, up []uint64
}

func (c *closure) row(m []uint64, a int) []uint64 { return m[a*c.words : (a+1)*c.words] }

// anc returns the set of a's proper ancestors.
func (c *closure) anc(a int) []uint64 { return c.row(c.up, a) }

// reaches reports whether there is a path (possibly empty) from a to b.
func (c *closure) reaches(a, b int) bool {
	return a == b || c.desc[a*c.words+b>>6]&(1<<(uint(b)&63)) != 0
}

func (g *Graph) newClosure() *closure {
	n := len(g.Nodes)
	c := &closure{words: (n + 63) / 64}
	both := make([]uint64, 2*n*c.words)
	c.desc, c.up = both[:n*c.words], both[n*c.words:]
	// Descendants by memoized depth-first search: it does not depend on
	// edges running forward in thread order.
	done := make([]bool, n)
	var fill func(a int)
	fill = func(a int) {
		done[a] = true // edges are acyclic by construction
		ra := c.row(c.desc, a)
		for _, e := range g.Nodes[a].Succs {
			if !done[e.To] {
				fill(e.To)
			}
			for w, x := range c.row(c.desc, e.To) {
				ra[w] |= x
			}
			ra[e.To>>6] |= 1 << (uint(e.To) & 63)
		}
	}
	for a := range g.Nodes {
		if !done[a] {
			fill(a)
		}
		// Ancestors are the transpose.
		for w, x := range c.row(c.desc, a) {
			for ; x != 0; x &= x - 1 {
				d := w<<6 + bits.TrailingZeros64(x)
				c.up[d*c.words+a>>6] |= 1 << (uint(a) & 63)
			}
		}
	}
	return c
}

// addEdge accounts for a new edge from -> to: from and its ancestors now
// reach to and its descendants. Nothing changes when from reached to
// already — the common case, since an edge from a sequence's member to
// a later head usually parallels a dependence path.
func (c *closure) addEdge(from, to int) {
	if c.reaches(from, to) {
		return
	}
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

// Roots returns the indices of nodes with no predecessors.
func (g *Graph) Roots() []int {
	var out []int
	for i, nd := range g.Nodes {
		if len(nd.Preds) == 0 {
			out = append(out, i)
		}
	}
	return out
}

// Heights computes, for every node, the maximum latency-weighted distance
// to any leaf — the paper's list scheduling priority heuristic.
func (g *Graph) Heights() []int {
	// Protection edges may run backward in thread order, so use a memoized
	// DFS rather than a reverse sweep.
	n := len(g.Nodes)
	h := make([]int, n)
	done := make([]bool, n)
	var dfs func(i int) int
	dfs = func(i int) int {
		if done[i] {
			return h[i]
		}
		done[i] = true // edges are acyclic by construction
		best := 0
		for _, e := range g.Nodes[i].Succs {
			if d := e.Latency + dfs(e.To); d > best {
				best = d
			}
		}
		h[i] = best
		return best
	}
	for i := range g.Nodes {
		dfs(i)
	}
	return h
}
