package ir

import (
	"math"
	"slices"
	"unsafe"
)

// Slab hands out the nodes and kid lists of IL under construction,
// carved from chunks, so building a function costs a few allocations
// instead of two a node. Whoever builds the IL owns the slab — the
// textual parser for its unit, the C lowering for its unit, a pipeline
// claim loop for the glue rewrites of the functions it compiles in one
// Run (its worker drops the slab, not clears it, before it is pooled) —
// and sizes its chunks through Expect from what its input says is still
// to come, so a small unit pays for small chunks. Every kid list has
// cap == len: appending to one node's Kids reallocates rather than
// writing into a neighbour's.
//
// A slab belongs to one goroutine at a time and is never shared or
// package-level. Unlike the front ends' scratch (the C parser's own
// slab, the lowering's tables), which waits in a pool between units, it
// is never pooled: the nodes it carves are output, the IL a caller is
// handed, so each unit's slab is its own and is dropped, never cleared.
// The zero Slab expects nothing and allocates every node and list on
// its own: the package-level constructors are one-liners over it, so
// nodes have one constructor whatever owns them.
type Slab struct {
	nodesDue, kidsDue int // still expected, counted down as carved
	built, kidsBuilt  int // carved in all
	nodes             []Node
	kids              []*Node
}

// A chunk holds at most 32 KiB, the largest allocation Go rounds up to a
// size class. A larger one is rounded up to whole pages, and whatever
// the rounding adds is waste at the end of a unit.
const (
	maxNodeChunk = 32 << 10 / int(unsafe.Sizeof(Node{}))
	maxKidChunk  = 32 << 10 / int(unsafe.Sizeof((*Node)(nil)))
)

// Expect tells the slab that about nodes more nodes, holding about kids
// kid slots between them, are still to be built. The next chunks are
// sized from it (a chunk is never smaller than the request that opens
// it): an estimate that runs short costs extra chunks, one that runs
// long costs the unused tail of the last.
func (s *Slab) Expect(nodes, kids int) { s.nodesDue, s.kidsDue = nodes, kids }

// Built reports how many nodes and kid slots the slab has handed out,
// for an owner that estimates what is to come from what it has built.
func (s *Slab) Built() (nodes, kids int) { return s.built, s.kidsBuilt }

// Node returns a copy of n carved from the slab. When kids are given,
// its Kids is a fresh list of the slab's holding them; otherwise it
// keeps n.Kids.
func (s *Slab) Node(n Node, kids ...*Node) *Node {
	if len(s.nodes) == cap(s.nodes) {
		s.nodes = slices.Grow([]Node(nil), chunk(1, s.nodesDue, maxNodeChunk))
	}
	s.nodesDue--
	s.built++
	s.nodes = s.nodes[:len(s.nodes)+1]
	c := &s.nodes[len(s.nodes)-1]
	*c = n
	if len(kids) > 0 {
		c.Kids = s.Kids(len(kids))
		copy(c.Kids, kids)
	}
	return c
}

// Kids returns a list of n nil kids, carved from the slab, with
// cap == len; nil when n is 0.
func (s *Slab) Kids(n int) []*Node {
	if n == 0 {
		return nil
	}
	if n > cap(s.kids)-len(s.kids) {
		s.kids = slices.Grow([]*Node(nil), chunk(n, s.kidsDue, maxKidChunk))
	}
	s.kidsDue -= n
	s.kidsBuilt += n
	at := len(s.kids)
	s.kids = s.kids[:at+n]
	return s.kids[at : at+n : at+n]
}

// chunk is the length of a new chunk: the expected count, capped at
// most, but never less than need. (Grow then rounds the capacity up to
// what the allocator hands out anyway.)
func chunk(need, due, most int) int { return max(need, min(due, most)) }

// New returns an operator node from the slab.
func (s *Slab) New(op Op, t Type, kids ...*Node) *Node {
	return s.Node(Node{Op: op, Type: t}, kids...)
}

// Const returns an integer constant node from the slab.
func (s *Slab) Const(t Type, v int64) *Node { return s.Node(Node{Op: Const, Type: t, IVal: v}) }

// FConst returns a floating constant node from the slab.
func (s *Slab) FConst(t Type, v float64) *Node {
	return s.Node(Node{Op: Const, Type: t, IVal: int64(math.Float64bits(v))})
}

// Reg returns a pseudo-register reference from the slab.
func (s *Slab) Reg(t Type, r RegID) *Node { return s.Node(Node{Op: Reg, Type: t, Reg: r}) }

// Addr returns an address-of-symbol leaf from the slab.
func (s *Slab) Addr(sym *Sym) *Node { return s.Node(Node{Op: Addr, Type: Ptr, Sym: sym}) }
