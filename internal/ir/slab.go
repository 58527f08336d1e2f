package ir

import (
	"math"
	"slices"
	"unsafe"
)

// Slab hands out the nodes and kid lists of IL under construction,
// carved from chunks, so building a function costs a few allocations
// instead of two a node. Whoever builds the IL owns the slab — the
// driver's front end for the unit it lowers (the C lowering and the
// textual parser carve into the slab they are given), a pipeline claim
// loop for the glue rewrites of the functions it compiles in one Run —
// and sizes its chunks through Expect from what its input says is still
// to come, so a small unit pays for small chunks. Every kid list has
// cap == len: appending to one node's Kids reallocates rather than
// writing into a neighbour's.
//
// A slab belongs to one goroutine at a time and is never shared or
// package-level. Its nodes live as long as the IL they make up. When
// that IL escapes — a module a caller keeps — the slab is dropped with
// it, never rewound. When its owner knows the IL is dead — the driver,
// once a compile that lowered its own source has returned and the
// module's blocks hold no statement — Rewind zeroes what was carved and
// keeps the chunks for the next unit, as the C parser's scratch keeps
// its own. The zero Slab expects nothing and allocates every node and
// list on its own.
type Slab struct {
	nodes Chunks[Node]
	kids  Chunks[*Node]
}

// Expect tells the slab that about nodes more nodes, holding about kids
// kid slots between them, are still to be built. New chunks are sized
// from it (a chunk is never smaller than the request that opens it): an
// estimate that runs short costs extra chunks, one that runs long costs
// the unused tail of the last. Kept chunks are filled first, whatever
// their size.
func (s *Slab) Expect(nodes, kids int) {
	s.nodes.Expect(nodes)
	s.kids.Expect(kids)
}

// Built reports how many nodes and kid slots the slab has handed out
// since it was made or rewound, for an owner that estimates what is to
// come from what it has built.
func (s *Slab) Built() (nodes, kids int) { return s.nodes.Built(), s.kids.Built() }

// Rewind readies the slab for the next unit: every node and kid list it
// handed out is zeroed, and its chunks, up to keepBytes of each kind,
// are kept for the next unit to fill. The IL built from it must be dead:
// nothing may reach a node it carved.
func (s *Slab) Rewind() {
	s.nodes.Reset()
	s.kids.Reset()
}

// Node returns a copy of n carved from the slab. When kids are given,
// its Kids is a fresh list of the slab's holding them; otherwise it
// keeps n.Kids.
func (s *Slab) Node(n Node, kids ...*Node) *Node {
	c := s.nodes.Carve(n)
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
	return s.kids.CarveN(n)
}

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

// keepBytes bounds what Reset keeps of one Chunks for the next use: what
// a unit grew beyond it is dropped, so one huge unit compiled in a
// long-lived process does not pin its storage in a pool.
const keepBytes = 512 << 10

// Chunks carves values of one type from chunks, so building values costs
// an allocation a chunk rather than one a value: the IL's nodes and kid
// lists (Slab), and the C parser's expressions, statements and objects.
// all[:used] hold the values carved since the last Reset, the last of
// them the chunk being filled; all[used:] are empty chunks kept from
// before, taken, whatever their size, before any new one is made. The
// zero value is ready to use.
type Chunks[T any] struct {
	all        [][]T
	used       int
	due, built int // still expected, counted down as carved; carved since Reset
	floor      int // the fewest values a new chunk holds
}

// Expect tells c that about n more values are still to be carved: a new
// chunk holds that many, and at most 32 KiB, the largest allocation Go
// rounds up to a size class (a larger one is rounded up to whole pages,
// and whatever the rounding adds is waste at the end of a unit).
func (c *Chunks[T]) Expect(n int) { c.due = n }

// Floor makes every new chunk hold at least n values, for an owner
// whose estimates may run short: once what was expected is carved, a
// new chunk holds n values rather than only the request that opens it.
func (c *Chunks[T]) Floor(n int) { c.floor = n }

// Built reports how many values c has carved since the last Reset.
func (c *Chunks[T]) Built() int { return c.built }

// Carve returns a copy of v carved from the chunks.
func (c *Chunks[T]) Carve(v T) *T {
	if c.used == 0 || len(c.all[c.used-1]) == cap(c.all[c.used-1]) {
		c.open(1)
	}
	c.due--
	c.built++
	cur := &c.all[c.used-1]
	*cur = append(*cur, v)
	return &(*cur)[len(*cur)-1]
}

// CarveN returns n adjacent zero values carved from the chunks, as a
// list with cap == len.
func (c *Chunks[T]) CarveN(n int) []T {
	if c.used == 0 || cap(c.all[c.used-1])-len(c.all[c.used-1]) < n {
		c.open(n)
	}
	c.due -= n
	c.built += n
	cur := &c.all[c.used-1]
	at := len(*cur)
	*cur = (*cur)[:at+n]
	return (*cur)[at : at+n : at+n]
}

// open makes the next chunk with room for need values the one being
// filled: the next kept chunk that has the room (a kept chunk too small
// for the request is passed over, empty, until the next Reset), or a new
// one holding what is due.
func (c *Chunks[T]) open(need int) {
	for c.used < len(c.all) && cap(c.all[c.used]) < need {
		c.used++
	}
	if c.used == len(c.all) {
		var zero T
		most := 32 << 10 / int(unsafe.Sizeof(zero))
		c.all = append(c.all, slices.Grow([]T(nil), max(need, min(max(c.due, c.floor), most))))
	}
	c.used++
}

// Reset empties the chunks for the next use, zeroing every value carved
// since the last Reset so that nothing stays reachable from them, and
// keeps the first chunks up to keepBytes, dropping the rest.
func (c *Chunks[T]) Reset() {
	for i, ch := range c.all[:c.used] {
		clear(ch)
		c.all[i] = ch[:0]
	}
	var zero T
	kept, n := 0, 0
	for ; n < len(c.all); n++ {
		if kept += cap(c.all[n]) * int(unsafe.Sizeof(zero)); kept > keepBytes {
			break
		}
	}
	clear(c.all[n:])
	c.all = c.all[:n]
	c.used, c.due, c.built = 0, 0, 0
}
