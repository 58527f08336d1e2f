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
// loop for the glue rewrites of the functions it compiles in one Run.
// Its chunks size themselves (Chunks), so a small unit pays for small
// chunks. Every kid list has cap == len: appending to one node's Kids
// reallocates rather than writing into a neighbour's.
//
// A slab belongs to one goroutine at a time and is never shared or
// package-level. Its nodes live as long as the IL they make up. When
// that IL escapes — a module a caller keeps — the slab is dropped with
// it, never rewound. When its owner knows the IL is dead — the driver,
// once a compile that lowered its own source has returned and the
// module's blocks hold no statement — Rewind zeroes what was carved and
// keeps the chunks for the next unit, as the C parser's scratch keeps
// its own. The zero Slab is ready to use.
type Slab struct {
	nodes Chunks[Node]
	kids  Chunks[*Node]
}

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

// keepBytes is the one keep rule of every pooled scratch: what it keeps
// of one table, list, map or set of chunks from one use to the next. A
// unit or function that grew one past it leaves it to the collector at
// the next use that needs less, so one huge input compiled in a
// long-lived process does not pin its storage in a pool. Grow sizes a
// table, Keep empties a list, KeepMap a map, and Chunks.Reset a set of
// chunks, each to this bound; Trim holds a table to it while its
// scratch waits idle. No other package sizes storage by bytes.
const keepBytes = 512 << 10

// bytesOf is the size of n values of T.
func bytesOf[T any](n int) int {
	var zero T
	return n * int(unsafe.Sizeof(zero))
}

// Grow returns s with length n and every element zero, for a table a
// scratch sizes to each use. It reuses s's storage when that holds n,
// and grows it as append does when it does not, so a scratch sized to
// a growing run of requests reallocates O(log n) times, not at each new
// maximum. Storage past keepBytes is reused only for a request that is
// itself past it: otherwise it is dropped for storage of n.
func Grow[T any](s []T, n int) []T {
	if bytesOf[T](cap(s)) > keepBytes && bytesOf[T](n) <= keepBytes {
		s = nil
	}
	if cap(s) < n {
		return make([]T, n, grown(cap(s), n))
	}
	s = s[:n]
	clear(s)
	return s
}

// grown is the capacity append gives a list of capacity c grown to hold
// n > c values (runtime.nextslicecap, before rounding to a size class):
// double while small, then a quarter more, and n itself past double.
func grown(c, n int) int {
	if n > 2*c {
		return n
	}
	if c < 256 {
		return 2 * c
	}
	for c < n {
		c += (c + 3*256) / 4
	}
	return c
}

// Keep returns l emptied for the next use, for a list a scratch empties
// at Detach: every slot up to cap is zeroed, so nothing stays reachable
// from it, or l is dropped (nil) when its storage is past keepBytes.
func Keep[T any](l []T) []T {
	if bytesOf[T](cap(l)) > keepBytes {
		return nil
	}
	clear(l[:cap(l)])
	return l[:0]
}

// Trim returns t, or nil when its storage is past keepBytes: what a
// scratch's Detach does to a table Grow sizes, so that a scratch waiting
// idle in a free list keeps no more than its next use could. Unlike
// Keep it clears nothing: a table of values that point at no compile is
// cleared by Grow at its next use.
func Trim[T any](t []T) []T {
	if bytesOf[T](cap(t)) > keepBytes {
		return nil
	}
	return t
}

// KeepMap is Keep for a map: m cleared, or a new map when m is nil or
// its entries' keys and values hold more than keepBytes (clearing a Go
// map keeps its buckets).
func KeepMap[K comparable, V any](m map[K]V) map[K]V {
	if m == nil || bytesOf[K](len(m))+bytesOf[V](len(m)) > keepBytes {
		return map[K]V{}
	}
	clear(m)
	return m
}

// Chunks carves values of one type from chunks, so building values costs
// an allocation a chunk rather than one a value: the IL's nodes and kid
// lists (Slab), the C parser's expressions, statements and objects, and
// a function's code (asm.Arena). all[:used] hold the values carved since
// the last Reset, the last of them the chunk being filled; all[used:]
// are empty chunks kept from before, taken, whatever their size, before
// any new one is made. The zero value is ready to use.
//
// A chunk sizes itself from what was carved since the last Reset: a new
// one holds as many values again, at least 512 bytes of them and at most
// 32 KiB (the largest allocation Go rounds up to a size class; a larger
// one is rounded up to whole pages), and never fewer than the request
// that opens it. So the chunks of one use grow as append grows a list,
// and a small unit pays for small chunks.
type Chunks[T any] struct {
	all   [][]T
	used  int
	built int // values carved since Reset
}

// Carve returns a copy of v carved from the chunks.
func (c *Chunks[T]) Carve(v T) *T {
	if c.used == 0 || len(c.all[c.used-1]) == cap(c.all[c.used-1]) {
		c.open(1)
	}
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
	c.built += n
	cur := &c.all[c.used-1]
	at := len(*cur)
	*cur = (*cur)[:at+n]
	return (*cur)[at : at+n : at+n]
}

// open makes the next chunk with room for need values the one being
// filled: the next kept chunk that has the room (a kept chunk too small
// for the request is passed over, empty, until the next Reset), or a new
// one sized by the rule above.
func (c *Chunks[T]) open(need int) {
	for c.used < len(c.all) && cap(c.all[c.used]) < need {
		c.used++
	}
	if c.used == len(c.all) {
		size := bytesOf[T](1)
		n := max(need, min(32<<10/size, max(c.built, 512/size)))
		c.all = append(c.all, slices.Grow([]T(nil), n))
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
	kept, n := 0, 0
	for ; n < len(c.all); n++ {
		if kept += bytesOf[T](cap(c.all[n])); kept > keepBytes {
			break
		}
	}
	clear(c.all[n:])
	c.all = c.all[:n]
	c.used, c.built = 0, 0
}
