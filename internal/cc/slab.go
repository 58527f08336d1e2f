package cc

import (
	"slices"
	"unsafe"
)

// slab carves a unit's expressions, statements and objects from chunks,
// so parsing costs an allocation a chunk rather than one a node. The
// parser sizes new chunks from the source still unread (expect), and
// sema's implicit casts come from it too. Unlike an ir.Slab, whose
// nodes are output, it is scratch: the AST is dead once the unit is
// lowered, so the slab lives in a Scratch, which the driver pools, and
// reset zeroes the chunks for the next unit instead of dropping them. A
// later unit is carved from storage an earlier one grew.
type slab struct {
	exprs chunks[Expr]
	stmts chunks[Stmt]
	objs  chunks[Obj]
}

// Source bytes per expression, statement and object before a unit has
// shown its own: more than code spends (4 to 14, 17 to 40 and about 100
// in the benchmark's units), so a first estimate runs short rather than
// long.
const (
	bytesPerExpr = 16
	bytesPerStmt = 48
	bytesPerObj  = 128
)

// keepBytes bounds what a Scratch keeps of each chunk set and list for
// the next unit, and keepEntries its file scope map: what a unit grew
// beyond them is dropped at Detach, so one huge unit compiled in a
// long-lived process does not pin its storage in the pool. (ilgen's
// Scratch keeps to the same two.)
const (
	keepBytes   = 512 << 10
	keepEntries = 8 << 10
)

// expect sizes the next chunks for the unread bytes of a source of which
// read bytes are parsed, at the rate the unit has built expressions,
// statements and objects per byte so far, plus a few for the tail of the
// unit. The density of code varies threefold, so no fixed rate fits: one
// would leave chunks' tails unused or cut chunks short.
func (s *slab) expect(read, unread int) {
	read = max(read, 1)
	s.exprs.expect(read, unread, bytesPerExpr, 8)
	s.stmts.expect(read, unread, bytesPerStmt, 4)
	s.objs.expect(read, unread, bytesPerObj, 4)
}

// expr returns a copy of e carved from the slab.
func (s *slab) expr(e Expr) *Expr { return s.exprs.carve(e) }

// stmt returns a copy of st carved from the slab.
func (s *slab) stmt(st Stmt) *Stmt { return s.stmts.carve(st) }

// obj returns a copy of o carved from the slab.
func (s *slab) obj(o Obj) *Obj { return s.objs.carve(o) }

// reset empties the slab for the next unit (see chunks.reset).
func (s *slab) reset() {
	s.exprs.reset()
	s.stmts.reset()
	s.objs.reset()
}

// chunks carves values of one type. all[:used] hold the unit's values,
// the last of them the one being filled; all[used:] are empty chunks
// kept from earlier units, taken before any new one is made.
type chunks[T any] struct {
	all        [][]T
	used       int
	due, built int // still expected, counted down as carved; carved this unit
}

func (c *chunks[T]) expect(read, unread, bytesPer, tail int) {
	c.due = unread*max(c.built, read/bytesPer)/read + tail
}

// carve returns a copy of v carved from the chunks. A new chunk holds
// what is due, and at most 32 KiB, the largest allocation Go rounds up
// to a size class.
func (c *chunks[T]) carve(v T) *T {
	if c.used == 0 || len(c.all[c.used-1]) == cap(c.all[c.used-1]) {
		if c.used == len(c.all) {
			most := 32 << 10 / int(unsafe.Sizeof(v))
			c.all = append(c.all, slices.Grow([]T(nil), max(1, min(c.due, most))))
		}
		c.used++
	}
	c.due--
	c.built++
	cur := &c.all[c.used-1]
	*cur = append(*cur, v)
	return &(*cur)[len(*cur)-1]
}

// reset empties the unit's chunks, zeroing the values they held so that
// nothing of the unit stays reachable from them, and keeps the first
// chunks up to keepBytes for the next unit.
func (c *chunks[T]) reset() {
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

// emptied returns a list a Scratch keeps for the next unit: l with every
// slot it ever held zeroed, or nil when it has grown past keepBytes.
func emptied[T any](l []T) []T {
	var zero T
	if cap(l)*int(unsafe.Sizeof(zero)) > keepBytes {
		return nil
	}
	clear(l[:cap(l)])
	return l[:0]
}
