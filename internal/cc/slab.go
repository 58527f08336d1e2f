package cc

import "marion/internal/ir"

// slab carves a unit's expressions, statements and objects from chunks
// (ir.Chunks, the type an ir.Slab carves the IL from), so parsing costs
// an allocation a chunk rather than one a node. The parser sizes new
// chunks from the source still unread (expect), and sema's implicit
// casts come from it too. It is scratch: the AST is dead once the unit
// is lowered, so the slab lives in a Scratch, which the driver pools,
// and reset zeroes the chunks for the next unit instead of dropping
// them. A later unit is carved from storage an earlier one grew.
type slab struct {
	exprs ir.Chunks[Expr]
	stmts ir.Chunks[Stmt]
	objs  ir.Chunks[Obj]
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

// expect sizes the next chunks for the unread bytes of a source of which
// read bytes are parsed, at the rate the unit has built expressions,
// statements and objects per byte so far, plus a few for the tail of the
// unit. The density of code varies threefold, so no fixed rate fits: one
// would leave chunks' tails unused or cut chunks short.
func (s *slab) expect(read, unread int) {
	read = max(read, 1)
	expect(&s.exprs, read, unread, bytesPerExpr, 8)
	expect(&s.stmts, read, unread, bytesPerStmt, 4)
	expect(&s.objs, read, unread, bytesPerObj, 4)
}

func expect[T any](c *ir.Chunks[T], read, unread, bytesPer, tail int) {
	c.Expect(unread*max(c.Built(), read/bytesPer)/read + tail)
}

// expr returns a copy of e carved from the slab.
func (s *slab) expr(e Expr) *Expr { return s.exprs.Carve(e) }

// stmt returns a copy of st carved from the slab.
func (s *slab) stmt(st Stmt) *Stmt { return s.stmts.Carve(st) }

// obj returns a copy of o carved from the slab.
func (s *slab) obj(o Obj) *Obj { return s.objs.Carve(o) }

// reset empties the slab for the next unit, zeroing what the unit carved
// and keeping the first chunks of each kind up to the bound.
func (s *slab) reset() {
	s.exprs.Reset()
	s.stmts.Reset()
	s.objs.Reset()
}
