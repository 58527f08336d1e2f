package cc

import "marion/internal/ir"

// slab carves a unit's expressions, statements and objects from chunks
// (ir.Chunks, the type an ir.Slab carves the IL from), so parsing costs
// an allocation a chunk rather than one a node; sema's implicit casts
// come from it too. It is scratch: the AST is dead once the unit is
// lowered, so the slab lives in a Scratch, which the driver pools, and
// reset zeroes the chunks for the next unit instead of dropping them. A
// later unit is carved from storage an earlier one grew.
type slab struct {
	exprs ir.Chunks[Expr]
	stmts ir.Chunks[Stmt]
	objs  ir.Chunks[Obj]
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
