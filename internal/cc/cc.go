package cc

import "marion/internal/ir"

// Compile parses and type-checks a translation unit on a scratch of its
// own.
func Compile(file, src string) (*File, error) { return new(Scratch).Compile(file, src) }

// Scratch is the storage the C front end works in, kept from one unit
// to the next, as lcc keeps its allocation arenas: the chunks a unit's
// expressions, statements and objects are carved from, the lexer, the
// parser's lookahead and statement and argument stacks, and the
// checker's scopes. The zero value is ready to use. A scratch belongs to
// one goroutine at a time.
type Scratch struct {
	slab slab
	lx   lexer
	p    parser
	sema sema
}

// Compile parses and type-checks a translation unit in s. The File's
// expressions, statements and objects are carved from s: they are valid
// until s's next Compile or Detach.
func (s *Scratch) Compile(file, src string) (*File, error) {
	s.Detach()
	f, err := s.parse(file, src)
	if err != nil {
		return nil, err
	}
	if err := s.check(f); err != nil {
		return nil, err
	}
	return f, nil
}

// Detach readies s to wait in a pool: it drops every pointer it holds
// into the unit it compiled last — the File's nodes and objects are
// zeroed, not freed, the source and the names are let go — keeping each
// chunk set, list and the scope map up to the bound (ir.Keep) for the
// next unit.
func (s *Scratch) Detach() {
	s.slab.reset()
	s.lx = lexer{}
	s.p.tok = token{}
	s.p.la = ir.Keep(s.p.la)
	s.p.stmts = ir.Keep(s.p.stmts)
	s.p.args = ir.Keep(s.p.args)
	m := &s.sema
	m.file, m.fn, m.loops = "", nil, 0
	m.locals = ir.Keep(m.locals)
	m.marks = ir.Keep(m.marks)
	m.globals = ir.KeepMap(m.globals)
}
