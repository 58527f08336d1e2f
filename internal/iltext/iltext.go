// Package iltext gives Marion's intermediate language a textual form:
// a printer and a parser that round-trip an ir.Module exactly,
// including DAG sharing, block structure and frame layout, so the
// parsed module compiles to byte-identical assembly.
//
// The format exists so the back end can be driven without the C front
// end — other front ends (or the compile service's "il" language) hand
// Marion a module directly. It is line-friendly but not line-based:
// header directives are keyword-introduced token runs, statements are
// s-expressions.
//
//	module examples/c/dot.c
//	global .fc0 double size 8 initf 0
//	func dot ret double
//	reg t0 ptr "a"
//	param a ptr size 4 offset 0 reg t0
//	frame 0
//	block L0 depth 0
//	(asgn double t3 (load double (addr .fc0)))
//	(branch L2 (ge int (reg int t4) (reg int t2)))
//
// Statement operators mirror ir.Op (add, sub, mul, div, rem, neg, and,
// or, xor, not, shl, shr, cvt, high, low, load, store, asgn, cmp, eq,
// ne, lt, le, gt, ge, branch, jump, call, ret, const, reg, addr, fp,
// sp). A node referenced more than once — a local common subexpression,
// or a call used both as a statement and as a value — is written once
// as (def $N ...) and referenced as $N thereafter, preserving the DAG:
// the shared computation happens once, exactly as in the in-memory IL.
// Comments run from '#' to end of line; a quoted name must close on the
// line that opens it.
package iltext

import (
	"fmt"
	"strconv"
	"strings"

	"marion/internal/ir"
)

// opWords maps ir ops to their textual keywords (and back, via
// wordOps). Leaf and special forms (const, reg, addr, fp, sp, def) are
// handled structurally.
var opWords = map[ir.Op]string{
	ir.Const: "const", ir.Reg: "reg", ir.Addr: "addr",
	ir.Frame: "fp", ir.Stack: "sp",
	ir.Add: "add", ir.Sub: "sub", ir.Mul: "mul", ir.Div: "div",
	ir.Rem: "rem", ir.Neg: "neg", ir.And: "and", ir.Or: "or",
	ir.Xor: "xor", ir.Not: "not", ir.Shl: "shl", ir.Shr: "shr",
	ir.Cvt: "cvt", ir.High: "high", ir.Low: "low",
	ir.Load: "load", ir.Store: "store", ir.Asgn: "asgn",
	ir.Cmp: "cmp", ir.Eq: "eq", ir.Ne: "ne", ir.Lt: "lt",
	ir.Le: "le", ir.Gt: "gt", ir.Ge: "ge",
	ir.Branch: "branch", ir.Jump: "jump", ir.Call: "call", ir.Ret: "ret",
}

var wordOps = func() map[string]ir.Op {
	m := make(map[string]ir.Op, len(opWords))
	for op, w := range opWords {
		m[w] = op
	}
	return m
}()

var typeWords = map[ir.Type]string{
	ir.Void: "void", ir.I8: "char", ir.I16: "short", ir.I32: "int",
	ir.U32: "unsigned", ir.F32: "float", ir.F64: "double", ir.Ptr: "ptr",
}

var wordTypes = func() map[string]ir.Type {
	m := make(map[string]ir.Type, len(typeWords))
	for t, w := range typeWords {
		m[w] = t
	}
	return m
}()

// ---------------------------------------------------------------------
// Printer
// ---------------------------------------------------------------------

// Print renders a module in the textual IL format; Parse inverts it.
func Print(m *ir.Module) string {
	var b strings.Builder
	fmt.Fprintf(&b, "module %s\n", m.Name)
	// Global names need not be unique (merged modules each bring their
	// own float-pool .fcN symbols); ambiguous names are referenced
	// positionally as @index instead.
	counts := map[string]int{}
	for _, g := range m.Globals {
		counts[g.Name]++
	}
	syms := map[*ir.Sym]string{}
	for i, g := range m.Globals {
		if counts[g.Name] == 1 {
			syms[g] = g.Name
		} else {
			syms[g] = fmt.Sprintf("@%d", i)
		}
	}
	for _, g := range m.Globals {
		if g.Kind != ir.SymGlobal {
			continue
		}
		fmt.Fprintf(&b, "global %s %s size %d", g.Name, typeWords[g.Type], g.Size)
		if g.IsArray {
			b.WriteString(" array")
		}
		if len(g.InitI) > 0 {
			b.WriteString(" initi")
			for _, v := range g.InitI {
				fmt.Fprintf(&b, " %d", v)
			}
		}
		if len(g.InitF) > 0 {
			b.WriteString(" initf")
			for _, v := range g.InitF {
				fmt.Fprintf(&b, " %s", formatFloat(v))
			}
		}
		b.WriteByte('\n')
	}
	for _, fn := range m.Funcs {
		printFunc(&b, fn, syms)
	}
	return b.String()
}

func printFunc(b *strings.Builder, fn *ir.Func, syms map[*ir.Sym]string) {
	fmt.Fprintf(b, "\nfunc %s ret %s\n", fn.Name, typeWords[fn.RetType])
	for i, r := range fn.Regs {
		fmt.Fprintf(b, "reg t%d %s", i, typeWords[r.Type])
		if r.Name != "" {
			fmt.Fprintf(b, " %q", r.Name)
		}
		b.WriteByte('\n')
	}
	for i, p := range fn.Params {
		fmt.Fprintf(b, "param %s %s size %d offset %d", p.Name, typeWords[p.Type], p.Size, p.Offset)
		if r := fn.ParamRegs[i]; r != ir.NoReg {
			fmt.Fprintf(b, " reg t%d", r)
		} else {
			b.WriteString(" mem")
		}
		b.WriteByte('\n')
	}
	for _, l := range fn.Locals {
		fmt.Fprintf(b, "local %s %s size %d offset %d", l.Name, typeWords[l.Type], l.Size, l.Offset)
		if l.IsArray {
			b.WriteString(" array")
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(b, "frame %d\n", fn.LocalFrame)

	p := &printer{shared: sharedNodes(fn), ids: map[*ir.Node]int{}, syms: syms}
	for _, blk := range fn.Blocks {
		fmt.Fprintf(b, "block L%d depth %d\n", blk.ID, blk.LoopDepth)
		for _, s := range blk.Stmts {
			b.WriteString(p.expr(s))
			b.WriteByte('\n')
		}
	}
}

// sharedNodes returns the set of nodes referenced more than once across
// the function's statement DAGs (statement-root occurrences count too:
// a call appended as a statement and consumed as a value is shared).
func sharedNodes(fn *ir.Func) map[*ir.Node]bool {
	refs := map[*ir.Node]int{}
	var walk func(n *ir.Node)
	walk = func(n *ir.Node) {
		refs[n]++
		if refs[n] > 1 {
			return
		}
		for _, k := range n.Kids {
			walk(k)
		}
	}
	for _, b := range fn.Blocks {
		for _, s := range b.Stmts {
			walk(s)
		}
	}
	out := map[*ir.Node]bool{}
	for n, c := range refs {
		if c > 1 {
			out[n] = true
		}
	}
	return out
}

type printer struct {
	shared map[*ir.Node]bool
	ids    map[*ir.Node]int
	nextID int
	syms   map[*ir.Sym]string
}

// symRef renders a data-symbol reference: the unique name, or @index
// when the name is ambiguous within the module.
func (p *printer) symRef(s *ir.Sym) string {
	if ref, ok := p.syms[s]; ok {
		return ref
	}
	return s.Name
}

func (p *printer) expr(n *ir.Node) string {
	if id, ok := p.ids[n]; ok {
		return fmt.Sprintf("$%d", id)
	}
	if p.shared[n] {
		id := p.nextID
		p.nextID++
		p.ids[n] = id
		return fmt.Sprintf("(def $%d %s)", id, p.raw(n))
	}
	return p.raw(n)
}

func (p *printer) raw(n *ir.Node) string {
	t := typeWords[n.Type]
	switch n.Op {
	case ir.Const:
		if n.Type.IsFloat() {
			return fmt.Sprintf("(const %s %s)", t, formatFloat(n.Float()))
		}
		return fmt.Sprintf("(const %s %d)", t, n.IVal)
	case ir.Reg:
		return fmt.Sprintf("(reg %s t%d)", t, n.Reg)
	case ir.Addr:
		return fmt.Sprintf("(addr %s)", p.symRef(n.Sym))
	case ir.Frame:
		return "(fp)"
	case ir.Stack:
		return "(sp)"
	case ir.Cvt:
		return fmt.Sprintf("(cvt %s %s %s)", t, typeWords[n.From], p.expr(n.Kids[0]))
	case ir.Asgn:
		return fmt.Sprintf("(asgn %s t%d %s)", t, n.Reg, p.expr(n.Kids[0]))
	case ir.Branch:
		return fmt.Sprintf("(branch L%d %s)", n.Target.ID, p.expr(n.Kids[0]))
	case ir.Jump:
		return fmt.Sprintf("(jump L%d)", n.Target.ID)
	case ir.Call:
		var b strings.Builder
		fmt.Fprintf(&b, "(call %s %s", t, n.Sym.Name)
		for _, k := range n.Kids {
			b.WriteByte(' ')
			b.WriteString(p.expr(k))
		}
		b.WriteByte(')')
		return b.String()
	case ir.Ret:
		if len(n.Kids) == 0 {
			return "(ret)"
		}
		return fmt.Sprintf("(ret %s %s)", t, p.expr(n.Kids[0]))
	default:
		var b strings.Builder
		fmt.Fprintf(&b, "(%s %s", opWords[n.Op], t)
		for _, k := range n.Kids {
			b.WriteByte(' ')
			b.WriteString(p.expr(k))
		}
		b.WriteByte(')')
		return b.String()
	}
}

// formatFloat renders a float so ParseFloat recovers the exact bits.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

// Parse reads the textual IL format back into a module, on a scratch
// and a slab of its own. The result satisfies the same invariants ilgen
// establishes: CFG edges follow statement order with fallthrough last
// (ir.CFG), per-block parent counts are set, and global pseudo-registers
// are marked.
func Parse(name, src string) (*ir.Module, error) { return new(Scratch).Parse(name, src, new(ir.Slab)) }

// Scratch is the storage the parser works in, kept from one unit to the
// next: the lexer's state, the maps from the unit's names to its
// symbols, blocks and shared nodes, the operand stack, and the
// function's CFG under construction. The zero value is ready to use.
// What Parse returns is the caller's: the module's nodes come from the
// slab the caller gives, and nothing of it stays in s past the next
// Parse or Detach. A scratch belongs to one goroutine at a time.
type Scratch struct{ p parser }

// Parse is the package's Parse in s, carving the module's nodes from
// nodes, the caller's.
func (s *Scratch) Parse(name, src string, nodes *ir.Slab) (*ir.Module, error) {
	s.Detach()
	p := &s.p
	p.src, p.line, p.slab, p.mod = src, 1, nodes, &ir.Module{Name: name}
	err := p.file()
	if p.lexErr != nil {
		// The parser saw the input end where the lexer gave up, and
		// either accepted that or complained about it; the lexer's
		// reason is the one to report.
		err = p.lexErr
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return p.mod, nil
}

// Detach readies s to wait in a pool: it drops every pointer it holds
// into the unit it parsed last — the source, the module, its symbols,
// blocks and nodes, the slab — keeping each list and map's storage up
// to the bound (ir.Keep) for the next unit.
func (s *Scratch) Detach() {
	p := &s.p
	p.src, p.off, p.tok, p.have, p.lexErr = "", 0, token{}, false, nil
	p.mod, p.slab, p.fn, p.inBody = nil, nil, nil, false
	p.globals, p.ambiguous, p.fsyms = ir.KeepMap(p.globals), ir.KeepMap(p.ambiguous), ir.KeepMap(p.fsyms)
	p.blocks, p.defs = ir.KeepMap(p.blocks), ir.KeepMap(p.defs)
	p.stack = ir.Keep(p.stack)
	p.cfg.Detach()
}

type token struct {
	text string
	str  bool // quoted string literal (text already unquoted)
	line int
}

type parser struct {
	// Lexer state: the parser looks one token ahead and never backs up,
	// so tokens are cut from src on demand.
	src    string
	off    int // next unread byte of src
	line   int // line of src[off]
	tok    token
	have   bool  // tok is the lookahead
	lexErr error // set once by lex; the input ends there

	mod       *ir.Module
	globals   map[string]*ir.Sym
	ambiguous map[string]bool
	fsyms     map[string]*ir.Sym

	// slab is where the unit's nodes and kid lists are carved, the
	// caller's; stack collects the kids of the forms being parsed, which
	// are carved once complete.
	slab  *ir.Slab
	stack []*ir.Node

	// Per-function state; the two maps are emptied, not remade, from
	// one function to the next. cfg holds the function's blocks in
	// declaration order, their statements and its registers.
	fn     *ir.Func
	cfg    ir.CFG
	blocks map[int]ir.BlockRef // by ID, including forward references
	inBody bool                // a block of the function was declared
	defs   map[int]*ir.Node
}

// delim reports whether c ends a bare word.
func delim(c byte) bool {
	switch c {
	case ' ', '\t', '\r', '\n', '(', ')', '"', '#':
		return true
	}
	return false
}

// lex cuts the next token from the source. It reports false at the end
// of the input, and — after recording lexErr — at a string literal that
// its line does not close.
func (p *parser) lex() (token, bool) {
	src := p.src
	for i := p.off; i < len(src); {
		switch c := src[i]; {
		case c == '\n':
			p.line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '#':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == '(' || c == ')':
			p.off = i + 1
			return token{text: src[i : i+1], line: p.line}, true
		case c == '"':
			line := p.line
			j := i + 1
			for j < len(src) && src[j] != '"' && src[j] != '\n' {
				if src[j] == '\\' {
					j++
					if j < len(src) && src[j] == '\n' {
						p.line++
					}
				}
				j++
			}
			if j >= len(src) || src[j] != '"' {
				p.off = len(src)
				p.lexErr = fmt.Errorf("line %d: unterminated string literal", line)
				return token{}, false
			}
			p.off = j + 1
			lit := src[i : j+1]
			if s, err := strconv.Unquote(lit); err == nil {
				lit = s
			}
			return token{text: lit, str: true, line: line}, true
		default:
			j := i
			for j < len(src) && !delim(src[j]) {
				j++
			}
			p.off = j
			return token{text: src[i:j], line: p.line}, true
		}
	}
	p.off = len(src)
	return token{}, false
}

func (p *parser) peek() (token, bool) {
	if !p.have {
		p.tok, p.have = p.lex()
	}
	return p.tok, p.have
}

// advance consumes the token peek returned.
func (p *parser) advance() { p.have = false }

func (p *parser) next() (token, error) {
	t, ok := p.peek()
	if !ok {
		return token{}, fmt.Errorf("unexpected end of input")
	}
	p.advance()
	return t, nil
}

func (p *parser) errf(t token, format string, args ...interface{}) error {
	return fmt.Errorf("line %d: %s", t.line, fmt.Sprintf(format, args...))
}

func (p *parser) atom(what string) (token, error) {
	t, err := p.next()
	if err != nil {
		return t, err
	}
	if t.text == "(" || t.text == ")" {
		return t, p.errf(t, "expected %s, got %q", what, t.text)
	}
	return t, nil
}

func (p *parser) parseType() (ir.Type, error) {
	t, err := p.atom("type")
	if err != nil {
		return 0, err
	}
	ty, ok := wordTypes[t.text]
	if !ok {
		return 0, p.errf(t, "unknown type %q", t.text)
	}
	return ty, nil
}

func (p *parser) parseInt(what string) (int64, error) {
	t, err := p.atom(what)
	if err != nil {
		return 0, err
	}
	v, perr := strconv.ParseInt(t.text, 10, 64)
	if perr != nil {
		return 0, p.errf(t, "bad %s %q", what, t.text)
	}
	return v, nil
}

// size parses "size N", N in [0, ir.MaxSize].
func (p *parser) size() (int, error) {
	if err := p.expect("size"); err != nil {
		return 0, err
	}
	t, _ := p.peek()
	v, err := p.parseInt("size")
	if err == nil && (v < 0 || v > ir.MaxSize) {
		err = p.errf(t, "size %d out of range [0, %d]", v, ir.MaxSize)
	}
	return int(v), err
}

func (p *parser) expect(word string) error {
	t, err := p.next()
	if err != nil {
		return err
	}
	if t.text != word {
		return p.errf(t, "expected %q, got %q", word, t.text)
	}
	return nil
}

func (p *parser) file() error {
	for {
		t, ok := p.peek()
		if !ok {
			return p.endFunc()
		}
		switch t.text {
		case "module":
			p.advance()
			n, err := p.atom("module name")
			if err != nil {
				return err
			}
			p.mod.Name = n.text
		case "global":
			p.advance()
			if err := p.global(); err != nil {
				return err
			}
		case "func":
			if err := p.endFunc(); err != nil {
				return err
			}
			p.advance()
			if err := p.funcHeader(); err != nil {
				return err
			}
		case "reg", "param", "local", "frame", "block", "(":
			if p.fn == nil {
				return p.errf(t, "%q outside func", t.text)
			}
			if err := p.funcItem(t); err != nil {
				return err
			}
		default:
			return p.errf(t, "unexpected %q", t.text)
		}
	}
}

func (p *parser) global() error {
	n, err := p.atom("global name")
	if err != nil {
		return err
	}
	if _, dup := p.globals[n.text]; dup {
		// Duplicate names are legal (merged modules, float pools);
		// references must then be positional (@index).
		p.ambiguous[n.text] = true
	}
	ty, err := p.parseType()
	if err != nil {
		return err
	}
	size, err := p.size()
	if err != nil {
		return err
	}
	s := &ir.Sym{Name: n.text, Kind: ir.SymGlobal, Type: ty, Size: size}
	for {
		t, ok := p.peek()
		if !ok {
			break
		}
		switch t.text {
		case "array":
			p.advance()
			s.IsArray = true
		case "initi":
			p.advance()
			for p.nextIsNumber() {
				v, err := p.parseInt("initi value")
				if err != nil {
					return err
				}
				s.InitI = append(s.InitI, v)
			}
		case "initf":
			p.advance()
			for p.nextIsNumber() {
				t, _ := p.next()
				v, perr := strconv.ParseFloat(t.text, 64)
				if perr != nil {
					return p.errf(t, "bad initf value %q", t.text)
				}
				s.InitF = append(s.InitF, v)
			}
		default:
			p.globals[n.text] = s
			p.mod.Globals = append(p.mod.Globals, s)
			return nil
		}
	}
	p.globals[n.text] = s
	p.mod.Globals = append(p.mod.Globals, s)
	return nil
}

// nextIsNumber reports whether the next token parses as a number (so
// init lists know where they end).
func (p *parser) nextIsNumber() bool {
	t, ok := p.peek()
	if !ok || t.str {
		return false
	}
	return isNumber(t.text)
}

// isNumber reports whether strconv.ParseFloat accepts s, without the
// error a refusal allocates for the words that end an init list: only a
// digit or a '.' after the sign can start a number ParseFloat parses,
// but for its three words.
func isNumber(s string) bool {
	u := s
	if u != "" && (u[0] == '+' || u[0] == '-') {
		u = u[1:]
	}
	switch {
	case u == "":
		return false
	case u[0] >= '0' && u[0] <= '9' || u[0] == '.':
		_, err := strconv.ParseFloat(s, 64)
		return err == nil
	}
	return strings.EqualFold(u, "inf") || strings.EqualFold(u, "infinity") || strings.EqualFold(s, "nan")
}

func (p *parser) funcHeader() error {
	n, err := p.atom("func name")
	if err != nil {
		return err
	}
	if err := p.expect("ret"); err != nil {
		return err
	}
	ret, err := p.parseType()
	if err != nil {
		return err
	}
	p.fn = ir.NewFunc(n.text, ret)
	p.cfg.Begin(p.fn)
	clear(p.blocks)
	clear(p.defs)
	p.inBody = false
	return nil
}

func (p *parser) funcItem(t token) error {
	switch t.text {
	case "reg":
		p.advance()
		id, err := p.regToken()
		if err != nil {
			return err
		}
		if int(id) != p.cfg.Regs() {
			return p.errf(t, "reg t%d declared out of order (want t%d)", id, p.cfg.Regs())
		}
		ty, err := p.parseType()
		if err != nil {
			return err
		}
		name := ""
		if nt, ok := p.peek(); ok && nt.str {
			p.advance()
			name = nt.text
		}
		p.cfg.NewReg(ty, name)
		return nil

	case "param":
		p.advance()
		s, err := p.frameSym(ir.SymParam)
		if err != nil {
			return err
		}
		p.fn.Params = append(p.fn.Params, s)
		nt, err := p.atom("reg/mem")
		if err != nil {
			return err
		}
		switch nt.text {
		case "mem":
			p.fn.ParamRegs = append(p.fn.ParamRegs, ir.NoReg)
		case "reg":
			id, err := p.regToken()
			if err != nil {
				return err
			}
			if int(id) >= p.cfg.Regs() {
				return p.errf(nt, "param register t%d not declared", id)
			}
			p.fn.ParamRegs = append(p.fn.ParamRegs, id)
		default:
			return p.errf(nt, "expected \"reg tN\" or \"mem\", got %q", nt.text)
		}
		return nil

	case "local":
		p.advance()
		s, err := p.frameSym(ir.SymLocal)
		if err != nil {
			return err
		}
		if nt, ok := p.peek(); ok && nt.text == "array" {
			p.advance()
			s.IsArray = true
		}
		p.fn.Locals = append(p.fn.Locals, s)
		return nil

	case "frame":
		p.advance()
		v, err := p.parseInt("frame size")
		if err != nil {
			return err
		}
		p.fn.LocalFrame = int(v)
		return nil

	case "block":
		p.advance()
		id, err := p.labelToken()
		if err != nil {
			return err
		}
		b := p.blockByID(id)
		if p.cfg.Started(b) {
			return p.errf(t, "duplicate block L%d", id)
		}
		if err := p.expect("depth"); err != nil {
			return err
		}
		d, err := p.parseInt("depth")
		if err != nil {
			return err
		}
		p.cfg.Start(b, int(d))
		p.inBody = true
		return nil

	case "(":
		if !p.inBody {
			return p.errf(t, "statement outside block")
		}
		n, err := p.sexpr()
		if err != nil {
			return err
		}
		p.cfg.Append(n)
		return nil
	}
	return p.errf(t, "unexpected %q", t.text)
}

// frameSym parses "NAME TYPE size N offset K" shared by param/local.
func (p *parser) frameSym(kind ir.SymKind) (*ir.Sym, error) {
	n, err := p.atom("name")
	if err != nil {
		return nil, err
	}
	ty, err := p.parseType()
	if err != nil {
		return nil, err
	}
	size, err := p.size()
	if err != nil {
		return nil, err
	}
	if err := p.expect("offset"); err != nil {
		return nil, err
	}
	off, err := p.parseInt("offset")
	if err != nil {
		return nil, err
	}
	return &ir.Sym{Name: n.text, Kind: kind, Type: ty, Size: size, Offset: int(off)}, nil
}

func (p *parser) regToken() (ir.RegID, error) {
	t, err := p.atom("register")
	if err != nil {
		return 0, err
	}
	if !strings.HasPrefix(t.text, "t") {
		return 0, p.errf(t, "bad register %q", t.text)
	}
	v, perr := strconv.Atoi(t.text[1:])
	if perr != nil || v < 0 {
		return 0, p.errf(t, "bad register %q", t.text)
	}
	return ir.RegID(v), nil
}

func (p *parser) labelToken() (int, error) {
	t, err := p.atom("label")
	if err != nil {
		return 0, err
	}
	if !strings.HasPrefix(t.text, "L") {
		return 0, p.errf(t, "bad label %q", t.text)
	}
	v, perr := strconv.Atoi(t.text[1:])
	if perr != nil || v < 0 {
		return 0, p.errf(t, "bad label %q", t.text)
	}
	return v, nil
}

func (p *parser) blockByID(id int) ir.BlockRef {
	if b, ok := p.blocks[id]; ok {
		return b
	}
	b := p.cfg.Labeled(id)
	p.blocks[id] = b
	return b
}

// sexpr parses one parenthesized expression; the opening "(" is still
// in the stream.
func (p *parser) sexpr() (*ir.Node, error) {
	if err := p.expect("("); err != nil {
		return nil, err
	}
	head, err := p.atom("operator")
	if err != nil {
		return nil, err
	}
	n, err := p.form(head)
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	return n, nil
}

// operand parses an expression operand: a nested s-expression or a $N
// shared-node reference.
func (p *parser) operand() (*ir.Node, error) {
	t, ok := p.peek()
	if !ok {
		return nil, fmt.Errorf("unexpected end of input")
	}
	if strings.HasPrefix(t.text, "$") && t.text != "(" {
		p.advance()
		id, err := strconv.Atoi(t.text[1:])
		if err != nil {
			return nil, p.errf(t, "bad node reference %q", t.text)
		}
		n, ok := p.defs[id]
		if !ok {
			return nil, p.errf(t, "reference to undefined node $%d", id)
		}
		return n, nil
	}
	return p.sexpr()
}

func (p *parser) form(head token) (*ir.Node, error) {
	switch head.text {
	case "def":
		t, err := p.atom("node id")
		if err != nil {
			return nil, err
		}
		if !strings.HasPrefix(t.text, "$") {
			return nil, p.errf(t, "def expects $N, got %q", t.text)
		}
		id, perr := strconv.Atoi(t.text[1:])
		if perr != nil {
			return nil, p.errf(t, "bad node id %q", t.text)
		}
		if _, dup := p.defs[id]; dup {
			return nil, p.errf(t, "duplicate node id $%d", id)
		}
		n, err := p.operand()
		if err != nil {
			return nil, err
		}
		p.defs[id] = n
		return n, nil

	case "fp":
		return p.slab.New(ir.Frame, ir.Ptr), nil
	case "sp":
		return p.slab.New(ir.Stack, ir.Ptr), nil

	case "const":
		ty, err := p.parseType()
		if err != nil {
			return nil, err
		}
		t, err := p.atom("constant")
		if err != nil {
			return nil, err
		}
		if ty.IsFloat() {
			v, perr := strconv.ParseFloat(t.text, 64)
			if perr != nil {
				return nil, p.errf(t, "bad float constant %q", t.text)
			}
			return p.slab.FConst(ty, v), nil
		}
		v, perr := strconv.ParseInt(t.text, 10, 64)
		if perr != nil {
			return nil, p.errf(t, "bad constant %q", t.text)
		}
		return p.slab.Const(ty, v), nil

	case "reg":
		ty, err := p.parseType()
		if err != nil {
			return nil, err
		}
		id, err := p.regToken()
		if err != nil {
			return nil, err
		}
		if int(id) >= p.cfg.Regs() {
			return nil, p.errf(head, "register t%d not declared", id)
		}
		return p.slab.Reg(ty, id), nil

	case "addr":
		t, err := p.atom("symbol")
		if err != nil {
			return nil, err
		}
		if strings.HasPrefix(t.text, "@") {
			i, perr := strconv.Atoi(t.text[1:])
			if perr != nil || i < 0 || i >= len(p.mod.Globals) {
				return nil, p.errf(t, "bad global index %q", t.text)
			}
			return p.slab.Addr(p.mod.Globals[i]), nil
		}
		if p.ambiguous[t.text] {
			return nil, p.errf(t, "ambiguous global %q (use @index)", t.text)
		}
		s, ok := p.globals[t.text]
		if !ok {
			return nil, p.errf(t, "unknown global %q", t.text)
		}
		return p.slab.Addr(s), nil

	case "cvt":
		ty, err := p.parseType()
		if err != nil {
			return nil, err
		}
		from, err := p.parseType()
		if err != nil {
			return nil, err
		}
		k, err := p.operand()
		if err != nil {
			return nil, err
		}
		return p.slab.Node(ir.Node{Op: ir.Cvt, Type: ty, From: from}, k), nil

	case "asgn":
		ty, err := p.parseType()
		if err != nil {
			return nil, err
		}
		id, err := p.regToken()
		if err != nil {
			return nil, err
		}
		if int(id) >= p.cfg.Regs() {
			return nil, p.errf(head, "register t%d not declared", id)
		}
		k, err := p.operand()
		if err != nil {
			return nil, err
		}
		return p.slab.Node(ir.Node{Op: ir.Asgn, Type: ty, Reg: id}, k), nil

	case "branch":
		id, err := p.labelToken()
		if err != nil {
			return nil, err
		}
		k, err := p.operand()
		if err != nil {
			return nil, err
		}
		return p.cfg.Branch(p.slab, p.blockByID(id), k), nil

	case "jump":
		id, err := p.labelToken()
		if err != nil {
			return nil, err
		}
		return p.cfg.Jump(p.slab, p.blockByID(id)), nil

	case "call":
		ty, err := p.parseType()
		if err != nil {
			return nil, err
		}
		t, err := p.atom("callee")
		if err != nil {
			return nil, err
		}
		s, ok := p.fsyms[t.text]
		if !ok {
			s = &ir.Sym{Name: t.text, Kind: ir.SymFunc, Type: ty}
			p.fsyms[t.text] = s
		}
		kids, err := p.operands()
		if err != nil {
			return nil, err
		}
		return p.slab.Node(ir.Node{Op: ir.Call, Type: ty, Sym: s}, kids...), nil

	case "ret":
		if t, ok := p.peek(); ok && t.text != ")" {
			ty, err := p.parseType()
			if err != nil {
				return nil, err
			}
			k, err := p.operand()
			if err != nil {
				return nil, err
			}
			return p.slab.New(ir.Ret, ty, k), nil
		}
		return p.slab.New(ir.Ret, ir.Void), nil
	}

	op, ok := wordOps[head.text]
	if !ok {
		return nil, p.errf(head, "unknown operator %q", head.text)
	}
	ty, err := p.parseType()
	if err != nil {
		return nil, err
	}
	kids, err := p.operands()
	if err != nil {
		return nil, err
	}
	if want := arity(op); want >= 0 && len(kids) != want {
		return nil, p.errf(head, "%s expects %d operand(s), got %d", head.text, want, len(kids))
	}
	if op == ir.Load || op == ir.Store {
		p.fn.MemTypes.Add(ty)
	}
	return p.slab.New(op, ty, kids...), nil
}

// operands parses the operands up to the closing ")" onto the stack.
// The list it returns is only valid until the next parse: the node built
// from it copies it into the slab.
func (p *parser) operands() ([]*ir.Node, error) {
	base := len(p.stack)
	defer func() { p.stack = p.stack[:base] }()
	for {
		t, ok := p.peek()
		if !ok || t.text == ")" {
			return p.stack[base:], nil
		}
		k, err := p.operand()
		if err != nil {
			return nil, err
		}
		p.stack = append(p.stack, k)
	}
}

// arity returns the required kid count for generic operator forms, or
// -1 when variable.
func arity(op ir.Op) int {
	switch op {
	case ir.Neg, ir.Not, ir.High, ir.Low, ir.Load:
		return 1
	case ir.Add, ir.Sub, ir.Mul, ir.Div, ir.Rem, ir.And, ir.Or, ir.Xor,
		ir.Shl, ir.Shr, ir.Store, ir.Cmp,
		ir.Eq, ir.Ne, ir.Lt, ir.Le, ir.Gt, ir.Ge:
		return 2
	}
	return -1
}

// endFunc finishes the function under construction: checks that every
// referenced block was declared, copies the function out of the CFG,
// which derives its edges in statement order with fallthrough last
// (ilgen's edge order), recounts DAG parents and marks global
// pseudo-registers.
func (p *parser) endFunc() error {
	if p.fn == nil {
		return nil
	}
	fn := p.fn
	p.fn = nil
	if !p.inBody {
		return fmt.Errorf("func %s: no blocks", fn.Name)
	}
	if err := p.cfg.Finish(p.slab, false); err != nil {
		return err
	}
	for _, b := range fn.Blocks {
		b.CountParents()
	}
	p.cfg.MarkGlobalRegs(fn)
	if len(fn.ParamRegs) != len(fn.Params) {
		return fmt.Errorf("func %s: %d param(s) but %d param register entries",
			fn.Name, len(fn.Params), len(fn.ParamRegs))
	}
	p.mod.Funcs = append(p.mod.Funcs, fn)
	return nil
}
