package maril

import (
	"crypto/sha256"
	"fmt"

	"marion/internal/ir"
	"marion/internal/mach"
)

// Info carries description statistics that only the textual form knows
// (section sizes in lines), for Table 1.
type Info struct {
	DeclareLines int
	CwvmLines    int
	InstrLines   int
	TotalLines   int
}

// Parse compiles a Maril description into a machine model. file is used
// in error messages only.
func Parse(file, src string) (*mach.Machine, error) {
	m, _, err := ParseInfo(file, src)
	return m, err
}

// srcTag versions the machine fingerprint. Cache entries bind templates
// and register sets by their position in the tables Parse and Finalize
// build, so a change that derives differently ordered tables from the
// same text must bump it, or a -cachedir written before the change
// decodes to the wrong templates after it. TestDescriptionTablesPinned
// (internal/targets) fails when that happens.
const srcTag = "marion-mach-src-v1"

// ParseInfo is Parse plus section statistics. The machine it returns is
// fingerprinted by the text it was parsed from: sha256 of srcTag, the
// machine name (asm.Program.Print emits it) and src.
func ParseInfo(file, src string) (*mach.Machine, *Info, error) {
	p := &parser{lx: newLexer(file, src), m: mach.NewMachine(file), info: &Info{}}
	if err := p.advance(); err != nil {
		return nil, nil, err
	}
	if err := p.description(); err != nil {
		return nil, nil, err
	}
	p.info.TotalLines = p.lx.line
	if err := p.m.Finalize(); err != nil {
		return nil, nil, &posError{File: file, Line: 0, Msg: err.Error()}
	}
	p.m.SetFingerprint(sha256.Sum256([]byte(srcTag + "\x00" + p.m.Name + "\x00" + src)))
	return p.m, p.info, nil
}

type parser struct {
	lx   *lexer
	tok  token
	la   []token // lookahead queue
	m    *mach.Machine
	info *Info
}

func (p *parser) errf(format string, args ...interface{}) error {
	return &posError{File: p.lx.file, Line: p.tok.Line, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) advance() error {
	if len(p.la) > 0 {
		p.tok = p.la[0]
		p.la = p.la[1:]
		return nil
	}
	t, err := p.lx.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

// peek returns the n'th token after the current one (n >= 1).
func (p *parser) peek(n int) (token, error) {
	for len(p.la) < n {
		t, err := p.lx.next()
		if err != nil {
			return token{}, err
		}
		p.la = append(p.la, t)
	}
	return p.la[n-1], nil
}

func (p *parser) expect(k tokKind) (token, error) {
	if p.tok.Kind != k {
		return token{}, p.errf("expected %s, got %s", k, p.tok)
	}
	t := p.tok
	return t, p.advance()
}

func (p *parser) expectIdent() (string, error) {
	t, err := p.expect(tokIdent)
	return t.Text, err
}

func (p *parser) expectInt() (int64, error) {
	neg := false
	if p.tok.Kind == tokMinus {
		neg = true
		if err := p.advance(); err != nil {
			return 0, err
		}
	}
	t, err := p.expect(tokInt)
	if err != nil {
		return 0, err
	}
	if neg {
		return -t.IVal, nil
	}
	return t.IVal, nil
}

func (p *parser) accept(k tokKind) (bool, error) {
	if p.tok.Kind == k {
		return true, p.advance()
	}
	return false, nil
}

var typeNames = map[string]ir.Type{
	"void": ir.Void, "char": ir.I8, "short": ir.I16, "int": ir.I32,
	"long": ir.I32, "unsigned": ir.U32, "float": ir.F32, "double": ir.F64,
	"ptr": ir.Ptr,
}

func (p *parser) description() error {
	for p.tok.Kind != tokEOF {
		if p.tok.Kind == tokDirective && p.tok.Text == "machine" {
			if err := p.advance(); err != nil {
				return err
			}
			name, err := p.expectIdent()
			if err != nil {
				return err
			}
			p.m.Name = name
			if _, err := p.expect(tokSemi); err != nil {
				return err
			}
			continue
		}
		sec, err := p.expectIdent()
		if err != nil {
			return err
		}
		start := p.tok.Line
		if _, err := p.expect(tokLBrace); err != nil {
			return err
		}
		switch sec {
		case "declare":
			err = p.declareSection()
			p.info.DeclareLines += p.tok.Line - start + 1
		case "cwvm":
			err = p.cwvmSection()
			p.info.CwvmLines += p.tok.Line - start + 1
		case "instr":
			err = p.instrSection()
			p.info.InstrLines += p.tok.Line - start + 1
		default:
			return p.errf("unknown section %q", sec)
		}
		if err != nil {
			return err
		}
		if _, err := p.expect(tokRBrace); err != nil {
			return err
		}
	}
	return nil
}

func (p *parser) flags() ([]string, error) {
	var fl []string
	for p.tok.Kind == tokPlus {
		if err := p.advance(); err != nil {
			return nil, err
		}
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		fl = append(fl, name)
	}
	return fl, nil
}

func hasFlag(fl []string, name string) bool {
	for _, f := range fl {
		if f == name {
			return true
		}
	}
	return false
}

func (p *parser) intRange() (lo, hi int64, err error) {
	if _, err = p.expect(tokLBrack); err != nil {
		return
	}
	if lo, err = p.expectInt(); err != nil {
		return
	}
	if _, err = p.expect(tokColon); err != nil {
		return
	}
	if hi, err = p.expectInt(); err != nil {
		return
	}
	_, err = p.expect(tokRBrack)
	return
}

// regRef parses name[idx].
func (p *parser) regRef() (mach.RegRef, error) {
	name, err := p.expectIdent()
	if err != nil {
		return mach.RegRef{}, err
	}
	rs := p.m.RegSet(name)
	if rs == nil {
		return mach.RegRef{}, p.errf("unknown register set %q", name)
	}
	if _, err := p.expect(tokLBrack); err != nil {
		return mach.RegRef{}, err
	}
	idx, err := p.expectInt()
	if err != nil {
		return mach.RegRef{}, err
	}
	if _, err := p.expect(tokRBrack); err != nil {
		return mach.RegRef{}, err
	}
	if int(idx) < rs.Lo || int(idx) > rs.Hi {
		return mach.RegRef{}, p.errf("register %s[%d] out of range", name, idx)
	}
	return mach.RegRef{Set: rs, Index: int(idx)}, nil
}

// regRange parses name[lo:hi] or name[idx] or a bare set name (whole set).
func (p *parser) regRange() (mach.RegRange, error) {
	name, err := p.expectIdent()
	if err != nil {
		return mach.RegRange{}, err
	}
	rs := p.m.RegSet(name)
	if rs == nil {
		return mach.RegRange{}, p.errf("unknown register set %q", name)
	}
	if p.tok.Kind != tokLBrack {
		return mach.RegRange{Set: rs, Lo: rs.Lo, Hi: rs.Hi}, nil
	}
	if err := p.advance(); err != nil {
		return mach.RegRange{}, err
	}
	lo, err := p.expectInt()
	if err != nil {
		return mach.RegRange{}, err
	}
	hi := lo
	if ok, err := p.accept(tokColon); err != nil {
		return mach.RegRange{}, err
	} else if ok {
		if hi, err = p.expectInt(); err != nil {
			return mach.RegRange{}, err
		}
	}
	if _, err := p.expect(tokRBrack); err != nil {
		return mach.RegRange{}, err
	}
	return mach.RegRange{Set: rs, Lo: int(lo), Hi: int(hi)}, nil
}

func (p *parser) declareSection() error {
	for p.tok.Kind == tokDirective {
		dir := p.tok.Text
		if err := p.advance(); err != nil {
			return err
		}
		var err error
		switch dir {
		case "reg":
			err = p.regDecl()
		case "equiv":
			err = p.equivDecl()
		case "resource":
			err = p.resourceDecl()
		case "def":
			err = p.rangeDecl(false)
		case "label":
			err = p.rangeDecl(true)
		case "memory":
			err = p.memoryDecl()
		case "clock":
			err = p.clockDecl()
		default:
			return p.errf("unknown declare directive %%%s", dir)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (p *parser) regDecl() error {
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	rs := &mach.RegSet{Name: name, Clock: -1}
	if p.tok.Kind == tokLBrack {
		lo, hi, err := p.intRange()
		if err != nil {
			return err
		}
		rs.Lo, rs.Hi = int(lo), int(hi)
	}
	if _, err := p.expect(tokLParen); err != nil {
		return err
	}
	for {
		tn, err := p.expectIdent()
		if err != nil {
			return err
		}
		t, ok := typeNames[tn]
		if !ok {
			return p.errf("unknown type %q", tn)
		}
		rs.Types = append(rs.Types, t)
		if ok, err := p.accept(tokComma); err != nil {
			return err
		} else if !ok {
			break
		}
	}
	if ok, err := p.accept(tokSemi); err != nil {
		return err
	} else if ok {
		// (type; clock) — temporal register's clock.
		cn, err := p.expectIdent()
		if err != nil {
			return err
		}
		if rs.Clock = p.m.Clock(cn); rs.Clock < 0 {
			return p.errf("unknown clock %q", cn)
		}
	}
	if _, err := p.expect(tokRParen); err != nil {
		return err
	}
	fl, err := p.flags()
	if err != nil {
		return err
	}
	rs.Temporal = hasFlag(fl, "temporal")
	if rs.Temporal && rs.Clock < 0 {
		return p.errf("temporal register %q needs a clock", name)
	}
	if _, err := p.expect(tokSemi); err != nil {
		return err
	}
	if err := p.m.AddRegSet(rs); err != nil {
		return p.errf("%s", err)
	}
	return nil
}

func (p *parser) equivDecl() error {
	a, err := p.regRef()
	if err != nil {
		return err
	}
	b, err := p.regRef()
	if err != nil {
		return err
	}
	if _, err := p.expect(tokSemi); err != nil {
		return err
	}
	wide, narrow := a, b
	if wide.Set.Size < narrow.Set.Size {
		wide, narrow = narrow, wide
	}
	if wide.Set.Size == narrow.Set.Size || wide.Set.Size%narrow.Set.Size != 0 {
		return p.errf("%%equiv: incompatible register sizes %d and %d", a.Set.Size, b.Set.Size)
	}
	p.m.Equivs = append(p.m.Equivs, mach.Equiv{
		Wide: wide.Set, Narrow: narrow.Set,
		WideBase: wide.Index, NarrowBase: narrow.Index,
		Ratio: wide.Set.Size / narrow.Set.Size,
	})
	return nil
}

func (p *parser) resourceDecl() error {
	for {
		name, err := p.expectIdent()
		if err != nil {
			return err
		}
		if err := p.m.AddResource(name); err != nil {
			return p.errf("%s", err)
		}
		if ok, err := p.accept(tokComma); err != nil {
			return err
		} else if !ok {
			break
		}
	}
	_, err := p.expect(tokSemi)
	return err
}

func (p *parser) rangeDecl(isLabel bool) error {
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	lo, hi, err := p.intRange()
	if err != nil {
		return err
	}
	fl, err := p.flags()
	if err != nil {
		return err
	}
	if _, err := p.expect(tokSemi); err != nil {
		return err
	}
	if isLabel {
		return wrap(p, p.m.AddLabel(&mach.LabelDef{Name: name, Lo: lo, Hi: hi, Relative: hasFlag(fl, "relative")}))
	}
	return wrap(p, p.m.AddDef(&mach.ImmDef{Name: name, Lo: lo, Hi: hi, Flags: fl}))
}

func wrap(p *parser, err error) error {
	if err != nil {
		return p.errf("%s", err)
	}
	return nil
}

func (p *parser) memoryDecl() error {
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	lo, hi, err := p.intRange()
	if err != nil {
		return err
	}
	if _, err := p.expect(tokSemi); err != nil {
		return err
	}
	return wrap(p, p.m.AddMemory(&mach.MemDef{Name: name, Lo: lo, Hi: hi}))
}

func (p *parser) clockDecl() error {
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	if _, err := p.expect(tokSemi); err != nil {
		return err
	}
	_, err = p.m.AddClock(name)
	return wrap(p, err)
}

func (p *parser) cwvmSection() error {
	c := &p.m.Cwvm
	for p.tok.Kind == tokDirective {
		dir := p.tok.Text
		if err := p.advance(); err != nil {
			return err
		}
		switch dir {
		case "general":
			if _, err := p.expect(tokLParen); err != nil {
				return err
			}
			var types []ir.Type
			for {
				tn, err := p.expectIdent()
				if err != nil {
					return err
				}
				t, ok := typeNames[tn]
				if !ok {
					return p.errf("unknown type %q", tn)
				}
				types = append(types, t)
				if ok, err := p.accept(tokComma); err != nil {
					return err
				} else if !ok {
					break
				}
			}
			if _, err := p.expect(tokRParen); err != nil {
				return err
			}
			name, err := p.expectIdent()
			if err != nil {
				return err
			}
			rs := p.m.RegSet(name)
			if rs == nil {
				return p.errf("unknown register set %q", name)
			}
			for _, t := range types {
				c.General[t] = rs
			}
			if _, err := p.expect(tokSemi); err != nil {
				return err
			}

		case "allocable", "calleesave":
			for {
				rr, err := p.regRange()
				if err != nil {
					return err
				}
				if dir == "allocable" {
					c.Allocable = append(c.Allocable, rr)
				} else {
					c.CalleeSave = append(c.CalleeSave, rr)
				}
				if ok, err := p.accept(tokComma); err != nil {
					return err
				} else if !ok {
					break
				}
			}
			if _, err := p.expect(tokSemi); err != nil {
				return err
			}

		case "sp", "SP", "fp", "retaddr", "gp":
			ref, err := p.regRef()
			if err != nil {
				return err
			}
			if _, err := p.flags(); err != nil {
				return err
			}
			if _, err := p.expect(tokSemi); err != nil {
				return err
			}
			switch dir {
			case "sp", "SP":
				c.SP = ref
			case "fp":
				c.FP = ref
			case "retaddr":
				c.RetAddr = ref
			case "gp":
				c.GlobalPtr = ref
			}

		case "hard":
			ref, err := p.regRef()
			if err != nil {
				return err
			}
			v, err := p.expectInt()
			if err != nil {
				return err
			}
			if _, err := p.expect(tokSemi); err != nil {
				return err
			}
			c.Hard = append(c.Hard, mach.HardReg{Ref: ref, Value: v})

		case "arg":
			if _, err := p.expect(tokLParen); err != nil {
				return err
			}
			tn, err := p.expectIdent()
			if err != nil {
				return err
			}
			t, ok := typeNames[tn]
			if !ok {
				return p.errf("unknown type %q", tn)
			}
			if _, err := p.expect(tokRParen); err != nil {
				return err
			}
			ref, err := p.regRef()
			if err != nil {
				return err
			}
			pos, err := p.expectInt()
			if err != nil {
				return err
			}
			if _, err := p.expect(tokSemi); err != nil {
				return err
			}
			c.Args = append(c.Args, mach.ArgSpec{Type: t, Ref: ref, Pos: int(pos)})

		case "result":
			ref, err := p.regRef()
			if err != nil {
				return err
			}
			if _, err := p.expect(tokLParen); err != nil {
				return err
			}
			tn, err := p.expectIdent()
			if err != nil {
				return err
			}
			t, ok := typeNames[tn]
			if !ok {
				return p.errf("unknown type %q", tn)
			}
			if _, err := p.expect(tokRParen); err != nil {
				return err
			}
			if _, err := p.expect(tokSemi); err != nil {
				return err
			}
			c.Results = append(c.Results, mach.ResultSpec{Ref: ref, Type: t})

		case "stackarg":
			off, err := p.expectInt()
			if err != nil {
				return err
			}
			if _, err := p.expect(tokSemi); err != nil {
				return err
			}
			c.StackArgOffset = int(off)

		default:
			return p.errf("unknown cwvm directive %%%s", dir)
		}
	}
	return nil
}
