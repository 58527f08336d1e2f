package cache

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"marion/internal/asm"
	"marion/internal/ir"
	"marion/internal/mach"
	"marion/internal/sel"
	"marion/internal/strategy"
)

// Entry is a decoded cached compilation: the target function rebound
// onto the current IR and machine tables, plus the statistics the cold
// compile produced (so warm runs report identical numbers).
type Entry struct {
	Func  *asm.Func
	Stats strategy.Stats
	Sel   sel.Counters
}

// Encode serializes a compiled function. Pointers are flattened to
// stable indices/names: instruction templates to their index in
// m.Instrs, register sets to their index in m.RegSets, IR blocks to
// their position in fn.Blocks, and symbols to (class, index) for
// parameters/locals or to their name for globals and functions — all
// of which the cache key pins (the machine fingerprint is the digest of
// the description text, and TestDescriptionTablesPinned in
// internal/targets holds the template and register-set order derived
// from it; the IR digest covers block order, frame layout and referenced
// symbol names). Decode reverses the flattening against the *current*
// machine and IR, so a hit emits labels and symbols of the module
// being compiled, byte-identical to a cold compile.
//
// The payload is the caller's; Encoder.Encode is the same code on an
// encoder that keeps its tables and buffer from one function to the next.
func Encode(m *mach.Machine, fn *ir.Func, af *asm.Func, st *strategy.Stats, sc sel.Counters) ([]byte, error) {
	return new(Encoder).Encode(m, fn, af, st, sc)
}

// Encoder is the storage encoding works in: the index maps that flatten
// pointers and the payload buffer, emptied at the start of each use. The
// payload an Encode returns is valid until the encoder's next Encode
// (Cache.Put copies what it stores). The zero value is ready to use; an
// encoder has one owner and is never shared between goroutines.
type Encoder struct{ e enc }

// Detach drops what the encoder holds of the function it encoded last:
// the index maps' keys. The maps and the buffer keep their storage.
func (x *Encoder) Detach() {
	e := &x.e
	clear(e.blockIdx)
	clear(e.params)
	clear(e.locals)
}

// Encode is the package's Encode on this encoder.
func (x *Encoder) Encode(m *mach.Machine, fn *ir.Func, af *asm.Func, st *strategy.Stats, sc sel.Counters) ([]byte, error) {
	e := &x.e
	e.reset()
	for i, b := range fn.Blocks {
		e.blockIdx[b] = i
	}
	for i, s := range fn.Params {
		e.params[s] = i
	}
	for i, s := range fn.Locals {
		e.locals[s] = i
	}

	e.str("entry-v1")
	e.i(int64(af.FrameSize))
	e.i(int64(af.Outgoing))
	e.bool(af.UsesCalls)
	e.i(int64(af.SpillSlots))
	e.u(uint64(len(af.CalleeSaved)))
	for _, p := range af.CalleeSaved {
		e.i(int64(p))
	}

	e.u(uint64(len(af.Pseudos)))
	for _, pi := range af.Pseudos {
		if pi.Set == nil {
			e.i(-1)
		} else {
			idx := slices.Index(m.RegSets, pi.Set)
			if idx < 0 {
				return nil, errors.New("cache: pseudo register set not in machine")
			}
			e.i(int64(idx))
		}
		e.i(int64(pi.IR))
		e.i(int64(pi.Precolor))
		e.f(pi.SpillCost)
		e.bool(pi.NoSpill)
	}

	e.u(uint64(len(af.Blocks)))
	for _, b := range af.Blocks {
		bi, ok := e.blockIdx[b.IR]
		if !ok {
			return nil, errors.New("cache: asm block not bound to an IR block")
		}
		e.u(uint64(bi))
		e.i(int64(b.SchedCost))
		e.u(uint64(len(b.Insts)))
		for _, in := range b.Insts {
			if err := e.inst(in); err != nil {
				return nil, err
			}
		}
	}

	e.i(int64(st.Spills))
	e.i(int64(st.SpillSlots))
	e.i(int64(st.AllocRounds))
	e.i(int64(st.EstimatedCycles))
	e.i(int64(st.SchedulePasses))
	e.i(int64(st.SlotsFilled))
	e.i(sc.Tried)
	e.i(sc.MemoHits)
	e.i(sc.MemoMisses)
	return e.b, nil
}

func (e *enc) inst(in *asm.Inst) error {
	if in.Tmpl == nil {
		return errors.New("cache: instruction without template")
	}
	e.u(uint64(in.Tmpl.Index))
	e.u(uint64(len(in.Args)))
	for _, a := range in.Args {
		if err := e.operand(a); err != nil {
			return err
		}
	}
	e.u(uint64(len(in.ImpUses())))
	for _, p := range in.ImpUses() {
		e.i(int64(p))
	}
	e.u(uint64(len(in.ImpDefs())))
	for _, p := range in.ImpDefs() {
		e.i(int64(p))
	}
	e.i(int64(in.Cycle))
	e.i(int64(in.SeqID))
	return nil
}

// Symbol reference classes in the encoded stream.
const (
	symNil   = 0 // no symbol
	symParam = 1 // fn.Params index
	symLocal = 2 // fn.Locals index
	symNamed = 3 // global or function symbol, resolved by name
)

func (e *enc) operand(a asm.Operand) error {
	e.b = append(e.b, byte(a.Kind))
	switch a.Kind {
	case asm.OpPseudo:
		e.i(int64(a.Pseudo))
	case asm.OpPhys:
		e.i(int64(a.Phys))
	case asm.OpPseudoHalf:
		e.i(int64(a.Pseudo))
		e.i(int64(a.Half))
	case asm.OpImm:
		e.i(a.Imm)
	case asm.OpBlock:
		bi, ok := e.blockIdx[a.Block]
		if !ok {
			return errors.New("cache: branch target outside the function")
		}
		e.u(uint64(bi))
	case asm.OpSym:
		switch {
		case a.Sym == nil:
			e.b = append(e.b, symNil)
		case a.Sym.Kind == ir.SymParam:
			i, ok := e.params[a.Sym]
			if !ok {
				return errors.New("cache: parameter symbol not in fn.Params")
			}
			e.b = append(e.b, symParam)
			e.u(uint64(i))
		case a.Sym.Kind == ir.SymLocal:
			i, ok := e.locals[a.Sym]
			if !ok {
				return errors.New("cache: local symbol not in fn.Locals")
			}
			e.b = append(e.b, symLocal)
			e.u(uint64(i))
		default:
			e.b = append(e.b, symNamed)
			e.str(a.Sym.Name)
		}
	case asm.OpNone:
	default:
		return fmt.Errorf("cache: unknown operand kind %d", a.Kind)
	}
	return nil
}

// The fewest bytes Encode spends on one of the things Decode counts
// before allocating: a register id is one varint; a pseudo is three
// varints, a float64 and a bool; a block is its IR index, cost and
// instruction count; an instruction is its template index, three
// counts, cycle and sequence id; an operand is its kind byte.
const (
	minPhysBytes    = 1
	minPseudoBytes  = 3 + 8 + 1
	minBlockBytes   = 3
	minInstBytes    = 6
	minOperandBytes = 1
)

// impsPerChunk is how many implicit effects a chunk of Decode's slab of
// them holds: a function has a return or two and seldom a call.
const impsPerChunk = 2

// Decode rebuilds a compiled function from an encoded payload, binding
// templates, register sets, blocks and symbols against the current
// machine and IR function. Any structural mismatch (index out of
// range, unknown symbol name, truncation) returns an error — the
// caller treats it as a miss and rejects the entry.
//
// Blocks, instructions and operands are carved from slabs sized by the
// counts the payload states, so every count is first held to what the
// bytes still unread could encode: a corrupt count costs an error, not
// an allocation, and Decode allocates O(len(payload)) whatever the
// payload says.
func Decode(payload []byte, m *mach.Machine, fn *ir.Func) (*Entry, error) {
	d := &dec{b: payload, m: m, fn: fn}
	if v := d.bytes(); string(v) != "entry-v1" {
		return nil, fmt.Errorf("cache: unknown entry version %q", v)
	}
	d.harvest()

	// The Entry and its Func share one allocation.
	box := &struct {
		ent Entry
		fn  asm.Func
	}{}
	ent, af := &box.ent, &box.fn
	ent.Func = af
	af.Name, af.IR = fn.Name, fn
	af.FrameSize = int(d.i())
	af.Outgoing = int(d.i())
	af.UsesCalls = d.bool()
	af.SpillSlots = int(d.i())
	var err error
	if af.CalleeSaved, err = d.physList("callee-save"); err != nil {
		return nil, err
	}

	n, err := d.count("pseudo", minPseudoBytes)
	if err != nil {
		return nil, err
	}
	if n > 0 {
		af.Pseudos = make([]asm.PseudoInfo, n)
	}
	for i := range af.Pseudos {
		pi := &af.Pseudos[i]
		si := d.i()
		if si >= 0 {
			if si >= int64(len(m.RegSets)) {
				return nil, errors.New("cache: register set index out of range")
			}
			pi.Set = m.RegSets[si]
		}
		pi.IR = ir.RegID(d.i())
		if pc := d.i(); pc == int64(mach.NoPhys) {
			pi.Precolor = mach.NoPhys
		} else {
			pi.Precolor = d.phys(pc)
		}
		pi.SpillCost = d.f()
		pi.NoSpill = d.bool()
	}

	nb, err := d.count("block", minBlockBytes)
	if err != nil {
		return nil, err
	}
	blocks := make([]asm.Block, nb)
	af.Blocks = make([]*asm.Block, nb)
	for i := range blocks {
		b := &blocks[i]
		af.Blocks[i] = b
		bi := d.u()
		if d.err != nil || bi >= uint64(len(fn.Blocks)) {
			return nil, errors.New("cache: IR block index out of range")
		}
		b.IR = fn.Blocks[bi]
		b.SchedCost = int(d.i())
		ni, err := d.count("instruction", minInstBytes)
		if err != nil {
			return nil, err
		}
		insts := make([]asm.Inst, ni)
		b.Insts = make([]*asm.Inst, ni)
		for j := range insts {
			b.Insts[j] = &insts[j]
			if err := d.inst(&insts[j], len(af.Pseudos)); err != nil {
				return nil, err
			}
		}
	}

	ent.Stats.Spills = int(d.i())
	ent.Stats.SpillSlots = int(d.i())
	ent.Stats.AllocRounds = int(d.i())
	ent.Stats.EstimatedCycles = int(d.i())
	ent.Stats.SchedulePasses = int(d.i())
	ent.Stats.SlotsFilled = int(d.i())
	ent.Sel.Tried = d.i()
	ent.Sel.MemoHits = d.i()
	ent.Sel.MemoMisses = d.i()
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, errors.New("cache: trailing bytes in entry")
	}
	return ent, nil
}

// harvest builds the name -> symbol table for globals and callees from
// the current IR (every symbol compiled code can reference appears in
// the pristine IR the fingerprint hashed).
func (d *dec) harvest() {
	d.named = map[string]*ir.Sym{}
	w := ir.NewWalk()
	for _, b := range d.fn.Blocks {
		for _, s := range b.Stmts {
			d.harvestNode(w, s)
		}
	}
}

func (d *dec) harvestNode(w ir.Walk, n *ir.Node) {
	if n == nil || !w.Visit(n) {
		return
	}
	if n.Sym != nil {
		if prev, ok := d.named[n.Sym.Name]; ok && prev != n.Sym {
			// Ambiguous name: refuse rather than guess.
			d.named[n.Sym.Name] = nil
		} else if !ok {
			d.named[n.Sym.Name] = n.Sym
		}
	}
	for _, k := range n.Kids {
		d.harvestNode(w, k)
	}
}

// count reads how many of something follow, refusing a number the
// unread bytes could not encode at minBytes apiece.
func (d *dec) count(what string, minBytes int) (int, error) {
	n := d.u()
	if d.err != nil {
		return 0, d.err
	}
	if n > uint64(len(d.b)/minBytes) {
		return 0, fmt.Errorf("cache: %s count out of range", what)
	}
	return int(n), nil
}

// phys holds a decoded physical register id to the machine's registers,
// latching an error for one outside them.
func (d *dec) phys(v int64) mach.PhysID {
	if d.err == nil && (v < 0 || v >= int64(d.m.NumPhys)) {
		d.err = errors.New("cache: physical register id out of range")
	}
	return mach.PhysID(v)
}

// int32 reads a value stored in an int32 field, latching an error for
// one the field cannot hold.
func (d *dec) int32(what string) int32 {
	v := d.i()
	if d.err == nil && v != int64(int32(v)) {
		d.err = fmt.Errorf("cache: %s out of range", what)
	}
	return int32(v)
}

// physList reads a counted list of physical register ids; an empty list
// is nil.
func (d *dec) physList(what string) ([]mach.PhysID, error) {
	n, err := d.count(what, minPhysBytes)
	if n == 0 || err != nil {
		return nil, err
	}
	ids := make([]mach.PhysID, n)
	for i := range ids {
		ids[i] = d.phys(d.i())
	}
	return ids, d.err
}

// implicit reads an instruction's implicit effects, a counted list of
// uses then one of defs, and returns nil for two empty lists. The lists
// share one allocation: the uses are skipped to read the defs count,
// then decoded. The Implicit is carved from the function's slab.
func (d *dec) implicit() (*asm.Implicit, error) {
	nu, err := d.count("implicit use", minPhysBytes)
	if err != nil {
		return nil, err
	}
	uses := d.b
	for range nu {
		d.i()
	}
	nd, err := d.count("implicit def", minPhysBytes)
	if nu+nd == 0 || err != nil {
		return nil, err
	}
	ids := make([]mach.PhysID, nu+nd)
	defs := d.b
	d.b = uses
	for i := range nu {
		ids[i] = d.phys(d.i())
	}
	d.b = defs
	for i := nu; i < len(ids); i++ {
		ids[i] = d.phys(d.i())
	}
	if len(d.imps) == cap(d.imps) {
		d.imps = make([]asm.Implicit, 0, impsPerChunk)
	}
	d.imps = append(d.imps, asm.Implicit{Uses: ids[:nu:nu], Defs: ids[nu:]})
	return &d.imps[len(d.imps)-1], d.err
}

// operands returns n zeroed operands carved from the function's shared
// slab; the caller has held n to the unread byte count. A chunk of the
// slab is sized for the bytes unread at five bytes an operand: Encode
// spends 4.6 to 6.8 (kind, value, and a share of the instruction's own
// six) from the first instruction on, so a real entry takes one chunk
// and sometimes a small second. Whatever the payload's shape, what a
// chunk strands when the next instruction does not fit is fewer
// operands than that instruction has, so all chunks together hold
// under 2.2*len(payload) operands.
func (d *dec) operands(n int) []asm.Operand {
	if n > cap(d.ops)-len(d.ops) {
		d.ops = make([]asm.Operand, 0, max(n, len(d.b)/5))
	}
	at := len(d.ops)
	d.ops = d.ops[:at+n]
	return d.ops[at : at+n : at+n]
}

func (d *dec) inst(in *asm.Inst, numPseudos int) error {
	ti := d.u()
	if d.err != nil || ti >= uint64(len(d.m.Instrs)) {
		return errors.New("cache: template index out of range")
	}
	in.Tmpl = d.m.Instrs[ti]
	na, err := d.count("operand", minOperandBytes)
	if err != nil {
		return err
	}
	if na > 0 {
		in.Args = d.operands(na)
	}
	for i := range in.Args {
		if err := d.operand(&in.Args[i], numPseudos); err != nil {
			return err
		}
	}
	if in.Imp, err = d.implicit(); err != nil {
		return err
	}
	in.Cycle = d.int32("cycle")
	in.SeqID = d.int32("sequence id")
	return d.err
}

func (d *dec) operand(a *asm.Operand, numPseudos int) error {
	fn := d.fn
	k := d.byte()
	if d.err != nil {
		return d.err
	}
	a.Kind = asm.OperandKind(k)
	switch a.Kind {
	case asm.OpPseudo:
		a.Pseudo = asm.PseudoID(d.i())
		if int(a.Pseudo) >= numPseudos {
			return errors.New("cache: pseudo id out of range")
		}
	case asm.OpPhys:
		a.Phys = d.phys(d.i())
	case asm.OpPseudoHalf:
		a.Pseudo = asm.PseudoID(d.i())
		h := d.i()
		if int(a.Pseudo) >= numPseudos {
			return errors.New("cache: pseudo id out of range")
		}
		if h != 0 && h != 1 {
			return errors.New("cache: operand half out of range")
		}
		a.Half = uint8(h)
	case asm.OpImm:
		a.Imm = d.i()
	case asm.OpBlock:
		bi := d.u()
		if d.err != nil || bi >= uint64(len(fn.Blocks)) {
			return errors.New("cache: branch target index out of range")
		}
		a.Block = fn.Blocks[bi]
	case asm.OpSym:
		switch d.byte() {
		case symNil:
		case symParam:
			i := d.u()
			if d.err != nil || i >= uint64(len(fn.Params)) {
				return errors.New("cache: parameter index out of range")
			}
			a.Sym = fn.Params[i]
		case symLocal:
			i := d.u()
			if d.err != nil || i >= uint64(len(fn.Locals)) {
				return errors.New("cache: local index out of range")
			}
			a.Sym = fn.Locals[i]
		case symNamed:
			name := d.bytes()
			s := d.named[string(name)]
			if s == nil {
				return fmt.Errorf("cache: unresolved symbol %q", name)
			}
			a.Sym = s
		default:
			return errors.New("cache: bad symbol class")
		}
	case asm.OpNone:
	default:
		return fmt.Errorf("cache: bad operand kind %d", k)
	}
	return d.err
}

// enc appends a varint-based stream.
type enc struct {
	b []byte

	blockIdx map[*ir.Block]int
	params   map[*ir.Sym]int
	locals   map[*ir.Sym]int
}

// reset empties the buffer and the maps, making the maps on first use.
func (e *enc) reset() {
	e.b = e.b[:0]
	if e.blockIdx == nil {
		e.blockIdx = map[*ir.Block]int{}
		e.params = map[*ir.Sym]int{}
		e.locals = map[*ir.Sym]int{}
		return
	}
	clear(e.blockIdx)
	clear(e.params)
	clear(e.locals)
}

func (e *enc) u(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *enc) i(v int64)  { e.b = binary.AppendVarint(e.b, v) }

func (e *enc) f(v float64) {
	e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(v))
}

func (e *enc) bool(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}

func (e *enc) str(s string) {
	e.u(uint64(len(s)))
	e.b = append(e.b, s...)
}

// dec consumes an enc stream, latching the first error.
type dec struct {
	b   []byte
	err error

	m     *mach.Machine
	fn    *ir.Func
	named map[string]*ir.Sym // globals and callees of fn, by name; nil = ambiguous
	ops   []asm.Operand      // the operand slab's current chunk
	imps  []asm.Implicit     // the implicit effects slab's current chunk
}

var errTruncated = errors.New("cache: truncated entry")

func (d *dec) u() uint64 {
	if d.err != nil {
		return 0
	}
	x, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.err = errTruncated
		return 0
	}
	d.b = d.b[n:]
	return x
}

func (d *dec) i() int64 {
	if d.err != nil {
		return 0
	}
	x, n := binary.Varint(d.b)
	if n <= 0 {
		d.err = errTruncated
		return 0
	}
	d.b = d.b[n:]
	return x
}

func (d *dec) f() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.err = errTruncated
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

func (d *dec) byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 1 {
		d.err = errTruncated
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *dec) bool() bool { return d.byte() != 0 }

// bytes reads a length-prefixed string as a view of the payload.
func (d *dec) bytes() []byte {
	n := d.u()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)) {
		d.err = errTruncated
		return nil
	}
	s := d.b[:n]
	d.b = d.b[n:]
	return s
}
