package cache

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"marion/internal/asm"
	"marion/internal/ir"
	"marion/internal/mach"
	"marion/internal/sel"
	"marion/internal/strategy"
)

// Entry is a decoded cached compilation: the function's assembly text
// rebound onto the current IR, plus the statistics the cold compile
// produced (so warm runs report identical numbers).
type Entry struct {
	Func  *asm.Func
	Stats strategy.Stats
	Sel   sel.Counters
}

// An entry's payload, entry-v2, is the function's printed text with a
// relocation list:
//
//	version  "entry-v2", length-prefixed
//	stats    strategy.Stats (6 varints), then sel.Counters (3)
//	text     length-prefixed: what asm.Func.AppendText printed
//	holes    a count, then per hole its offset and length in the text,
//	         its kind byte and, for a block, parameter or local, an index
//
// A hole is a name in the text. The cache key pins everything else the
// text says (DESIGN §10), but not block IDs, the function's name or its
// parameters' and locals' names: Decode writes the current function's
// over the stored ones. Global and function symbols are hashed by name,
// so theirs stay as stored; they are holes all the same, so that every
// name is delimited by the list and never read as a register or a
// number.
const (
	holeFunc   = iota // the function's name
	holeBlock         // a block label, by index in fn.Blocks
	holeParam         // a parameter, by index in fn.Params
	holeLocal         // a local, by index in fn.Locals
	holeGlobal        // a global or function symbol, kept as stored
	numHoleKinds
)

// minHoleBytes is the fewest bytes Encode spends on a hole: its offset,
// length and kind. Decode holds the hole count to the bytes unread.
const minHoleBytes = 3

// Encode serializes a compiled function: one print of af, the spans of
// the names in it, and the statistics. A function whose text names
// something Decode could not read back — an empty name, or one with a
// control byte — is refused; it is simply not cached.
//
// m is not read: the text names templates by mnemonic and registers by
// number. The payload is the caller's; Encoder.Encode is the same code
// on an encoder that keeps its tables and buffers from one function to
// the next.
func Encode(m *mach.Machine, fn *ir.Func, af *asm.Func, st *strategy.Stats, sc sel.Counters) ([]byte, error) {
	return new(Encoder).Encode(m, fn, af, st, sc)
}

// Encoder is the storage encoding works in: the print buffer, the holes
// the printer reports, the index maps that turn their blocks and
// symbols into positions, and the payload buffer, each emptied at the
// start of each use. The payload an Encode returns is valid until the
// encoder's next Encode (Cache.Put copies what it stores). The zero
// value is ready to use; an encoder has one owner and is never shared
// between goroutines.
type Encoder struct {
	b, text  []byte
	holes    []asm.Hole
	blockIdx map[*ir.Block]int
	params   map[*ir.Sym]int
	locals   map[*ir.Sym]int
}

// Detach drops what the encoder holds of the function it encoded last:
// the holes' pointers and the index maps' keys. The buffers and maps
// keep their storage up to the bound.
func (x *Encoder) Detach() {
	x.holes = ir.Keep(x.holes)
	x.blockIdx, x.params, x.locals = ir.KeepMap(x.blockIdx), ir.KeepMap(x.params), ir.KeepMap(x.locals)
	x.b, x.text = ir.Keep(x.b), ir.Keep(x.text)
}

// Encode is the package's Encode on this encoder.
func (x *Encoder) Encode(m *mach.Machine, fn *ir.Func, af *asm.Func, st *strategy.Stats, sc sel.Counters) ([]byte, error) {
	x.Detach()
	for i, b := range fn.Blocks {
		x.blockIdx[b] = i
	}
	for i, s := range fn.Params {
		x.params[s] = i
	}
	for i, s := range fn.Locals {
		x.locals[s] = i
	}
	x.text = af.AppendText(x.text, &x.holes)

	b := binary.AppendUvarint(x.b, uint64(len("entry-v2")))
	b = append(b, "entry-v2"...)
	for _, v := range [...]int64{
		int64(st.Spills), int64(st.SpillSlots), int64(st.AllocRounds),
		int64(st.EstimatedCycles), int64(st.SchedulePasses), int64(st.SlotsFilled),
		sc.Tried, sc.MemoHits, sc.MemoMisses,
	} {
		b = binary.AppendVarint(b, v)
	}
	b = binary.AppendUvarint(b, uint64(len(x.text)))
	b = append(b, x.text...)
	b = binary.AppendUvarint(b, uint64(len(x.holes)))
	for _, h := range x.holes {
		name := x.text[h.Off : h.Off+h.Len]
		if !storable(name) {
			return nil, fmt.Errorf("cache: name %q cannot be stored", name)
		}
		kind, idx, ok := byte(holeGlobal), 0, true
		switch {
		case h.Block != nil:
			idx, ok = x.blockIdx[h.Block]
			kind = holeBlock
		case h.Sym == nil:
			kind = holeFunc
		case h.Sym.Kind == ir.SymParam:
			idx, ok = x.params[h.Sym]
			kind = holeParam
		case h.Sym.Kind == ir.SymLocal:
			idx, ok = x.locals[h.Sym]
			kind = holeLocal
		}
		if !ok {
			return nil, fmt.Errorf("cache: %s names a block or symbol outside the function", name)
		}
		b = binary.AppendUvarint(b, uint64(h.Off))
		b = binary.AppendUvarint(b, uint64(h.Len))
		b = append(b, kind)
		if indexed(kind) {
			b = binary.AppendUvarint(b, uint64(idx))
		}
	}
	x.b = b
	return b, nil
}

// indexed reports whether a hole of the kind carries an index.
func indexed(kind byte) bool { return kind == holeBlock || kind == holeParam || kind == holeLocal }

// storable reports whether name may be stored: it is not empty and has
// no ASCII control byte.
func storable(name []byte) bool {
	for _, c := range name {
		if c < ' ' || c == 0x7f {
			return false
		}
	}
	return len(name) > 0
}

// Decode rebinds a stored function onto the current machine and IR
// function. It reads the text as the grammar of asm.Func.AppendText —
// the header line, then label lines and instruction lines — and holds
// every byte of it to that grammar: every mnemonic is a template of m,
// every register p<N> lies below m.NumPhys, every number is one the
// printer can write, and every name is a hole of the kind its place
// takes, sorted and inside the text, whose index lies inside the
// current function. Anything else, truncation or trailing bytes
// included, returns an error; the caller treats it as a miss and
// rejects the entry.
//
// The returned Func carries the rebound text and no instructions. Where
// every name is the one stored — the same module compiled again — the
// text is a view of payload, which the caller must then not write to
// while the Func is in use; otherwise it is one allocation, sized by the
// text and grown only by names longer than the stored ones.
func Decode(payload []byte, m *mach.Machine, fn *ir.Func) (*Entry, error) {
	s := splicer{dec: dec{b: payload}, m: m, fn: fn}
	d := &s.dec
	if v := d.bytes(); string(v) != "entry-v2" {
		return nil, fmt.Errorf("cache: unknown entry version %q", v)
	}
	// The Entry and its Func share one allocation.
	box := &struct {
		ent Entry
		fn  asm.Func
	}{}
	ent, af := &box.ent, &box.fn
	ent.Func = af
	ent.Stats.Spills = int(d.i())
	ent.Stats.SpillSlots = int(d.i())
	ent.Stats.AllocRounds = int(d.i())
	ent.Stats.EstimatedCycles = int(d.i())
	ent.Stats.SchedulePasses = int(d.i())
	ent.Stats.SlotsFilled = int(d.i())
	ent.Sel.Tried = d.i()
	ent.Sel.MemoHits = d.i()
	ent.Sel.MemoMisses = d.i()
	s.text = d.bytes()
	n := d.u()
	if d.err != nil {
		return nil, d.err
	}
	if n > uint64(len(d.b)/minHoleBytes) {
		return nil, errors.New("cache: hole count out of range")
	}
	s.left = int(n)
	s.run()
	if s.err != nil {
		return nil, s.err
	}
	if len(d.b) != 0 {
		return nil, errors.New("cache: trailing bytes in entry")
	}
	af.Name, af.IR, af.Text = fn.Name, fn, s.out
	return ent, nil
}

// splicer reads an entry's text line by line, pulling holes from the
// payload one ahead, and writes the rebound text: out is nil until a
// name differs from the stored one, then text[:copied] rebound.
type splicer struct {
	dec  // the payload behind the text
	m    *mach.Machine
	fn   *ir.Func
	text []byte
	pos  int // the next byte of text to read
	err  error

	left     int    // holes not yet read from the payload
	off, end int    // the next hole's span; off is -1 when none is left
	stop     int    // where plain text ends: off, or len(text)
	kind     byte   // the next hole's kind
	idx      uint64 // the next hole's index, for a block, parameter or local
	out      []byte
	copied   int
	label    [24]byte // a block label's current name
}

// Kind masks: which holes each place in the grammar takes.
const (
	atHeader  = 1 << holeFunc
	atLabel   = 1 << holeBlock
	atOperand = 1<<holeBlock | 1<<holeParam | 1<<holeLocal | 1<<holeGlobal
)

func (s *splicer) run() {
	s.next()
	s.name(atHeader)
	s.lit(":  ; frame=")
	s.int()
	s.lit("\n")
	for s.err == nil && s.pos < len(s.text) {
		if s.pos == s.off {
			s.name(atLabel)
			s.lit(":\n")
			continue
		}
		// "  " and ' ' or '|' (packed) and ' ', then the instruction.
		t := s.text[:s.stop]
		if p := s.pos; len(t)-p < 4 || t[p] != ' ' || t[p+1] != ' ' || t[p+2] != ' ' && t[p+2] != '|' || t[p+3] != ' ' {
			s.fail("want an instruction")
			break
		}
		s.pos += 4
		s.mnemonic()
		for sep := " "; s.err == nil && s.pos < s.stop && s.text[s.pos] != '\n'; sep = ", " {
			s.lit(sep)
			s.operand()
		}
		s.lit("\n")
	}
	switch {
	case s.err != nil:
	case s.off >= 0:
		s.fail("a hole outside the names of the text")
	case s.out != nil:
		s.out = append(s.out, s.text[s.copied:]...)
	default:
		s.out = s.text
	}
}

func (s *splicer) fail(what string) {
	if s.err == nil {
		s.err = fmt.Errorf("cache: entry text at byte %d: %s", s.pos, what)
	}
}

// lit reads the literal bytes want.
func (s *splicer) lit(want string) {
	if s.err != nil {
		return
	}
	if s.stop-s.pos < len(want) {
		s.fail(fmt.Sprintf("want %q", want))
		return
	}
	for i := range len(want) {
		if s.text[s.pos+i] != want[i] {
			s.fail(fmt.Sprintf("want %q", want))
			return
		}
	}
	s.pos += len(want)
}

// mnemonic reads an instruction's mnemonic, which must be a template's.
func (s *splicer) mnemonic() {
	if s.err != nil {
		return
	}
	j := s.pos
	for j < s.stop && s.text[j] != ' ' && s.text[j] != '\n' {
		j++
	}
	if !s.m.HasMnemonic(s.text[s.pos:j]) {
		s.fail("not a template of the machine")
		return
	}
	s.pos = j
}

// operand reads one operand as asm.Operand.Append writes it.
func (s *splicer) operand() {
	if s.err != nil {
		return
	}
	if s.pos == s.off {
		s.name(atOperand)
		return
	}
	if s.pos == s.stop {
		s.fail("want an operand")
		return
	}
	switch s.text[s.pos] {
	case 'p':
		s.pos++
		if s.digits() >= uint64(s.m.NumPhys) {
			s.fail("physical register out of range")
		}
	case 't':
		s.pos++
		s.digits()
	case 'l':
		s.lit("lo(t")
		s.digits()
		s.lit(")")
	case 'h':
		s.lit("hi(t")
		s.digits()
		s.lit(")")
	case '?':
		s.pos++
	default:
		s.int()
	}
}

// digits reads an unsigned decimal as strconv writes one: no sign, no
// leading zero, no more than a uint64 holds.
func (s *splicer) digits() uint64 {
	if s.err != nil {
		return 0
	}
	start, v := s.pos, uint64(0)
	for ; s.pos < s.stop && '0' <= s.text[s.pos] && s.text[s.pos] <= '9'; s.pos++ {
		if v > (math.MaxUint64-9)/10 {
			s.fail("number out of range")
			return 0
		}
		v = v*10 + uint64(s.text[s.pos]-'0')
	}
	if s.pos == start || s.pos-start > 1 && s.text[start] == '0' {
		s.fail("want a number")
	}
	return v
}

// int reads a signed decimal in an int64's range, as strconv writes one.
func (s *splicer) int() {
	neg := s.err == nil && s.pos < s.stop && s.text[s.pos] == '-'
	if neg {
		s.pos++
	}
	if v := s.digits(); neg && (v == 0 || v > 1<<63) || !neg && v > math.MaxInt64 {
		s.fail("number out of range")
	}
}

// name reads the hole at pos, which must be of a kind in mask, writes
// the current function's name for it and reads the next hole.
func (s *splicer) name(mask int) {
	if s.err != nil {
		return
	}
	if s.pos != s.off || mask&(1<<s.kind) == 0 {
		s.fail("want a name")
		return
	}
	switch s.kind {
	case holeFunc:
		rebind(s, s.fn.Name)
	case holeBlock:
		rebind(s, s.fn.Blocks[s.idx].AppendName(s.label[:0]))
	case holeParam:
		rebind(s, s.fn.Params[s.idx].Name)
	case holeLocal:
		rebind(s, s.fn.Locals[s.idx].Name)
	}
	s.pos = s.end
	s.next()
}

// rebind writes cur over the hole at pos when it differs from the
// stored name.
func rebind[T string | []byte](s *splicer, cur T) {
	if string(cur) == string(s.text[s.off:s.end]) {
		return
	}
	if s.out == nil {
		s.out = make([]byte, 0, len(s.text)+len(s.text)/8)
	}
	s.out = append(append(s.out, s.text[s.copied:s.off]...), cur...)
	s.copied = s.end
}

// next reads the next hole from the payload, holding it to the text,
// to the holes before it and to the current function.
func (s *splicer) next() {
	s.off, s.stop = -1, len(s.text)
	if s.err != nil || s.left == 0 {
		return
	}
	s.left--
	d := &s.dec
	off, n, kind := d.u(), d.u(), d.byte()
	bound := -1 // the index's, for a kind that has one
	switch kind {
	case holeBlock:
		bound = len(s.fn.Blocks)
	case holeParam:
		bound = len(s.fn.Params)
	case holeLocal:
		bound = len(s.fn.Locals)
	}
	if bound >= 0 {
		s.idx = d.u()
	}
	switch {
	case d.err != nil:
		s.err = d.err
	case kind >= numHoleKinds:
		s.err = fmt.Errorf("cache: unknown hole kind %d", kind)
	case bound >= 0 && s.idx >= uint64(bound):
		s.err = errors.New("cache: hole index out of range")
	case off < uint64(s.end) || off > uint64(len(s.text)):
		s.err = errors.New("cache: hole offsets out of order or past the text")
	case n > uint64(len(s.text))-off:
		s.err = errors.New("cache: hole past the end of the text")
	case !storable(s.text[off : off+n]):
		s.err = errors.New("cache: empty name or control byte in a name")
	default:
		s.off, s.end, s.kind, s.stop = int(off), int(off+n), kind, int(off)
	}
}

// dec consumes the payload, latching the first error.
type dec struct {
	b   []byte
	err error
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
