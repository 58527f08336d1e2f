// Package asm defines the target program representation: instructions
// instantiated from machine templates, grouped into basic blocks and
// functions. The same structures flow from the selector through the
// scheduler and register allocator to the printer and the simulator.
package asm

import (
	"strconv"
	"unsafe"

	"marion/internal/ir"
	"marion/internal/mach"
)

// PseudoID names a back end pseudo-register (created by the selector;
// mapped to physical registers by the allocator).
type PseudoID int32

// NoPseudo means "no pseudo register".
const NoPseudo PseudoID = -1

// OperandKind classifies an instruction operand.
type OperandKind uint8

const (
	opNone OperandKind = iota
	OpPseudo
	OpPhys
	OpPseudoHalf // lo/hi half of a wide pseudo (resolved after allocation)
	OpImm
	OpBlock // branch target
	OpSym   // function or global symbol (call target / address)
)

// Operand is one actual operand of an instruction. The field order
// packs it into 32 bytes (TestLayout pins that): the four small fields
// share one word.
type Operand struct {
	Kind   OperandKind
	Half   uint8 // 0 = low, 1 = high (OpPseudoHalf)
	Phys   mach.PhysID
	Pseudo PseudoID
	Imm    int64
	Block  *ir.Block
	Sym    *ir.Sym
}

// Reg returns a pseudo-register operand.
func Reg(p PseudoID) Operand { return Operand{Kind: OpPseudo, Pseudo: p} }

// Phys returns a physical-register operand.
func Phys(p mach.PhysID) Operand { return Operand{Kind: OpPhys, Phys: p} }

// Imm returns an immediate operand.
func Imm(v int64) Operand { return Operand{Kind: OpImm, Imm: v} }

// IsReg reports whether the operand is a register (pseudo, phys or half).
func (o Operand) IsReg() bool {
	return o.Kind == OpPseudo || o.Kind == OpPhys || o.Kind == OpPseudoHalf
}

// appendTo appends the operand's assembly text to dst. It is the one
// operand formatter: String and Program.Print both go through it.
func (o Operand) appendTo(dst []byte) []byte {
	switch o.Kind {
	case OpPseudo:
		return strconv.AppendInt(append(dst, 't'), int64(o.Pseudo), 10)
	case OpPhys:
		return strconv.AppendInt(append(dst, 'p'), int64(o.Phys), 10)
	case OpPseudoHalf:
		if o.Half == 0 {
			dst = append(dst, "lo(t"...)
		} else {
			dst = append(dst, "hi(t"...)
		}
		return append(strconv.AppendInt(dst, int64(o.Pseudo), 10), ')')
	case OpImm:
		return strconv.AppendInt(dst, o.Imm, 10)
	case OpBlock:
		return o.Block.AppendName(dst)
	case OpSym:
		return append(dst, o.Sym.Name...)
	}
	return append(dst, '?')
}

func (o Operand) String() string {
	var buf [24]byte
	return string(o.appendTo(buf[:0]))
}

// Inst is one instruction: a machine template plus actual operands. It
// is 48 bytes (TestLayout pins that): the implicit effects only calls
// and returns have sit behind one pointer.
type Inst struct {
	Tmpl *mach.Instr
	Args []Operand

	// Imp holds the implicit physical register effects, nil for all
	// but calls and returns. Read it through ImpUses and ImpDefs.
	Imp *Implicit

	// Cycle is the issue cycle assigned by the scheduler, relative to the
	// start of the basic block; instructions with equal cycles are packed
	// into one long instruction word. -1 before scheduling.
	Cycle int32

	// SeqID groups the sub-operations of one %seq (or escape) expansion:
	// temporal-latch dataflow is paired within a sequence, so the pairing
	// survives arbitrary scheduling reorders. 0 = not part of a sequence.
	SeqID int32
}

// Implicit is an instruction's implicit physical register effects: for
// a call the argument registers it reads and the caller-save set it
// clobbers, for a return the result and return-address registers.
type Implicit struct {
	Uses []mach.PhysID
	Defs []mach.PhysID
}

// ImpUses returns the registers the instruction reads implicitly.
func (in *Inst) ImpUses() []mach.PhysID {
	if in.Imp == nil {
		return nil
	}
	return in.Imp.Uses
}

// ImpDefs returns the registers the instruction writes implicitly.
func (in *Inst) ImpDefs() []mach.PhysID {
	if in.Imp == nil {
		return nil
	}
	return in.Imp.Defs
}

// appendText appends the instruction's assembly text — mnemonic, then
// the operands separated by ", " — to dst, recording in holes (when not
// nil) each block or symbol operand's span, counted from base.
func (in *Inst) appendText(dst []byte, base int, holes *[]Hole) []byte {
	dst = append(dst, in.Tmpl.Mnemonic...)
	for i, a := range in.Args {
		if i == 0 {
			dst = append(dst, ' ')
		} else {
			dst = append(dst, ", "...)
		}
		at := len(dst)
		dst = a.appendTo(dst)
		if holes != nil && (a.Kind == OpBlock || a.Kind == OpSym) {
			*holes = append(*holes, Hole{Off: at - base, Len: len(dst) - at, Block: a.Block, Sym: a.Sym})
		}
	}
	return dst
}

func (in *Inst) String() string {
	var buf [64]byte
	return string(in.appendText(buf[:0], 0, nil))
}

// PseudoInfo describes one back end pseudo-register.
type PseudoInfo struct {
	Set *mach.RegSet // register set the pseudo must be colored in
	IR  ir.RegID     // originating IL pseudo, or ir.NoReg
	// Precolor, when valid, pins the pseudo to one physical register.
	Precolor mach.PhysID
	// SpillCost accumulates use/def counts weighted by loop depth.
	SpillCost float64
	// NoSpill marks short-lived temporaries the allocator must not spill
	// (e.g. pseudos introduced by spill code itself).
	NoSpill bool
}

// Block is one basic block of target code.
type Block struct {
	IR    *ir.Block
	Insts []*Inst
	// SchedCost is the scheduler's estimated cycle count for the block
	// (used by RASE and for Table 4's estimated execution time).
	SchedCost int
}

// Label returns the block's assembly label.
func (b *Block) Label() string { return b.IR.Name() }

// Func is one compiled function. Its code — blocks, lists,
// instructions, operands, pseudo table — is built in the arena of the
// worker that compiles it when Arena.Func made it, and on the heap when
// it was built by hand; CopyOut gives it code of its own before it
// outlives the arena.
type Func struct {
	Name    string
	IR      *ir.Func
	Blocks  []*Block
	Pseudos []PseudoInfo

	// FrameSize is the total stack frame, filled by the strategy after
	// allocation (locals + spills + saves + outgoing args).
	FrameSize int
	// Outgoing is the outgoing-argument area size.
	Outgoing int
	// UsesCalls reports whether the function makes calls (needs the
	// return address saved).
	UsesCalls bool
	// seqCounter feeds NewSeqID.
	seqCounter int32
	// CalleeSaved lists the callee-save registers the allocator used.
	CalleeSaved []mach.PhysID
	// SpillSlots is the number of 8-byte spill slots in the frame.
	SpillSlots int

	// Text, when not nil, is the function's assembly as AppendText
	// prints it, and Blocks is empty: a cache hit (internal/cache)
	// carries its code as text only. Print copies it verbatim; sim and
	// verify refuse such a function. It is read-only.
	Text []byte

	// code is the arena the function's code is built in, nil once it
	// is copied out or when it never was in one.
	code *Arena
}

// NewSeqID returns a fresh sequence identity for a %seq expansion.
func (f *Func) NewSeqID() int32 {
	f.seqCounter++
	return f.seqCounter
}

// NewPseudo allocates a fresh pseudo-register constrained to set, in
// the table of f's arena while f is the arena's newest function, else in
// a table of f's own.
func (f *Func) NewPseudo(set *mach.RegSet, irReg ir.RegID) PseudoID {
	f.Pseudos = append(f.Pseudos, PseudoInfo{Set: set, IR: irReg, Precolor: mach.NoPhys})
	if a := f.code; a != nil && a.owner == f {
		a.pseudos = f.Pseudos
	}
	return PseudoID(len(f.Pseudos) - 1)
}

// Block returns the asm block for an IR block.
func (f *Func) Block(b *ir.Block) *Block {
	for _, ab := range f.Blocks {
		if ab.IR == b {
			return ab
		}
	}
	return nil
}

// Program is a complete compiled module.
type Program struct {
	Machine *mach.Machine
	Name    string
	Funcs   []*Func
	Globals []*ir.Sym
}

// Lookup returns the function with the given name, or nil.
func (p *Program) Lookup(name string) *Func {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// printBytesPerInst sizes Print's buffer: the Livermore suite prints at
// 18 to 20 bytes an instruction on every target, labels and headers
// included; a wordier program grows the buffer.
const printBytesPerInst = 24

// Print renders the program as assembly text.
func (p *Program) Print() string {
	size := 64 + 32*len(p.Globals)
	for _, f := range p.Funcs {
		size += len(f.Text)
		for _, b := range f.Blocks {
			size += printBytesPerInst * len(b.Insts)
		}
	}
	buf := make([]byte, 0, size)
	buf = append(buf, "; target "...)
	buf = append(buf, p.Machine.Name...)
	buf = append(buf, '\n')
	for _, g := range p.Globals {
		buf = append(buf, ".data "...)
		buf = append(buf, g.Name...)
		buf = strconv.AppendInt(append(buf, " size="...), int64(g.Size), 10)
		buf = strconv.AppendInt(append(buf, " addr="...), int64(g.Offset), 10)
		buf = append(buf, '\n')
	}
	for _, f := range p.Funcs {
		buf = append(buf, '\n')
		if f.Text != nil {
			buf = append(buf, f.Text...)
		} else {
			buf = f.AppendText(buf, nil)
		}
	}
	// buf is never written again, so the string can share its bytes.
	return unsafe.String(unsafe.SliceData(buf), len(buf))
}

// A Hole is a name in a function's text that a cache entry rebinds on
// a hit (internal/cache, DESIGN §10): the function's own name, a block
// label, or a symbol operand. Off and Len are its bytes, counted from
// the start of the function's text.
type Hole struct {
	Off, Len int
	Block    *ir.Block // the block a label names
	Sym      *ir.Sym   // the symbol an operand names
	// Block and Sym both nil: the function's name.
}

// AppendText appends the function's assembly text to dst as Print
// renders it: the header line, then each block's label and its
// instructions, one a line, packed ones marked '|'. It is the one
// printer: Print calls it, and so does the cache's entry encoder, with
// holes not nil, to learn where in the text each name the entry rebinds
// sits; the holes are appended in text order.
func (f *Func) AppendText(dst []byte, holes *[]Hole) []byte {
	base := len(dst)
	dst = append(dst, f.Name...)
	if holes != nil {
		*holes = append(*holes, Hole{Len: len(f.Name)})
	}
	dst = strconv.AppendInt(append(dst, ":  ; frame="...), int64(f.FrameSize), 10)
	dst = append(dst, '\n')
	for _, b := range f.Blocks {
		at := len(dst)
		dst = b.IR.AppendName(dst)
		if holes != nil {
			*holes = append(*holes, Hole{Off: at - base, Len: len(dst) - at, Block: b.IR})
		}
		dst = append(dst, ":\n"...)
		lastCycle := int32(-2)
		for _, in := range b.Insts {
			pack := byte(' ')
			if in.Cycle >= 0 && in.Cycle == lastCycle {
				pack = '|' // packed with the previous instruction
			}
			lastCycle = in.Cycle
			dst = append(dst, ' ', ' ', pack, ' ')
			dst = append(in.appendText(dst, base, holes), '\n')
		}
	}
	return dst
}
