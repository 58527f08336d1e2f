package asm

import (
	"unsafe"

	"marion/internal/ir"
	"marion/internal/mach"
)

// Arena is the storage a function's code is built in: its blocks and
// block list, the blocks' instruction lists, the instructions with
// their operand lists and implicit effects, and the lists PseudoHomes
// returns, carved from chunks, and one pseudo-register table. A Func
// made by Arena.Func takes from it everything New, NewPseudo,
// PseudoHomes, Operands, Implicit and List hand out for it, so once an
// arena's chunks are warm, building a function — and rebuilding its
// lists in every pass — allocates nothing.
//
// An arena has one owner and is never shared between goroutines. What
// it hands out lives until Rewind, which zeroes everything carved since
// the last Rewind and keeps chunks, up to keepBytes of each kind, and
// the table, up to keepBytes, for the next function. Whoever rewinds
// must know that nothing reaches the code any more: a function that is
// to outlive the Rewind is first copied out (Func.CopyOut). An arena
// that nobody rewinds never hands out storage twice, so every function
// built in it keeps its code. The zero Arena is ready to use.
type Arena struct {
	insts      ir.Chunks[Inst]
	ops        ir.Chunks[Operand]
	imps       ir.Chunks[Implicit]
	lists      ir.Chunks[*Inst]
	blocks     ir.Chunks[Block]
	blockLists ir.Chunks[*Block]
	bools      ir.Chunks[bool]

	// pseudos is the pseudo-register table of owner, the function made
	// here last, which NewPseudo keeps up to date as it grows.
	pseudos []PseudoInfo
	owner   *Func
}

// keepBytes bounds what Rewind keeps of the pseudo-register table, as
// ir.Chunks keeps of each kind of chunk: one huge function does not pin
// its storage in a pooled worker.
const keepBytes = 512 << 10

// chunkFloor is the fewest values a new chunk of the arena holds: what
// the passes after selection add — nops, spill code, the frame and
// every rebuilt list — is not in Func's estimate.
const chunkFloor = 64

// Func returns an empty function for fn, built in a: one block per
// block of fn, in order, and the pseudo-register table a keeps, with
// room for fn's registers. nodes is fn's IL node count, from which the
// chunks a opens for the function are sized: on the benchmark's
// corpora a function ends with about 0.8 instructions and 1.8 operands
// a node, and its passes carve two to four list entries a node.
func (a *Arena) Func(fn *ir.Func, nodes int) *Func {
	n := len(fn.Blocks)
	pseudos := len(fn.Regs) + nodes/2
	expect(&a.insts, nodes)
	expect(&a.ops, 2*nodes)
	expect(&a.imps, 2)
	expect(&a.lists, 4*nodes)
	expect(&a.blocks, n)
	expect(&a.blockLists, n+pseudos)
	expect(&a.bools, pseudos)

	f := &Func{Name: fn.Name, IR: fn, code: a}
	if n > 0 {
		f.Blocks = a.blockLists.CarveN(n)
		blocks := a.blocks.CarveN(n)
		for i, b := range fn.Blocks {
			blocks[i].IR = b
			f.Blocks[i] = &blocks[i]
		}
	}
	if a.owner != nil {
		// A function made here before, with no Rewind since, keeps its
		// table.
		a.pseudos = nil
	}
	if cap(a.pseudos) < pseudos {
		a.pseudos = make([]PseudoInfo, 0, pseudos)
	}
	f.Pseudos, a.owner = a.pseudos[:0], f
	return f
}

// expect tells c that about n values are still to be carved for the
// function being made, and that a chunk opened once they are carved
// holds at least chunkFloor.
func expect[T any](c *ir.Chunks[T], n int) {
	c.Expect(n)
	c.Floor(chunkFloor)
}

// Rewind readies the arena for the next function: every value it
// handed out since the last Rewind is zeroed, and its chunks and table
// are kept, up to keepBytes of each kind. Nothing may reach the code
// built in it: a function that outlives the Rewind was copied out.
func (a *Arena) Rewind() {
	a.insts.Reset()
	a.ops.Reset()
	a.imps.Reset()
	a.lists.Reset()
	a.blocks.Reset()
	a.blockLists.Reset()
	a.bools.Reset()
	clear(a.pseudos)
	a.pseudos = a.pseudos[:0]
	if cap(a.pseudos)*int(unsafe.Sizeof(PseudoInfo{})) > keepBytes {
		a.pseudos = nil
	}
	a.owner = nil
}

// New returns an instruction of f for tmpl with the operand list args,
// which it keeps: built in f's arena when f has one, on the heap when f
// is nil or has none.
func New(f *Func, tmpl *mach.Instr, args ...Operand) *Inst {
	if f == nil || f.code == nil {
		return &Inst{Tmpl: tmpl, Args: args, Cycle: -1}
	}
	return f.code.insts.Carve(Inst{Tmpl: tmpl, Args: args, Cycle: -1})
}

// Operands returns n zero operands for an instruction of f, with
// cap == len: from f's arena when it has one, else from the heap; nil
// when n is 0.
func (f *Func) Operands(n int) []Operand {
	switch {
	case n == 0:
		return nil
	case f.code == nil:
		return make([]Operand, n)
	}
	return f.code.ops.CarveN(n)
}

// Implicit returns the implicit effects uses and defs for an
// instruction of f: from f's arena when it has one, else from the heap.
func (f *Func) Implicit(uses, defs []mach.PhysID) *Implicit {
	if f.code == nil {
		return &Implicit{Uses: uses, Defs: defs}
	}
	return f.code.imps.Carve(Implicit{Uses: uses, Defs: defs})
}

// List returns the instructions of parts, in order, as one list of f's
// with cap == len — carved from f's arena when it has one, else from
// the heap — or nil when parts hold none. A pass that rebuilds a block
// gathers its instructions where it likes and gives the block a List
// of them.
func (f *Func) List(parts ...[]*Inst) []*Inst {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if n == 0 {
		return nil
	}
	var l []*Inst
	if f.code == nil {
		l = make([]*Inst, 0, n)
	} else {
		l = f.code.lists.CarveN(n)[:0]
	}
	for _, p := range parts {
		l = append(l, p...)
	}
	return l
}

// CopyOut gives f code of its own. When f was built in an arena, its
// blocks, block list, instructions, operand lists, implicit effects,
// instruction lists and pseudo-register table are copied, in final list
// order, into one exactly sized array of each kind (every block's list
// shares one), and f no longer reaches the arena, which its owner may
// then rewind. A nil function, or one with no arena, is left as it is.
func (f *Func) CopyOut() {
	if f == nil || f.code == nil {
		return
	}
	f.code = nil
	insts, ops, imps := 0, 0, 0
	for _, b := range f.Blocks {
		insts += len(b.Insts)
		for _, in := range b.Insts {
			ops += len(in.Args)
			if in.Imp != nil {
				imps++
			}
		}
	}
	blocks := make([]Block, len(f.Blocks))
	ptrs := make([]*Block, len(f.Blocks))
	code := make([]Inst, insts)
	list := make([]*Inst, insts)
	args := make([]Operand, ops)
	var imp []Implicit
	if imps > 0 {
		imp = make([]Implicit, imps)
	}
	k := 0
	for i, b := range f.Blocks {
		blocks[i], ptrs[i] = *b, &blocks[i]
		start := k
		for _, in := range b.Insts {
			c := &code[k]
			*c = *in
			c.Args, c.Imp = nil, nil
			if n := len(in.Args); n > 0 {
				c.Args, args = args[:n:n], args[n:]
				copy(c.Args, in.Args)
			}
			if in.Imp != nil {
				imp[0] = *in.Imp
				c.Imp, imp = &imp[0], imp[1:]
			}
			list[k] = c
			k++
		}
		blocks[i].Insts = nil
		if k > start {
			blocks[i].Insts = list[start:k:k]
		}
	}
	f.Blocks = ptrs
	if f.Pseudos != nil {
		f.Pseudos = append(make([]PseudoInfo, 0, len(f.Pseudos)), f.Pseudos...)
	}
}
