package ir

// The implementations this package shipped before its DAG walks moved
// their visited sets onto the nodes and Fingerprint moved to one byte
// buffer: a streaming hash fed a byte at a time with a map entry per
// node, and map-based CountParents / MarkGlobalRegs. Kept verbatim as
// the oracles of differential_test.go; exported to package ir_test
// only.

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"math"
)

// refFpWriter accumulates the canonical byte stream into a hash. All
// multi-byte values are written in fixed little-endian form; strings
// and slices are length-prefixed so field boundaries cannot alias.
type refFpWriter struct {
	h   hash.Hash
	buf [8]byte

	// Canonical renumbering state. Pseudo-registers are numbered in
	// first-use order of the deterministic walk; blocks by their
	// position in Func.Blocks; nodes and symbols by first visit (a
	// revisit hashes a backreference, so DAG sharing — which changes
	// what the selector emits — is part of the fingerprint).
	reg    map[RegID]uint64
	node   map[*Node]uint64
	sym    map[*Sym]uint64
	block  map[*Block]uint64
	fn     *Func
	nextID uint64
}

func (w *refFpWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(w.buf[:], v)
	w.h.Write(w.buf[:])
}

func (w *refFpWriter) i64(v int64) { w.u64(uint64(v)) }

func (w *refFpWriter) f64(v float64) { w.u64(math.Float64bits(v)) }

func (w *refFpWriter) byte(b byte) { w.h.Write([]byte{b}) }

func (w *refFpWriter) bool(b bool) {
	if b {
		w.byte(1)
	} else {
		w.byte(0)
	}
}

func (w *refFpWriter) str(s string) {
	w.u64(uint64(len(s)))
	w.h.Write([]byte(s))
}

// regID hashes the canonical number of a pseudo-register, assigning the
// next number (and hashing the register's declared type) on first use.
// NoReg hashes a distinguished sentinel.
func (w *refFpWriter) regID(r RegID) {
	if r == NoReg {
		w.byte(0xF0)
		return
	}
	id, ok := w.reg[r]
	if !ok {
		id = w.nextID
		w.nextID++
		w.reg[r] = id
		w.byte(0xF1)
		w.u64(id)
		if int(r) < len(w.fn.Regs) {
			w.byte(byte(w.fn.Regs[r].Type))
		}
		return
	}
	w.byte(0xF2)
	w.u64(id)
}

// symRef hashes a symbol by first-visit identity. The first visit hashes
// the fields the back end's output depends on; global and function
// symbols additionally hash their name, which appears verbatim in the
// emitted assembly (data directives, call targets) and is how the cache
// rebinds a decoded entry. Parameter and local names are cosmetic.
func (w *refFpWriter) symRef(s *Sym) {
	if s == nil {
		w.byte(0xE0)
		return
	}
	if id, ok := w.sym[s]; ok {
		w.byte(0xE2)
		w.u64(id)
		return
	}
	id := w.nextID
	w.nextID++
	w.sym[s] = id
	w.byte(0xE1)
	w.u64(id)
	w.byte(byte(s.Kind))
	w.byte(byte(s.Type))
	w.i64(int64(s.Size))
	w.i64(int64(s.Offset))
	w.bool(s.IsArray)
	if s.Kind == SymGlobal || s.Kind == SymFunc {
		w.str(s.Name)
	}
	w.u64(uint64(len(s.InitI)))
	for _, v := range s.InitI {
		w.i64(v)
	}
	w.u64(uint64(len(s.InitF)))
	for _, v := range s.InitF {
		w.f64(v)
	}
}

// blockRef hashes a block by its canonical index (position in
// Func.Blocks), never by its ID: label names are renumbering-invariant.
func (w *refFpWriter) blockRef(b *Block) {
	if b == nil {
		w.byte(0xD0)
		return
	}
	w.byte(0xD1)
	w.u64(w.block[b])
}

// nodeWalk hashes one expression node. A node already visited hashes as
// a backreference: shared subtrees (DAGs) therefore fingerprint
// differently from structurally-equal unshared trees — they compile
// differently (the selector forces shared values into registers).
func (w *refFpWriter) nodeWalk(n *Node) {
	if n == nil {
		w.byte(0xC0)
		return
	}
	if id, ok := w.node[n]; ok {
		w.byte(0xC2)
		w.u64(id)
		return
	}
	id := w.nextID
	w.nextID++
	w.node[n] = id
	w.byte(0xC1)
	w.byte(byte(n.Op))
	w.byte(byte(n.Type))
	switch n.Op {
	case Const:
		// (IVal, FVal) as they were before a float's bits moved into
		// IVal.
		if n.Type.IsFloat() {
			w.i64(0)
			w.f64(n.Float())
		} else {
			w.i64(n.IVal)
			w.f64(0)
		}
	case Reg, Asgn:
		w.regID(n.Reg)
	case Addr, Call:
		w.symRef(n.Sym)
	case Cvt:
		w.byte(byte(n.From))
	case Branch, Jump:
		w.blockRef(n.Target)
	}
	w.u64(uint64(len(n.Kids)))
	for _, k := range n.Kids {
		w.nodeWalk(k)
	}
}

// ReferenceFingerprint is the parent's (*Func).Fingerprint.
func ReferenceFingerprint(f *Func) Digest {
	w := &refFpWriter{
		h:     sha256.New(),
		reg:   map[RegID]uint64{},
		node:  map[*Node]uint64{},
		sym:   map[*Sym]uint64{},
		block: map[*Block]uint64{},
		fn:    f,
	}
	w.str("marion-ir-fp-v1")
	w.byte(byte(f.RetType))
	w.i64(int64(f.LocalFrame))

	w.u64(uint64(len(f.Params)))
	for _, s := range f.Params {
		w.symRef(s)
	}
	w.u64(uint64(len(f.Locals)))
	for _, s := range f.Locals {
		w.symRef(s)
	}
	w.u64(uint64(len(f.ParamRegs)))
	for _, r := range f.ParamRegs {
		w.regID(r)
	}

	for i, b := range f.Blocks {
		w.block[b] = uint64(i)
	}
	w.u64(uint64(len(f.Blocks)))
	for _, b := range f.Blocks {
		w.i64(int64(b.LoopDepth))
		w.u64(uint64(len(b.Succs)))
		for _, s := range b.Succs {
			w.blockRef(s)
		}
		w.u64(uint64(len(b.Preds)))
		for _, p := range b.Preds {
			w.blockRef(p)
		}
		w.u64(uint64(len(b.Stmts)))
		for _, s := range b.Stmts {
			w.nodeWalk(s)
		}
	}

	var d Digest
	w.h.Sum(d[:0])
	return d
}

// ReferenceCountParents is the parent's (*Block).CountParents.
func ReferenceCountParents(b *Block) {
	seen := map[*Node]bool{}
	var walk func(n *Node)
	walk = func(n *Node) {
		for _, k := range n.Kids {
			k.Parents++
			if !seen[k] {
				seen[k] = true
				walk(k)
			}
		}
	}
	var clear func(n *Node)
	clear = func(n *Node) {
		n.Parents = 0
		for _, k := range n.Kids {
			if !seen[k] {
				seen[k] = true
				clear(k)
			}
		}
	}
	for _, s := range b.Stmts {
		clear(s)
	}
	seen = map[*Node]bool{}
	for _, s := range b.Stmts {
		walk(s)
	}
}

// ReferenceMarkGlobalRegs is the parent's (*Func).MarkGlobalRegs.
func ReferenceMarkGlobalRegs(f *Func) {
	firstBlock := make(map[RegID]int)
	var visit func(n *Node, bid int, seen map[*Node]bool)
	visit = func(n *Node, bid int, seen map[*Node]bool) {
		if seen[n] {
			return
		}
		seen[n] = true
		if n.Op == Reg || n.Op == Asgn {
			if fb, ok := firstBlock[n.Reg]; ok {
				if fb != bid {
					f.Regs[n.Reg].Global = true
				}
			} else {
				firstBlock[n.Reg] = bid
			}
		}
		for _, k := range n.Kids {
			visit(k, bid, seen)
		}
	}
	for _, b := range f.Blocks {
		seen := map[*Node]bool{}
		for _, s := range b.Stmts {
			visit(s, b.ID, seen)
		}
	}
}
