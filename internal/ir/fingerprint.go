package ir

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
)

// Digest is a canonical fingerprint of an IL function. Two functions
// with equal digests are identical up to block label names (Block.ID),
// pseudo-register numbering (RegID values), cosmetic names of
// parameters, locals and pseudo-registers, and the function's own name;
// everything the back end's output depends on — operators, types,
// constants, DAG sharing structure, CFG shape, loop depths, referenced
// global/function symbols with their layout, frame sizes — is hashed.
//
// The digest is the IR component of the compilation-cache key
// (internal/cache): a compiled function is a pure function of
// (Digest, machine fingerprint, strategy/config), so equal digests may
// share a cached compilation.
type Digest [32]byte

// String returns the digest as lowercase hex.
func (d Digest) String() string { return hex.EncodeToString(d[:]) }

// fpWriter accumulates the canonical byte stream, hashed once at the
// end. All multi-byte values are written in fixed little-endian form;
// strings and slices are length-prefixed so field boundaries cannot
// alias.
type fpWriter struct {
	buf []byte

	// Canonical renumbering state. Pseudo-registers are numbered in
	// first-use order of the deterministic walk; blocks by their
	// position in Func.Blocks; nodes and symbols by first visit (a
	// revisit hashes a backreference, so DAG sharing — which changes
	// what the selector emits — is part of the fingerprint). A node's
	// number lives on the node (Node.num, valid while Node.walk is this
	// walk's epoch); a register's in reg, indexed by RegID, or — for a
	// register the function never declared — in undeclared.
	walk       Walk
	reg        []uint32
	undeclared map[RegID]uint32
	sym        map[*Sym]uint32
	block      map[*Block]uint64
	fn         *Func
	nextID     uint32
}

func (w *fpWriter) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

func (w *fpWriter) i64(v int64) { w.u64(uint64(v)) }

func (w *fpWriter) f64(v float64) { w.u64(math.Float64bits(v)) }

func (w *fpWriter) byte(b byte) { w.buf = append(w.buf, b) }

func (w *fpWriter) bool(b bool) {
	if b {
		w.byte(1)
	} else {
		w.byte(0)
	}
}

func (w *fpWriter) str(s string) {
	w.u64(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// regID hashes the canonical number of a pseudo-register, assigning the
// next number (and hashing the register's declared type) on first use.
// NoReg hashes a distinguished sentinel.
func (w *fpWriter) regID(r RegID) {
	if r == NoReg {
		w.byte(0xF0)
		return
	}
	// Both tables hold number+1, so zero means "not numbered yet".
	declared := uint(r) < uint(len(w.reg))
	var id uint32
	if declared {
		id = w.reg[r]
	} else {
		id = w.undeclared[r]
	}
	if id != 0 {
		w.byte(0xF2)
		w.u64(uint64(id - 1))
		return
	}
	id = w.nextID
	w.nextID++
	w.byte(0xF1)
	w.u64(uint64(id))
	if declared {
		w.reg[r] = id + 1
		w.byte(byte(w.fn.Regs[r].Type))
		return
	}
	if w.undeclared == nil {
		w.undeclared = map[RegID]uint32{}
	}
	w.undeclared[r] = id + 1
}

// symRef hashes a symbol by first-visit identity. The first visit hashes
// the fields the back end's output depends on; global and function
// symbols additionally hash their name, which appears verbatim in the
// emitted assembly (data directives, call targets) and is how the cache
// rebinds a decoded entry. Parameter and local names are cosmetic.
func (w *fpWriter) symRef(s *Sym) {
	if s == nil {
		w.byte(0xE0)
		return
	}
	if id, ok := w.sym[s]; ok {
		w.byte(0xE2)
		w.u64(uint64(id))
		return
	}
	id := w.nextID
	w.nextID++
	w.sym[s] = id
	w.byte(0xE1)
	w.u64(uint64(id))
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
func (w *fpWriter) blockRef(b *Block) {
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
func (w *fpWriter) nodeWalk(n *Node) {
	if n == nil {
		w.byte(0xC0)
		return
	}
	if num := w.walk.Number(n, w.nextID); num != w.nextID {
		w.byte(0xC2)
		w.u64(uint64(num))
		return
	}
	w.nextID++
	w.byte(0xC1)
	w.byte(byte(n.Op))
	w.byte(byte(n.Type))
	switch n.Op {
	case Const:
		// An integer constant hashes (value, 0), a floating one
		// (0, bits): the stream every stored cache key was made from,
		// which no change of layout may alter.
		if n.Type.IsFloat() {
			w.i64(0)
			w.u64(uint64(n.IVal))
		} else {
			w.i64(n.IVal)
			w.u64(0)
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

// Initial capacity of the fingerprint buffer, guessed from what is known
// before the walk. The corpus golden.sha256 pins streams 60–140 bytes per
// statement; a longer stream grows the buffer.
const (
	fpBytesPerStmt = 128
	fpBytesFixed   = 512
)

// Fingerprint computes the canonical digest of the function. The walk
// touches only slices in declaration/source order (never Go maps), so
// the digest is deterministic across processes, worker counts and
// map-iteration order, and invariant under block-ID and RegID
// renumbering (see Digest). It stamps the nodes it visits (see Walk),
// so the caller must own the function. It builds its scratch afresh; a
// caller fingerprinting one function after another keeps a
// FingerprintScratch instead.
func (f *Func) Fingerprint() Digest {
	var s FingerprintScratch
	return s.Fingerprint(f)
}

// FingerprintScratch is Func.Fingerprint's working state — the byte
// stream, the register table and the symbol and block maps — kept from
// one function to the next so that a warm one allocates nothing. The
// zero value is ready; one goroutine uses it at a time.
type FingerprintScratch struct{ w fpWriter }

// Detach drops what the scratch holds of the function it fingerprinted
// last — the function and the symbols and blocks its maps are keyed by
// — keeping the buffer and the maps' storage up to the bound.
func (s *FingerprintScratch) Detach() {
	w := &s.w
	w.fn, w.buf, w.reg = nil, Trim(w.buf), Trim(w.reg)
	w.sym, w.block, w.undeclared = KeepMap(w.sym), KeepMap(w.block), KeepMap(w.undeclared)
}

// Fingerprint is f.Fingerprint() on the scratch: the same stream into
// the same hash, so the same digest.
func (s *FingerprintScratch) Fingerprint(f *Func) Digest {
	stmts := 0
	for _, b := range f.Blocks {
		stmts += len(b.Stmts)
	}
	w := &s.w
	w.buf = Grow(w.buf, fpBytesPerStmt*stmts+fpBytesFixed)[:0]
	w.walk = NewWalk()
	w.reg = Grow(w.reg, len(f.Regs))
	if w.sym == nil {
		w.sym = make(map[*Sym]uint32, len(f.Params)+len(f.Locals))
		w.block = make(map[*Block]uint64, len(f.Blocks))
	} else {
		s.Detach()
	}
	w.fn, w.nextID = f, 0

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

	return sha256.Sum256(w.buf)
}
