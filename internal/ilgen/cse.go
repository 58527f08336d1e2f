package ilgen

import (
	"unsafe"

	"marion/internal/ir"
)

// cseKey identifies a pure expression's value within a block: two nodes
// with equal keys compute the same value. payload is the one thing
// besides operator, types and operands that tells values of the node's
// kind apart: a constant's bits, a register's id and version, a load's
// memory epoch.
type cseKey struct {
	sym     *ir.Sym
	payload uint64
	a, b    int32 // canonical ids of kids (0 = none)
	op      ir.Op
	t, from ir.Type
}

// hash mixes the key's fields into a table position. A symbol is
// hashed by its address, which the Go heap never moves; equality still
// compares the keys whole, so the hash decides probe order only.
func (k *cseKey) hash() uint64 {
	h := k.payload*0x9e3779b97f4a7c15 ^ uint64(uintptr(unsafe.Pointer(k.sym)))
	h ^= (uint64(uint32(k.a))<<32 | uint64(uint32(k.b))) * 0xc2b2ae3d27d4eb4f
	h ^= uint64(k.op) | uint64(k.t)<<8 | uint64(k.from)<<16
	h ^= h >> 31
	h *= 0xbf58476d1ce4e5b9
	return h ^ h>>29
}

// cseEntry is one value of the block: its key and canonical node.
type cseEntry struct {
	key  cseKey
	node *ir.Node
}

// cseTable value-numbers one block at a time and is kept for a whole
// unit. Its hash index is open-addressed over a slice that is resized
// for each block to twice the block's tree nodes (a power of two), so
// clearing it costs the block, not the largest block seen so far, as
// clearing a Go map would; the entries it points at are appended and
// dropped wholesale. regVer holds the current function's register
// versions, indexed by RegID: they only ever grow, and the index is
// emptied between blocks, so no version is shared across blocks. A
// Scratch keeps the table from one unit to the next.
type cseTable struct {
	index   []int32 // 1 + the entry at a position, 0 when empty
	mask    uint64
	entries []cseEntry
	regVer  []uint32

	// Per block: canonical nodes are numbered on the nodes themselves
	// by walk; memEpoch counts the stores and calls so far.
	walk     ir.Walk
	nextID   uint32
	memEpoch uint64

	// mem is every type the function's blocks so far load or store.
	mem ir.Types
}

// countNodes is the size of the expression under n as a tree.
func countNodes(n *ir.Node) int {
	c := 1
	for _, k := range n.Kids {
		c += countNodes(k)
	}
	return c
}

// function starts a function with regs pseudo-registers, all at
// version 0, that loads and stores nothing yet.
func (t *cseTable) function(regs int) {
	t.regVer = ir.Grow(t.regVer, regs)
	t.mem = 0
}

// block value-numbers the statement trees of one block, sharing
// identical pure subexpressions so they become multi-parent DAG nodes
// ("local common subexpressions", paper §2.1). Register reads are
// versioned by intervening assignments and loads by intervening stores
// and calls, so sharing never crosses a redefinition.
func (t *cseTable) block(b *ir.Block) {
	nodes := 0
	for _, s := range b.Stmts {
		nodes += countNodes(s)
	}
	size := 8
	for size < 2*nodes {
		size <<= 1
	}
	t.index = ir.Grow(t.index, size)
	t.mask = uint64(size - 1)
	t.entries = ir.Grow(t.entries, nodes)[:0]
	t.walk, t.nextID, t.memEpoch = ir.NewWalk(), 1, 0

	for _, s := range b.Stmts {
		for i, k := range s.Kids {
			s.Kids[i] = t.canon(k)
		}
		switch s.Op {
		case ir.Asgn:
			t.regVer[s.Reg]++
		case ir.Store:
			t.memEpoch++
			t.mem.Add(s.Type)
		case ir.Call:
			t.memEpoch++
		}
	}
	b.CountParents()
}

// detach zeroes every entry, so that the table holds no node or symbol
// of the unit, and drops what has grown past the bound.
func (t *cseTable) detach() {
	t.entries, t.index, t.regVer = ir.Keep(t.entries), ir.Keep(t.index), ir.Keep(t.regVer)
}

// idOf is the canonical id of a canonical node.
func (t *cseTable) idOf(n *ir.Node) int32 {
	id := t.walk.Number(n, t.nextID)
	if id == t.nextID {
		t.nextID++
	}
	return int32(id)
}

// canon canonicalizes the kids of n and returns the node that first
// computed n's value in the block, n itself when none did.
func (t *cseTable) canon(n *ir.Node) *ir.Node {
	for i, k := range n.Kids {
		n.Kids[i] = t.canon(k)
	}
	k := cseKey{op: n.Op, t: n.Type}
	switch n.Op {
	case ir.Const:
		// A constant carries its value in IVal, a floating one as its
		// bits (Node.Float), so floats are keyed on their bits: +0.0
		// and -0.0 are different values, and a NaN is the same value as
		// itself.
		k.payload = uint64(n.IVal)
	case ir.Addr:
		k.sym = n.Sym
	case ir.Frame, ir.Stack:
		// no extra key
	case ir.Reg:
		k.payload = uint64(uint32(n.Reg))<<32 | uint64(t.regVer[n.Reg])
	case ir.Load:
		k.a, k.payload = t.idOf(n.Kids[0]), t.memEpoch
		t.mem.Add(n.Type)
	case ir.Add, ir.Sub, ir.Mul, ir.Div, ir.Rem, ir.Neg, ir.And, ir.Or,
		ir.Xor, ir.Not, ir.Shl, ir.Shr, ir.High, ir.Low, ir.Cmp,
		ir.Eq, ir.Ne, ir.Lt, ir.Le, ir.Gt, ir.Ge:
		k.a = t.idOf(n.Kids[0])
		if len(n.Kids) > 1 {
			k.b = t.idOf(n.Kids[1])
		}
	case ir.Cvt:
		k.a, k.from = t.idOf(n.Kids[0]), n.From
	default:
		// Side-effecting or control nodes are never shared.
		return n
	}
	// The index holds at most one entry per tree node of the block, so
	// it is never more than half full and the probe ends.
	for i := k.hash() & t.mask; ; i = (i + 1) & t.mask {
		e := t.index[i]
		if e == 0 {
			t.entries = append(t.entries, cseEntry{k, n})
			t.index[i] = int32(len(t.entries))
			return n
		}
		if t.entries[e-1].key == k {
			return t.entries[e-1].node
		}
	}
}
