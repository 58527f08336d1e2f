package ilgen

import (
	"math"

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

// countNodes is the size of the expression under n as a tree.
func countNodes(n *ir.Node) int {
	c := 1
	for _, k := range n.Kids {
		c += countNodes(k)
	}
	return c
}

// cseBlock value-numbers the statement trees of one block, sharing
// identical pure subexpressions so they become multi-parent DAG nodes
// ("local common subexpressions", paper §2.1). Register reads are
// versioned by intervening assignments and loads by intervening stores
// and calls, so sharing never crosses a redefinition. regVer holds the
// function's register versions, indexed by RegID; they only ever grow,
// and the memo is the block's own, so no version is shared across blocks.
func cseBlock(b *ir.Block, regVer []uint32) {
	nodes := 0
	for _, s := range b.Stmts {
		nodes += countNodes(s)
	}
	memo := make(map[cseKey]*ir.Node, nodes)
	// Canonical nodes are numbered on the nodes themselves.
	walk, nextID := ir.NewWalk(), uint64(1)
	idOf := func(n *ir.Node) int32 {
		id := walk.Number(n, nextID)
		if id == nextID {
			nextID++
		}
		return int32(id)
	}
	memEpoch := uint64(0)

	var canon func(n *ir.Node) *ir.Node
	canon = func(n *ir.Node) *ir.Node {
		for i, k := range n.Kids {
			n.Kids[i] = canon(k)
		}
		k := cseKey{op: n.Op, t: n.Type}
		switch n.Op {
		case ir.Const:
			// A constant carries its value in IVal or, for a floating
			// type, in FVal (ir.NewConst, ir.NewFConst). Floats are keyed
			// on their bits: +0.0 and -0.0 are different values, and a
			// NaN is the same value as itself.
			if k.payload = uint64(n.IVal); n.Type.IsFloat() {
				k.payload = math.Float64bits(n.FVal)
			}
		case ir.Addr:
			k.sym = n.Sym
		case ir.Frame, ir.Stack:
			// no extra key
		case ir.Reg:
			k.payload = uint64(uint32(n.Reg))<<32 | uint64(regVer[n.Reg])
		case ir.Load:
			k.a, k.payload = idOf(n.Kids[0]), memEpoch
		case ir.Add, ir.Sub, ir.Mul, ir.Div, ir.Rem, ir.Neg, ir.And, ir.Or,
			ir.Xor, ir.Not, ir.Shl, ir.Shr, ir.High, ir.Low, ir.Cmp,
			ir.Eq, ir.Ne, ir.Lt, ir.Le, ir.Gt, ir.Ge:
			k.a = idOf(n.Kids[0])
			if len(n.Kids) > 1 {
				k.b = idOf(n.Kids[1])
			}
		case ir.Cvt:
			k.a, k.from = idOf(n.Kids[0]), n.From
		default:
			// Side-effecting or control nodes are never shared.
			return n
		}
		if prev, ok := memo[k]; ok {
			return prev
		}
		memo[k] = n
		return n
	}

	for _, s := range b.Stmts {
		for i, k := range s.Kids {
			s.Kids[i] = canon(k)
		}
		switch s.Op {
		case ir.Asgn:
			regVer[s.Reg]++
		case ir.Store, ir.Call:
			memEpoch++
		}
	}
	b.CountParents()
}
