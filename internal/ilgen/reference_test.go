package ilgen

import "marion/internal/ir"

// The corpus differential lives in package ilgen_test (it needs
// internal/livermore, which imports this package); these are its doors
// to the pass and to the oracle.
var ReferenceCSE = referenceCSE

// CSETable is the pass's table, which Lower keeps for a whole unit.
type CSETable = cseTable

// CSEFunc value-numbers blocks as the blocks of one function with regs
// pseudo-registers, on t as Lower does.
func CSEFunc(t *CSETable, blocks []*ir.Block, regs int) {
	t.function(regs)
	for _, b := range blocks {
		t.block(b)
	}
}

// referenceCSE is the pass as it stood before its key was narrowed and
// its tables sized: maps for the node ids and the register versions, an
// 80-byte key holding a constant's float64 as such (so +0.0 and -0.0
// are one value and a NaN is never shared), every map grown by
// doubling. It is the oracle cseTable is compared against.
func referenceCSE(b *ir.Block) {
	type key struct {
		op       ir.Op
		t        ir.Type
		from     ir.Type
		a, b     int // canonical ids of kids (0 = none)
		ival     int64
		fval     float64
		sym      *ir.Sym
		reg      ir.RegID
		regVer   int
		memEpoch int
	}
	ids := map[*ir.Node]int{}
	nextID := 1
	idOf := func(n *ir.Node) int {
		if i, ok := ids[n]; ok {
			return i
		}
		ids[n] = nextID
		nextID++
		return nextID - 1
	}
	memo := map[key]*ir.Node{}
	regVer := map[ir.RegID]int{}
	memEpoch := 0

	var canon func(n *ir.Node) *ir.Node
	canon = func(n *ir.Node) *ir.Node {
		for i, k := range n.Kids {
			n.Kids[i] = canon(k)
		}
		var k key
		k.op, k.t = n.Op, n.Type
		switch n.Op {
		case ir.Const:
			if k.ival = n.IVal; n.Type.IsFloat() {
				k.ival, k.fval = 0, n.Float()
			}
		case ir.Addr:
			k.sym = n.Sym
		case ir.Frame, ir.Stack:
			// no extra key
		case ir.Reg:
			k.reg, k.regVer = n.Reg, regVer[n.Reg]
		case ir.Load:
			k.a, k.memEpoch = idOf(n.Kids[0]), memEpoch
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
		switch s.Op {
		case ir.Asgn:
			s.Kids[0] = canon(s.Kids[0])
			regVer[s.Reg]++
		case ir.Store:
			for i, k := range s.Kids {
				s.Kids[i] = canon(k)
			}
			memEpoch++
		case ir.Call:
			for i, k := range s.Kids {
				s.Kids[i] = canon(k)
			}
			memEpoch++
		default:
			for i, k := range s.Kids {
				s.Kids[i] = canon(k)
			}
		}
	}
	b.CountParents()
}
