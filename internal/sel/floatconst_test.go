package sel

import (
	"math"
	"testing"

	"marion/internal/ir"
	"marion/internal/mach"
)

// TestFloatConstPatternMatchesBits: a floating constant in a pattern
// matches an IL constant of the same bits, as the IL itself tells
// constants apart. A 0.0 pattern must not capture -0, which it would
// then emit as +0.0, and a NaN pattern must match its own NaN although
// the two compare unequal as float64.
func TestFloatConstPatternMatchesBits(t *testing.T) {
	var slab ir.Slab
	negZero := math.Copysign(0, -1)
	otherNaN := math.Float64frombits(math.Float64bits(math.NaN()) ^ 1)
	for _, c := range []struct {
		pattern float64
		node    *ir.Node
		want    bool
	}{
		{0, slab.FConst(ir.F64, 0), true},
		{0, slab.FConst(ir.F64, negZero), false},
		{negZero, slab.FConst(ir.F64, negZero), true},
		{negZero, slab.FConst(ir.F64, 0), false},
		{math.NaN(), slab.FConst(ir.F64, math.NaN()), true},
		{math.NaN(), slab.FConst(ir.F64, otherNaN), false},
		{1.5, slab.FConst(ir.F32, 1.5), true},
		{0, slab.Const(ir.I32, 0), false},
	} {
		var s selector
		p := &mach.Sem{Kind: mach.SemConst, FVal: c.pattern, IsFloat: true}
		if got := s.matchSem(p, c.node, nil, nil); got != c.want {
			t.Errorf("pattern %v (bits %#x) against %s (bits %#x): matched %v, want %v",
				c.pattern, math.Float64bits(c.pattern), c.node, uint64(c.node.IVal), got, c.want)
		}
	}
}
