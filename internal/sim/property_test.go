package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"marion/internal/driver"
	"marion/internal/strategy"
)

// exprGen generates a random C integer expression over variables a and b
// together with a Go evaluator of the same expression, avoiding division
// by values that may be zero.
type exprGen struct {
	rng *rand.Rand
}

type genExpr struct {
	src  string
	eval func(a, b int32) int32
}

func (g *exprGen) gen(depth int) genExpr {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		switch g.rng.Intn(3) {
		case 0:
			return genExpr{"a", func(a, b int32) int32 { return a }}
		case 1:
			return genExpr{"b", func(a, b int32) int32 { return b }}
		default:
			v := int32(g.rng.Intn(2001) - 1000)
			return genExpr{fmt.Sprint(v), func(a, b int32) int32 { return v }}
		}
	}
	l := g.gen(depth - 1)
	r := g.gen(depth - 1)
	switch g.rng.Intn(8) {
	case 0:
		return genExpr{"(" + l.src + " + " + r.src + ")",
			func(a, b int32) int32 { return l.eval(a, b) + r.eval(a, b) }}
	case 1:
		return genExpr{"(" + l.src + " - " + r.src + ")",
			func(a, b int32) int32 { return l.eval(a, b) - r.eval(a, b) }}
	case 2:
		return genExpr{"(" + l.src + " * " + r.src + ")",
			func(a, b int32) int32 { return l.eval(a, b) * r.eval(a, b) }}
	case 3:
		return genExpr{"(" + l.src + " & " + r.src + ")",
			func(a, b int32) int32 { return l.eval(a, b) & r.eval(a, b) }}
	case 4:
		return genExpr{"(" + l.src + " | " + r.src + ")",
			func(a, b int32) int32 { return l.eval(a, b) | r.eval(a, b) }}
	case 5:
		return genExpr{"(" + l.src + " ^ " + r.src + ")",
			func(a, b int32) int32 { return l.eval(a, b) ^ r.eval(a, b) }}
	case 6:
		sh := g.rng.Intn(5)
		return genExpr{fmt.Sprintf("(%s << %d)", l.src, sh),
			func(a, b int32) int32 { return l.eval(a, b) << uint(sh) }}
	default:
		return genExpr{"(" + l.src + " > " + r.src + " ? " + l.src + " : " + r.src + ")",
			func(a, b int32) int32 {
				if l.eval(a, b) > r.eval(a, b) {
					return l.eval(a, b)
				}
				return r.eval(a, b)
			}}
	}
}

// TestPropertyRandomExpressions compiles random integer expressions for
// every target and strategy combination and checks the simulated result
// against a Go evaluation of the same expression.
func TestPropertyRandomExpressions(t *testing.T) {
	rng := rand.New(rand.NewSource(20260704))
	g := &exprGen{rng: rng}
	targetsList := []string{"toyp", "r2000", "m88000", "i860"}
	strategies := []strategy.Kind{strategy.Postpass, strategy.IPS, strategy.Naive}

	for trial := 0; trial < 24; trial++ {
		e := g.gen(3 + rng.Intn(2))
		src := fmt.Sprintf("int f(int a, int b) { return %s; }", e.src)
		target := targetsList[trial%len(targetsList)]
		strat := strategies[trial%len(strategies)]

		c, err := driver.Compile(target, "c", "prop.c", src, driver.Config{Strategy: strat})
		if err != nil {
			t.Fatalf("trial %d (%s/%s): compile %s: %v", trial, target, strat, src, err)
		}
		s := New(c.Prog, Options{})
		for pair := 0; pair < 4; pair++ {
			a := int32(rng.Intn(4001) - 2000)
			b := int32(rng.Intn(4001) - 2000)
			st, err := s.Run("f", Int(int64(a)), Int(int64(b)))
			if err != nil {
				t.Fatalf("trial %d: run: %v\n%s", trial, err, src)
			}
			want := e.eval(a, b)
			if int32(st.RetI) != want {
				t.Fatalf("trial %d (%s/%s): f(%d,%d) = %d, want %d\nexpr: %s",
					trial, target, strat, a, b, st.RetI, want, e.src)
			}
		}
	}
}

// TestPropertyRandomDoubleExpressions does the same for floating point.
func TestPropertyRandomDoubleExpressions(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	type dexpr struct {
		src  string
		eval func(x, y float64) float64
	}
	var gen func(d int) dexpr
	gen = func(d int) dexpr {
		if d <= 0 || rng.Intn(3) == 0 {
			switch rng.Intn(3) {
			case 0:
				return dexpr{"x", func(x, y float64) float64 { return x }}
			case 1:
				return dexpr{"y", func(x, y float64) float64 { return y }}
			default:
				v := float64(rng.Intn(64)) * 0.25
				return dexpr{fmt.Sprintf("%.2f", v), func(x, y float64) float64 { return v }}
			}
		}
		l, r := gen(d-1), gen(d-1)
		switch rng.Intn(3) {
		case 0:
			return dexpr{"(" + l.src + " + " + r.src + ")",
				func(x, y float64) float64 { return l.eval(x, y) + r.eval(x, y) }}
		case 1:
			return dexpr{"(" + l.src + " - " + r.src + ")",
				func(x, y float64) float64 { return l.eval(x, y) - r.eval(x, y) }}
		default:
			return dexpr{"(" + l.src + " * " + r.src + ")",
				func(x, y float64) float64 { return l.eval(x, y) * r.eval(x, y) }}
		}
	}
	for trial := 0; trial < 16; trial++ {
		e := gen(3)
		if !strings.ContainsAny(e.src, "xy") {
			continue
		}
		src := fmt.Sprintf("double f(double x, double y) { return %s; }", e.src)
		target := []string{"toyp", "r2000", "m88000", "i860"}[trial%4]
		c, err := driver.Compile(target, "c", "prop.c", src, driver.Config{Strategy: strategy.Postpass})
		if err != nil {
			t.Fatalf("trial %d (%s): %v\n%s", trial, target, err, src)
		}
		s := New(c.Prog, Options{})
		x, y := float64(rng.Intn(100))*0.5, float64(rng.Intn(100))*0.25
		st, err := s.Run("f", Float64(x), Float64(y))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if want := e.eval(x, y); st.RetF != want {
			t.Fatalf("trial %d (%s): f(%v,%v) = %v, want %v\nexpr: %s",
				trial, target, x, y, st.RetF, want, e.src)
		}
	}
}
