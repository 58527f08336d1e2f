// Package gentest generates seeded high-pressure C functions for the
// differential tests of the back end (register allocation, code-DAG
// protection, scheduling): bodies the golden corpus under-samples.
package gentest

import (
	"fmt"
	"math/rand"
	"strings"
)

// Shape is one generated function's pressure profile.
type Shape struct {
	ints, doubles int  // simultaneously live values of each type
	stmts         int  // statements in the body
	loop          bool // body inside one counted loop
}

// ShapeFor draws a shape: 6-40 live values, biased towards the high
// end (a 24-register file only spills above ~26), all-int, all-double or
// an even mix.
func ShapeFor(r *rand.Rand) Shape {
	live := 6 + r.Intn(15)
	if r.Intn(10) < 7 {
		live = 28 + r.Intn(13)
	}
	s := Shape{stmts: 8 + r.Intn(33), loop: r.Intn(2) == 0}
	switch r.Intn(5) {
	case 0, 1:
		s.ints = live
	case 2, 3:
		s.doubles = live
	default:
		s.ints = live / 2
		s.doubles = live - s.ints
	}
	return s
}

// Source renders a function named f: every value is loaded from a
// global at the top and stored back at the bottom, so all of them are
// live across the whole body; the body (straight-line, or inside one
// loop) redefines random values from random others.
func Source(r *rand.Rand, s Shape) string {
	var sb strings.Builder
	ops := []string{"+", "-", "*"}
	fmt.Fprintf(&sb, "int gi[%d];\ndouble gd[%d];\n", s.ints+1, s.doubles+1)
	ret := "int"
	if s.doubles > 0 {
		ret = "double"
	}
	fmt.Fprintf(&sb, "%s f(int n) {\n    int i;\n", ret)
	for k := 0; k < s.ints; k++ {
		fmt.Fprintf(&sb, "    int a%d = gi[%d];\n", k, k)
	}
	for k := 0; k < s.doubles; k++ {
		fmt.Fprintf(&sb, "    double b%d = gd[%d];\n", k, k)
	}
	indent := "    "
	if s.loop {
		sb.WriteString("    for (i = 0; i < n; i++) {\n")
		indent = "        "
	}
	for j := 0; j < s.stmts; j++ {
		v, cnt, konst := "a", s.ints, fmt.Sprint(1+r.Intn(9))
		if s.ints == 0 || s.doubles > 0 && r.Intn(s.ints+s.doubles) >= s.ints {
			v, cnt, konst = "b", s.doubles, []string{"0.5", "1.25", "3.0"}[r.Intn(3)]
		}
		fmt.Fprintf(&sb, "%s%s%d = %s%d %s %s%d", indent, v, r.Intn(cnt), v, r.Intn(cnt), ops[r.Intn(3)], v, r.Intn(cnt))
		switch r.Intn(4) {
		case 0:
			fmt.Fprintf(&sb, " %s %s%d", ops[r.Intn(3)], v, r.Intn(cnt))
		case 1:
			fmt.Fprintf(&sb, " %s %s", ops[r.Intn(2)], konst)
		}
		sb.WriteString(";\n")
	}
	if s.loop {
		sb.WriteString("    }\n")
	}
	for k := 0; k < s.ints; k++ {
		fmt.Fprintf(&sb, "    gi[%d] = a%d;\n", k, k)
	}
	for k := 0; k < s.doubles; k++ {
		fmt.Fprintf(&sb, "    gd[%d] = b%d;\n", k, k)
	}
	if s.doubles > 0 {
		sb.WriteString("    return b0;\n}\n")
	} else {
		sb.WriteString("    return a0;\n}\n")
	}
	return sb.String()
}
