// Package gentest is the one place the tests' units come from, as text:
// the golden corpus, the serve units and seeded high-pressure C bodies;
// the one reader of the digests tests pin their answers to (Pins); and
// the one counter the allocation budgets read (AllocsPerRun).
// It imports no back-end package, so any package's test can use it. A
// unit it cannot read is a broken checkout, not an input: it panics.
package gentest

import (
	"embed"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path"
	"path/filepath"
	"strings"
)

// Unit is one source text; Lang is its name's extension, the language
// driver.Lower takes: "c" for the C front end, "il" for textual IL.
type Unit struct{ Name, Lang, Text string }

// The fixtures: BigBlock holds straight-line blocks of 24 to 128
// statements (big24 ... big128), the long code DAGs the Livermore loops
// and examples/c lack; Pressure holds functions with 26 to 56 live values
// (pint32, pdbl30, pmixloop, pcall26, pdblloop36) that spill on every
// target, so the allocator's spill choice and order reach the digests;
// Regress holds one function per fixed miscompile, each returning a value
// its test states, and is in no digest.
const (
	BigBlock = "bigblock.c"
	Pressure = "pressure.c"
	Regress  = "regress.c"
)

//go:embed testdata
var fixtures embed.FS

// Golden returns examples/c/*.c in name order, then BigBlock and
// Pressure: with the Livermore suite, the units golden.sha256 pins.
func Golden() []Unit {
	units := read(os.DirFS(root()), "examples/c/*.c")
	return append(units, Fixture(BigBlock), Fixture(Pressure))
}

// Fixture returns the fixture named name: BigBlock, Pressure or Regress.
func Fixture(name string) Unit { return read(fixtures, "testdata/"+name)[0] }

// Serve returns the serve_cold templates at seed 1, C and IL, by name.
func Serve() []Unit { return read(fixtures, "testdata/serve/*") }

// Generated returns the first n bodies of one seeded stream, named
// gen0.c, gen1.c, ...: a smaller corpus is a prefix of a larger one.
func Generated(n int) []Unit {
	r := rand.New(rand.NewSource(1991))
	units := make([]Unit, n)
	for i := range units {
		units[i] = Unit{fmt.Sprintf("gen%d.c", i), "c", source(r, shapeFor(r))}
	}
	return units
}

// Live returns one function, f, that holds ints int values live across
// its whole body, named liveN.c: a unit small beside a request body's
// cap whose register allocation still grows tables of megabytes.
func Live(ints int) Unit {
	r := rand.New(rand.NewSource(1991))
	return Unit{fmt.Sprintf("live%d.c", ints), "c", source(r, shape{ints: ints, stmts: 16})}
}

// read returns the files each pattern matches, in name order.
func read(fsys fs.FS, patterns ...string) []Unit {
	var units []Unit
	for _, pattern := range patterns {
		names, err := fs.Glob(fsys, pattern)
		if err != nil || len(names) == 0 {
			panic(fmt.Sprintf("gentest: no file matches %s (%v)", pattern, err))
		}
		for _, name := range names {
			text, err := fs.ReadFile(fsys, name)
			if err != nil {
				panic(err)
			}
			units = append(units, Unit{path.Base(name), strings.TrimPrefix(path.Ext(name), "."), string(text)})
		}
	}
	return units
}

// root is the module root: the nearest directory holding go.mod above
// the working directory, which is a test's package directory.
func root() string {
	dir, _ := os.Getwd()
	for dir != filepath.Dir(dir) {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		dir = filepath.Dir(dir)
	}
	panic("gentest: no go.mod above the working directory")
}

// shape is one generated function's pressure profile.
type shape struct {
	ints, doubles int  // simultaneously live values of each type
	stmts         int  // statements in the body
	loop          bool // body inside one counted loop
}

// shapeFor draws a shape: 6-40 live values, biased towards the high
// end (a 24-register file only spills above ~26), all-int, all-double or
// an even mix.
func shapeFor(r *rand.Rand) shape {
	live := 6 + r.Intn(15)
	if r.Intn(10) < 7 {
		live = 28 + r.Intn(13)
	}
	s := shape{stmts: 8 + r.Intn(33), loop: r.Intn(2) == 0}
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

// source renders a function named f: every value is loaded from a
// global at the top and stored back at the bottom, so all of them are
// live across the whole body; the body (straight-line, or inside one
// loop) redefines random values from random others.
func source(r *rand.Rand, s shape) string {
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
