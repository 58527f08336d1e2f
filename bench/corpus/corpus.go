// Package corpus generates the benchmark's inputs: translation units in
// Marion's C subset or its textual IL, cycled over the paper's three
// targets and three integrated strategies.
//
// A unit is a text with holes. Every generated function carries exactly
// one hole, a double literal, and filling it with a value no other
// function of the run has makes that function's ir.Func.Fingerprint
// unique (the compilation cache is per function and rename-invariant,
// so perturbing one function of a unit would leave the others hitting).
// The literal reaches the back end as a float-pool global, so its value
// changes the fingerprint and the emitted data directive and nothing
// else: the SHAPE of every unit is fixed by the constants in this file,
// and the seed drives only the literal values (and, in the harness, the
// order of operations). That is deliberate — timings and the exact
// code-quality counts must be comparable across seeds.
package corpus

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"marion/internal/driver"
	"marion/internal/iltext"
	"marion/internal/ir"
	"marion/internal/livermore"
)

// Config is one (target, strategy) pair.
type Config struct {
	Target   string
	Strategy string
}

// Configs are the paper's targets × the strategies that both schedule
// and allocate: the nine code generators every workload cycles over.
var Configs = func() []Config {
	var out []Config
	for _, t := range Targets() {
		for _, s := range []string{"postpass", "ips", "rase"} {
			out = append(out, Config{t, s})
		}
	}
	return out
}()

// Reproducible reports whether two compiles of the same input under cfg
// produce the same bytes. They should, always; at the commit that
// introduced this benchmark they do not on i860: sched.Run places the
// outstanding temporal groups of the explicitly advanced pipelines in Go
// map order (for k0, grp := range pending), so the two halves of a
// dual-issue pair swap places (Livermore kernels 7 to 9), and on longer
// floating-point blocks the schedule itself and its estimated cycles
// vary by a cycle or two.
// Spill and instruction counts were identical in every variant seen.
// The harness therefore compares i860 output by shape rather than by
// digest and keeps i860 big blocks out of the exact code-quality counts.
// When the scheduler is made deterministic, make this return true.
func Reproducible(cfg Config) bool { return cfg.Target != "i860" }

// Targets lists the distinct targets of Configs.
func Targets() []string { return []string{"r2000", "m88000", "i860"} }

// Unit is one translation unit: text with one literal hole per
// generated function (fixed units — Livermore, examples/c — have none).
type Unit struct {
	Name  string // file name, also sent with a service request
	Lang  string // "c" or "il"
	Funcs int
	// Stmts is the straight-line statement count of a big-block unit's
	// functions, 0 for every other template.
	Stmts int

	parts []string // text around the holes: len(parts) == holes+1
	base  int      // index of this unit's first hole within its Corpus
}

// Holes is the number of literal holes in the unit.
func (u *Unit) Holes() int { return len(u.parts) - 1 }

// Corpus is an ordered set of units sharing one hole numbering, so a
// (seed, pass) pair names one literal per hole and no two holes of a
// run ever receive the same one.
type Corpus struct {
	Units []*Unit
	holes int
}

func newCorpus(units []*Unit) *Corpus {
	c := &Corpus{Units: units}
	for _, u := range units {
		u.base = c.holes
		c.holes += u.Holes()
	}
	return c
}

// Funcs is the number of functions in one pass over the corpus with a
// single configuration.
func (c *Corpus) Funcs() int {
	n := 0
	for _, u := range c.Units {
		n += u.Funcs
	}
	return n
}

// literalSpan bounds the hole counter: 9 decimal digits.
const literalSpan = 1_000_000_000

// Literal is the text that fills hole number id of a run with the given
// seed: "1." followed by four seed digits and nine counter digits.
// Fourteen significant digits stay below a double's fifteen-digit
// round-trip guarantee, so distinct (seed mod 10^4, id) pairs are
// distinct doubles, all inside (1, 2): never 0 or 1, which a back end
// may special-case.
func Literal(seed int64, id int) string {
	s := seed % 10000
	if s < 0 {
		s += 10000
	}
	// id+1 keeps the fraction non-zero: "1.0000000000000" would be 1.
	return fmt.Sprintf("1.%04d%09d", s, (id+1)%literalSpan)
}

// Source renders unit u for the given seed and pass. Pass 0 is the
// unperturbed corpus; every further pass moves each hole to a literal
// no earlier pass used. variant distinguishes renderings of the same
// (unit, pass) that must still differ — the service workloads send each
// unit under nine configurations, and although the configuration is
// part of the cache key, keeping the sources distinct as well means a
// hit can only ever come from a deliberate repeat.
func (c *Corpus) Source(u *Unit, seed int64, pass, variant int) string {
	if u.Holes() == 0 {
		return u.parts[0]
	}
	var b strings.Builder
	stride := c.holes * len(Configs)
	first := pass*stride + variant*c.holes + u.base
	for h, p := range u.parts[:len(u.parts)-1] {
		b.WriteString(p)
		b.WriteString(Literal(seed, first+h))
	}
	b.WriteString(u.parts[len(u.parts)-1])
	return b.String()
}

// ---------------------------------------------------------------------
// C templates
// ---------------------------------------------------------------------

// cgen builds one C unit, splitting the text at every hole.
type cgen struct {
	b     strings.Builder
	parts []string
	shape *rand.Rand // fixed per unit: decides structure, never values
	funcs int
	leafs []string // leaf functions defined so far, callable by later ones
}

func newCgen(shapeSeed int64) *cgen {
	return &cgen{shape: rand.New(rand.NewSource(shapeSeed))}
}

func (g *cgen) f(format string, args ...interface{}) { fmt.Fprintf(&g.b, format, args...) }

// hole ends the current part; the literal lands here.
func (g *cgen) hole() {
	g.parts = append(g.parts, g.b.String())
	g.b.Reset()
}

func (g *cgen) unit(name string) *Unit {
	return &Unit{Name: name, Lang: "c", Funcs: g.funcs,
		parts: append(g.parts, g.b.String())}
}

// fixedLits are shape constants: shared freely between functions, they
// add float-pool entries without adding holes.
var fixedLits = []string{"0.5", "0.25", "1.5", "2.5", "0.125", "3.0"}

func (g *cgen) fixed() string { return fixedLits[g.shape.Intn(len(fixedLits))] }

func (g *cgen) op() string { return []string{"+", "-", "*"}[g.shape.Intn(3)] }

// leaf emits a small call-free arithmetic function.
func (g *cgen) leaf() {
	name := fmt.Sprintf("leaf%d", g.funcs)
	g.funcs++
	g.f("double %s(double x, double y) {\n    double t = x %s y * ", name, g.op())
	g.hole()
	g.f(";\n")
	for i, n := 0, 1+g.shape.Intn(3); i < n; i++ {
		g.f("    t = (t %s x) %s (y %s %s);\n", g.op(), g.op(), g.op(), g.fixed())
	}
	g.f("    return t;\n}\n\n")
	g.leafs = append(g.leafs, name)
}

// loop emits a Livermore-shaped kernel: one or two nested counted loops
// over global arrays with a short floating-point body.
func (g *cgen) loop() {
	id := g.funcs
	g.funcs++
	g.f("double la%d[128], lb%d[128];\n", id, id)
	nested := g.shape.Intn(3) == 0
	if nested {
		g.f("double loop%d(int n) {\n    int i, j;\n    double s = ", id)
	} else {
		g.f("double loop%d(int n) {\n    int i;\n    double s = ", id)
	}
	g.hole()
	g.f(", q = %s;\n", g.fixed())
	if nested {
		g.f("    for (j = 0; j < 4; j++)\n")
	}
	g.f("    for (i = 1; i < n; i++) {\n")
	for k, n := 0, 1+g.shape.Intn(3); k < n; k++ {
		switch g.shape.Intn(4) {
		case 0:
			g.f("        s = s %s la%d[i] * lb%d[i];\n", g.op(), id, id)
		case 1:
			g.f("        la%d[i] = q %s lb%d[i] * (s %s la%d[i - 1]);\n", id, g.op(), id, g.op(), id)
		case 2:
			g.f("        lb%d[i] = la%d[i] * %s %s q;\n", id, id, g.fixed(), g.op())
		default:
			g.f("        q = q * %s + lb%d[i - 1];\n", g.fixed(), id)
		}
	}
	g.f("    }\n    return s + q;\n}\n\n")
}

// branchy emits a function of compare-and-branch chains that calls the
// unit's leaf functions, so calls, delay slots and both branch
// directions are on the path.
func (g *cgen) branchy() {
	id := g.funcs
	g.funcs++
	call := func(a, b string) string {
		if len(g.leafs) == 0 {
			return fmt.Sprintf("(%s * %s)", a, b)
		}
		return fmt.Sprintf("%s(%s, %s)", g.leafs[g.shape.Intn(len(g.leafs))], a, b)
	}
	g.f("double br%d(double x, int n) {\n    double r = ", id)
	g.hole()
	g.f(";\n")
	for k, n := 0, 2+g.shape.Intn(3); k < n; k++ {
		switch g.shape.Intn(3) {
		case 0:
			g.f("    if (x < r) r = %s; else r = r %s %s;\n", call("x", "r"), g.op(), g.fixed())
		case 1:
			g.f("    if (n > %d) { r = r %s x; n = n - 1; } else if (n < 0) return r;\n", 1+g.shape.Intn(9), g.op())
		default:
			g.f("    while (n > %d) { r = %s; n = n - 2; }\n", 10+g.shape.Intn(20), call("r", g.fixed()))
		}
	}
	g.f("    return r %s %s;\n}\n\n", g.op(), call("x", "r"))
}

// bigBlock emits a function whose body is one straight-line block of
// stmts floating-point statements over vars simultaneously live
// doubles: long code DAGs for the scheduler, and more live values than
// any target has double registers for, so the allocator spills and
// iterates.
func (g *cgen) bigBlock(stmts, vars int) {
	id := g.funcs
	g.funcs++
	g.f("double gb%d[%d];\n", id, vars)
	g.f("double big%d(double *p) {\n", id)
	for v := 0; v < vars; v++ {
		g.f("    double v%d = p[%d];\n", v, v)
	}
	g.f("    v0 = v0 * ")
	g.hole()
	g.f(";\n")
	pick := func() string { return fmt.Sprintf("v%d", g.shape.Intn(vars)) }
	for s := 1; s < stmts; s++ {
		// Destinations rotate so every variable stays live to the end.
		switch s % 4 {
		case 0:
			g.f("    v%d = %s %s %s %s %s;\n", s%vars, pick(), g.op(), pick(), g.op(), g.fixed())
		case 2:
			g.f("    v%d = %s %s %s %s %s;\n", s%vars, pick(), g.op(), pick(), g.op(), pick())
		default:
			g.f("    v%d = %s %s %s;\n", s%vars, pick(), g.op(), pick())
		}
	}
	for v := 0; v < vars; v++ {
		g.f("    gb%d[%d] = v%d;\n", id, v, v)
	}
	g.f("    return v0")
	for v := 1; v < vars; v++ {
		g.f(" + v%d", v)
	}
	g.f(";\n}\n\n")
}

// mixedUnit builds a unit of n functions: leaves first (so later
// functions can call them), then loops and branchy functions.
func mixedUnit(name string, n int, shapeSeed int64) *Unit {
	g := newCgen(shapeSeed)
	leaves := n / 4
	for i := 0; i < leaves; i++ {
		g.leaf()
	}
	for g.funcs < n {
		if g.shape.Intn(5) < 3 {
			g.loop()
		} else {
			g.branchy()
		}
	}
	return g.unit(name)
}

// ---------------------------------------------------------------------
// The corpora
// ---------------------------------------------------------------------

// Loops is the paper's own workload: the fourteen Livermore kernels
// plus the shipped examples/c sources (read from root, the repository
// checkout). The units are fixed text: no holes, no seed.
func Loops(root string) (*Corpus, error) {
	var units []*Unit
	for i := range livermore.Kernels {
		k := &livermore.Kernels[i]
		units = append(units, &Unit{
			Name: fmt.Sprintf("loop%d.c", k.ID), Lang: "c", Funcs: 2,
			parts: []string{k.Source},
		})
	}
	files, err := filepath.Glob(filepath.Join(root, "examples", "c", "*.c"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("corpus: no examples/c/*.c under %s", root)
	}
	sort.Strings(files)
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		mod, err := driver.Frontend(filepath.Base(f), string(src))
		if err != nil {
			return nil, fmt.Errorf("corpus: %s: %w", f, err)
		}
		units = append(units, &Unit{
			Name: "examples/c/" + filepath.Base(f), Lang: "c", Funcs: len(mod.Funcs),
			parts: []string{string(src)},
		})
	}
	return newCorpus(units), nil
}

// bigSpec describes one big-block unit.
type bigSpec struct {
	stmts, funcs, vars int
	shape              int64
}

// bigSpecs is the big-block workload. The mix leans on the short blocks
// so that a pass stays near a second and a twenty-second run still has
// the 1100 operations a 99th percentile needs. The longest block — where
// code-DAG construction and the ready-list scan turn super-linear, most
// of all on i860 — appears twice with the same shape, so its most
// expensive configuration is 2 of 108 operations and the 99th
// percentile falls inside that class instead of on the boundary between
// two. 64 statements is the cap: a 96-statement block costs five times
// as much on i860 and, under rase, reaches the half second no single op
// may exceed.
var bigSpecs = []bigSpec{
	{24, 1, 8, 1}, {24, 2, 9, 2}, {24, 1, 10, 3}, {40, 2, 11, 4},
	{24, 1, 12, 5}, {24, 2, 8, 6}, {40, 1, 9, 7}, {24, 2, 10, 8},
	{64, 1, 11, 9}, {40, 2, 12, 10}, {24, 1, 8, 11}, {64, 1, 11, 9},
}

// BigBlocks is the long-basic-block workload: one- and two-function
// units whose bodies are single straight-line blocks of 24, 40 or 64
// statements over 8 to 12 live doubles.
func BigBlocks() *Corpus {
	var units []*Unit
	for i, sp := range bigSpecs {
		g := newCgen(1000 + sp.shape)
		for f := 0; f < sp.funcs; f++ {
			g.bigBlock(sp.stmts, sp.vars)
		}
		u := g.unit(fmt.Sprintf("big%d_%d.c", sp.stmts, i))
		u.Stmts = sp.stmts
		units = append(units, u)
	}
	return newCorpus(units)
}

// serveCSizes and serveILSizes are the function counts of the service
// corpus's synthetic units; the Livermore suite module (28 functions)
// joins the IL side. Sizes stay at 8 or more so an operation costs
// milliseconds rather than the loopback round trip.
var (
	serveCSizes  = []int{8, 10, 12, 14, 16, 20}
	serveILSizes = []int{8, 12}
)

// Serve is the service corpus: C units and textual-IL units of 8 to 28
// functions, alternating.
func Serve() (*Corpus, error) {
	var cUnits, ilUnits []*Unit
	for i, n := range serveCSizes {
		cUnits = append(cUnits, mixedUnit(fmt.Sprintf("mix%d_%d.c", n, i), n, int64(2000+i)))
	}
	suite, err := livermore.SuiteModule()
	if err != nil {
		return nil, err
	}
	u, err := ilUnit("livermore-suite.il", suite)
	if err != nil {
		return nil, err
	}
	ilUnits = append(ilUnits, u)
	for i, n := range serveILSizes {
		name := fmt.Sprintf("mix%d_%d.il", n, i)
		cu := mixedUnit(name, n, int64(3000+i))
		mod, err := driver.Frontend(name, newCorpus([]*Unit{cu}).Source(cu, 0, 0, 0))
		if err != nil {
			return nil, fmt.Errorf("corpus: %s: %w", name, err)
		}
		u, err := ilUnit(name, mod)
		if err != nil {
			return nil, err
		}
		ilUnits = append(ilUnits, u)
	}
	var units []*Unit
	for len(cUnits)+len(ilUnits) > 0 {
		if len(cUnits) > 0 {
			units, cUnits = append(units, cUnits[0]), cUnits[1:]
		}
		if len(ilUnits) > 0 {
			units, ilUnits = append(units, ilUnits[0]), ilUnits[1:]
		}
	}
	return newCorpus(units), nil
}

// ilUnit prints a lowered module as a textual-IL unit whose holes are
// its float-pool constants: each pool global is set to a sentinel
// value, the module is printed once, and the text is split where the
// sentinels landed. It fails if some function references no pool
// constant, because that function could not be made unique.
func ilUnit(name string, mod *ir.Module) (*Unit, error) {
	pool := map[*ir.Sym]bool{}
	var sentinels []string
	for _, g := range mod.Globals {
		if g.Kind == ir.SymGlobal && strings.HasPrefix(g.Name, ".fc") && len(g.InitF) == 1 {
			lit := Literal(9999, len(sentinels))
			v, err := strconv.ParseFloat(lit, 64)
			if err != nil {
				return nil, err
			}
			g.InitF[0] = v
			pool[g] = true
			sentinels = append(sentinels, " initf "+strconv.FormatFloat(v, 'g', -1, 64)+"\n")
		}
	}
	for _, fn := range mod.Funcs {
		if !refsAny(fn, pool) {
			return nil, fmt.Errorf("corpus: %s: function %s has no float constant to perturb", name, fn.Name)
		}
	}
	text := iltext.Print(mod)
	u := &Unit{Name: name, Lang: "il", Funcs: len(mod.Funcs)}
	for _, s := range sentinels {
		at := strings.Index(text, s)
		if at < 0 || strings.Count(text, s) != 1 {
			return nil, fmt.Errorf("corpus: %s: sentinel %q not found exactly once", name, strings.TrimSpace(s))
		}
		u.parts = append(u.parts, text[:at+len(" initf ")])
		text = text[at+len(s)-1:] // keep the newline
	}
	u.parts = append(u.parts, text)
	return u, nil
}

// refsAny reports whether fn addresses any symbol of the set.
func refsAny(fn *ir.Func, set map[*ir.Sym]bool) bool {
	seen := map[*ir.Node]bool{}
	var walk func(n *ir.Node) bool
	walk = func(n *ir.Node) bool {
		if n == nil || seen[n] {
			return false
		}
		seen[n] = true
		if n.Op == ir.Addr && set[n.Sym] {
			return true
		}
		for _, k := range n.Kids {
			if walk(k) {
				return true
			}
		}
		return false
	}
	for _, b := range fn.Blocks {
		for _, s := range b.Stmts {
			if walk(s) {
				return true
			}
		}
	}
	return false
}
