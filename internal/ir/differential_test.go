package ir_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"marion/internal/driver"
	"marion/internal/gentest"
	"marion/internal/ir"
	"marion/internal/livermore"
)

// corpus lowers Livermore, gentest.Golden (the functions golden.sha256
// pins) and the serve units, C and textual IL.
func corpus(t testing.TB) []*ir.Module {
	t.Helper()
	suite, err := livermore.SuiteModule()
	if err != nil {
		t.Fatal(err)
	}
	mods := []*ir.Module{suite}
	for _, u := range append(gentest.Golden(), gentest.Serve()...) {
		mod, err := driver.Lower(u.Lang, u.Name, u.Text)
		if err != nil {
			t.Fatalf("%s: %v", u.Name, err)
		}
		mods = append(mods, mod)
	}
	return mods
}

// callTwice is the one shape the C front end shares across statements:
// a call appended as a statement root and consumed as a value by a
// later one, so a root is also somebody's kid.
func callTwice() *ir.Func {
	fn := ir.NewFunc("f", ir.I32)
	var cfg ir.CFG
	cfg.Begin(fn)
	r := cfg.NewReg(ir.I32, "r")
	var slab ir.Slab
	arg := slab.New(ir.Add, ir.I32, slab.Reg(ir.I32, r), slab.Const(ir.I32, 1))
	call := &ir.Node{Op: ir.Call, Type: ir.I32, Sym: &ir.Sym{Name: "g", Kind: ir.SymFunc}, Kids: []*ir.Node{arg, arg}}
	cfg.Start(cfg.NewBlock(), 0)
	cfg.Append(call, &ir.Node{Op: ir.Asgn, Type: ir.I32, Reg: r, Kids: []*ir.Node{call}})
	cfg.Start(cfg.NewBlock(), 0)
	cfg.Append(&ir.Node{Op: ir.Ret, Type: ir.I32, Kids: []*ir.Node{slab.Reg(ir.I32, r)}})
	return finish(fn, &cfg, &slab)
}

// finish copies out fn, which cfg built and must be well formed.
func finish(fn *ir.Func, cfg *ir.CFG, slab *ir.Slab) *ir.Func {
	if err := cfg.Finish(slab, false); err != nil {
		panic(err)
	}
	return fn
}

// undeclared mentions a register its function never declared and a
// symbol-less address: IR only a test builds, which the streaming
// fingerprint hashed without complaint.
func undeclared() *ir.Func {
	fn := ir.NewFunc("f", ir.Void)
	fn.ParamRegs = []ir.RegID{ir.NoReg, 7}
	var cfg ir.CFG
	cfg.Begin(fn)
	cfg.Start(cfg.NewBlock(), 0)
	var slab ir.Slab
	cfg.Append(
		&ir.Node{Op: ir.Asgn, Type: ir.I32, Reg: 7, Kids: []*ir.Node{slab.Reg(ir.I32, 9)}},
		&ir.Node{Op: ir.Asgn, Type: ir.I32, Reg: 9, Kids: []*ir.Node{{Op: ir.Addr, Type: ir.Ptr}}},
		&ir.Node{Op: ir.Ret})
	return finish(fn, &cfg, &slab)
}

func corpusFuncs(t testing.TB) []*ir.Func {
	fns := []*ir.Func{callTwice(), undeclared()}
	for _, mod := range corpus(t) {
		fns = append(fns, mod.Funcs...)
	}
	return fns
}

// fnName names the i-th function of corpusFuncs in a pin line.
func fnName(i int, fn *ir.Func) string { return fmt.Sprintf("%d:%s", i, fn.Name) }

// The buffered, node-stamping Fingerprint hashes the byte stream the
// streaming one did: the digests — so the cache keys — the streaming
// one gave on the corpus, recorded in testdata/fingerprint.sha256, and
// the same digest on renumbered clones and on a second walk over nodes
// still carrying the first walk's stamps.
func TestFingerprintMatchesReference(t *testing.T) {
	fns := corpusFuncs(t)
	if len(fns) < 40 {
		t.Fatalf("corpus has only %d functions", len(fns))
	}
	pins := gentest.ReadPins(t, "testdata/fingerprint.sha256")
	line := gentest.NewLine("fingerprint")
	digests := map[string]ir.Digest{}
	seen := map[ir.Digest]string{}
	// One scratch for the whole corpus, as a pipeline worker keeps one:
	// every function after the first finds it holding the last one's
	// buffer, tables and maps.
	var scratch ir.FingerprintScratch
	for i, fn := range fns {
		want := fn.Fingerprint()
		line.Add(fnName(i, fn), want.String())
		digests[fnName(i, fn)] = want
		if got := fn.Fingerprint(); got != want {
			t.Fatalf("%s: second walk gave %s, want %s", fn.Name, got, want)
		}
		if got := scratch.Fingerprint(fn); got != want {
			t.Fatalf("%s: reused scratch gave %s, want %s", fn.Name, got, want)
		}
		seen[want] = fn.Name
		if fn.Name == "f" {
			continue // hand-built: permuteNames wants declared registers
		}
		c := fn.Clone()
		permuteNames(c, rand.New(rand.NewSource(int64(i))))
		if got := c.Fingerprint(); got != want {
			t.Fatalf("%s: renumbered clone: digest %s, original %s", fn.Name, got, want)
		}
		if got := scratch.Fingerprint(c); got != want {
			t.Fatalf("%s: renumbered clone on the reused scratch: digest %s, original %s", fn.Name, got, want)
		}
	}
	if name, ok := pins.Check(t, line.String()); !ok && name != "" {
		t.Errorf("%s: digest now %s", name, digests[name])
	}
	if len(seen) < len(fns)*3/4 {
		t.Fatalf("only %d distinct digests over %d functions", len(seen), len(fns))
	}
}

// parentCounts snapshots Node.Parents of every node reachable from the
// block, in walk order.
func parentCounts(b *ir.Block) []int {
	var out []int
	walkNodes(b.Stmts, func(n *ir.Node) { out = append(out, int(n.Parents)) })
	return out
}

// globals snapshots Reg.Global of every register after mark, from all
// false.
func globals(fn *ir.Func, mark func()) []bool {
	for i := range fn.Regs {
		fn.Regs[i].Global = false
	}
	mark()
	out := make([]bool, len(fn.Regs))
	for i := range fn.Regs {
		out[i] = fn.Regs[i].Global
	}
	return out
}

// CountParents and MarkGlobalRegs, with their visited sets on the
// nodes, compute what the map-based versions did, recorded in
// testdata/walks.sha256 — also on a function walked twice back to back,
// and between fingerprint walks.
func TestWalksMatchReference(t *testing.T) {
	pins := gentest.ReadPins(t, "testdata/walks.sha256")
	line := gentest.NewLine("walks")
	answers := map[string]string{}
	shared := 0
	for i, fn := range corpusFuncs(t) {
		var sb strings.Builder
		for _, b := range fn.Blocks {
			var want []int
			for round := 0; round < 2; round++ {
				walkNodes(b.Stmts, func(n *ir.Node) { n.Parents = -5 })
				b.CountParents()
				got := parentCounts(b)
				if round == 0 {
					want = got
				} else if !slices.Equal(got, want) {
					t.Fatalf("%s %s round %d: Parents %v, first walk %v", fn.Name, b.Name(), round, got, want)
				}
				fn.Fingerprint()
			}
			for _, p := range want {
				if p > 1 {
					shared++
				}
			}
			fmt.Fprintf(&sb, "%s parents %v\n", b.Name(), want)
		}
		var cfg ir.CFG
		mark := func() { cfg.MarkGlobalRegs(fn) }
		want := globals(fn, mark)
		if got := globals(fn, mark); !slices.Equal(got, want) {
			t.Fatalf("%s: globals %v on a second walk, %v on the first", fn.Name, got, want)
		}
		fmt.Fprintf(&sb, "global %v\n", want)
		line.Add(fnName(i, fn), sb.String())
		answers[fnName(i, fn)] = sb.String()
	}
	if name, ok := pins.Check(t, line.String()); !ok && name != "" {
		t.Errorf("%s now walks to\n%s", name, answers[name])
	}
	if shared == 0 {
		t.Fatal("corpus has no multi-parent node: the comparison is vacuous")
	}
}
