package ir_test

import (
	"math/rand"
	"testing"

	"marion/internal/cc"
	"marion/internal/ilgen"
	"marion/internal/ir"
)

// cseSource has textually repeated pure subexpressions, so ilgen's
// local CSE produces multi-parent DAG nodes.
const cseSource = `
int g;
int f(int a, int b) {
    int x;
    int y;
    x = (a + b) * (a + b);
    y = (a + b) * 3 + g;
    return x + y + g;
}
`

func lowerCSE(t *testing.T) *ir.Func {
	t.Helper()
	file, err := cc.Compile("cse.c", cseSource)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := ilgen.Lower(file)
	if err != nil {
		t.Fatal(err)
	}
	fn := mod.Lookup("f")
	if fn == nil {
		t.Fatal("no function f")
	}
	// The tests below are vacuous unless CSE actually shared a subtree.
	shared := false
	for _, b := range fn.Blocks {
		b.CountParents()
		walkNodes(b.Stmts, func(n *ir.Node) {
			if n.Parents > 1 {
				shared = true
			}
		})
	}
	if !shared {
		t.Fatal("expected a CSE-shared node in lowered IR")
	}
	return fn
}

func walkNodes(roots []*ir.Node, fn func(*ir.Node)) {
	seen := map[*ir.Node]bool{}
	var walk func(n *ir.Node)
	walk = func(n *ir.Node) {
		if n == nil || seen[n] {
			return
		}
		seen[n] = true
		fn(n)
		for _, k := range n.Kids {
			walk(k)
		}
	}
	for _, r := range roots {
		walk(r)
	}
}

// permuteNames rewrites every renumbering-freedom the fingerprint must
// be invariant under: block IDs (label names), pseudo-register numbers
// (with the Regs table and all references permuted consistently), the
// function's own name, and cosmetic register/local names.
func permuteNames(fn *ir.Func, rng *rand.Rand) {
	// Block label names: new unique IDs.
	base := 100 + rng.Intn(1000)
	order := rng.Perm(len(fn.Blocks))
	for i, b := range fn.Blocks {
		b.ID = base + order[i]
	}

	// Pseudo-register renumbering: old id r becomes perm[r].
	perm := rng.Perm(len(fn.Regs))
	newRegs := make([]ir.RegInfo, len(fn.Regs))
	for old, ri := range fn.Regs {
		ri.Name = ""
		newRegs[perm[old]] = ri
	}
	fn.Regs = newRegs
	remap := func(r ir.RegID) ir.RegID {
		if r == ir.NoReg {
			return ir.NoReg
		}
		return ir.RegID(perm[r])
	}
	for i, r := range fn.ParamRegs {
		fn.ParamRegs[i] = remap(r)
	}
	for _, b := range fn.Blocks {
		walkNodes(b.Stmts, func(n *ir.Node) {
			if n.Op == ir.Reg || n.Op == ir.Asgn {
				n.Reg = remap(n.Reg)
			}
		})
	}

	fn.Name = fn.Name + "_renamed"
}

// Satellite hardening: fingerprints must be stable under block-label and
// virtual-register renumbering (a correctness precondition for the
// compilation cache, whose hits rebind cached code onto the current IR).
func TestFingerprintStableUnderRenumbering(t *testing.T) {
	orig := lowerCSE(t)
	want := orig.Fingerprint()
	if want == (ir.Digest{}) {
		t.Fatal("zero digest")
	}
	for seed := int64(0); seed < 25; seed++ {
		fn := orig.Clone()
		permuteNames(fn, rand.New(rand.NewSource(seed)))
		if got := fn.Fingerprint(); got != want {
			t.Fatalf("seed %d: fingerprint changed under renumbering:\n got %s\nwant %s",
				seed, got, want)
		}
	}
}

// A semantic change (different constant) must change the digest.
func TestFingerprintSensitiveToSemantics(t *testing.T) {
	a := lowerCSE(t)
	b := lowerCSE(t)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("two lowerings of the same source differ")
	}
	// Mutate one constant somewhere.
	done := false
	for _, blk := range b.Blocks {
		walkNodes(blk.Stmts, func(n *ir.Node) {
			if !done && n.Op == ir.Const && !n.Type.IsFloat() {
				n.IVal += 7
				done = true
			}
		})
	}
	if !done {
		t.Fatal("no constant to mutate")
	}
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("constant change did not change fingerprint")
	}
}

// DAG sharing is semantic for the back end (shared values are forced
// into registers), so a shared subtree must fingerprint differently
// from an unshared but structurally equal tree.
func TestFingerprintSensitiveToSharing(t *testing.T) {
	var slab ir.Slab
	build := func(share bool) *ir.Func {
		fn := ir.NewFunc("f", ir.I32)
		var cfg ir.CFG
		cfg.Begin(fn)
		r0 := cfg.NewReg(ir.I32, "a")
		r1 := cfg.NewReg(ir.I32, "b")
		dst := cfg.NewReg(ir.I32, "x")
		cfg.Start(cfg.NewBlock(), 0)
		mk := func() *ir.Node {
			return slab.New(ir.Mul, ir.I32, slab.Reg(ir.I32, r0), slab.Reg(ir.I32, r1))
		}
		l := mk()
		r := mk()
		if share {
			r = l
		}
		sum := slab.New(ir.Add, ir.I32, l, r)
		cfg.Append(&ir.Node{Op: ir.Asgn, Type: ir.I32, Reg: dst, Kids: []*ir.Node{sum}}, slab.New(ir.Ret, ir.Void))
		return finish(fn, &cfg, &slab)
	}
	if build(true).Fingerprint() == build(false).Fingerprint() {
		t.Fatal("shared DAG and unshared tree fingerprint equal")
	}
}

// Regression for the degradation ladder: a CSE'd function must clone to
// an identical fingerprint — Clone preserving DAG sharing means a
// fallback attempt schedules exactly the tree the primary attempt did.
func TestCloneKeepsFingerprint(t *testing.T) {
	fn := lowerCSE(t)
	want := fn.Fingerprint()
	c := fn.Clone()
	if got := c.Fingerprint(); got != want {
		t.Fatalf("Func.Clone changed fingerprint:\n got %s\nwant %s", got, want)
	}
	// Twice removed, still identical.
	if got := c.Clone().Fingerprint(); got != want {
		t.Fatalf("double clone changed fingerprint: %s", got)
	}
}

// Node.Clone must preserve sharing within the cloned expression DAG.
func TestNodeCloneKeepsSharing(t *testing.T) {
	var slab ir.Slab
	shared := slab.New(ir.Mul, ir.I32, slab.Reg(ir.I32, 0), slab.Reg(ir.I32, 1))
	sum := slab.New(ir.Add, ir.I32, shared, shared)
	c := sum.Clone()
	if c.Kids[0] != c.Kids[1] {
		t.Fatal("Node.Clone un-shared a common subexpression")
	}
	if c.Kids[0] == shared {
		t.Fatal("Node.Clone aliased the original")
	}
}
