package xform

import (
	"strings"
	"testing"

	"marion/internal/ir"
	"marion/internal/mach"
	"marion/internal/targets"
)

// finish lays out b holding stmts, then ret, which returns, and copies
// fn, which cfg has begun, out: it returns b as built.
func finish(t *testing.T, fn *ir.Func, cfg *ir.CFG, slab *ir.Slab, b, ret ir.BlockRef, stmts ...*ir.Node) *ir.Block {
	t.Helper()
	cfg.Start(b, 0)
	cfg.Append(stmts...)
	cfg.Start(ret, 0)
	cfg.Append(slab.New(ir.Ret, ir.Void))
	if err := cfg.Finish(slab, false); err != nil {
		t.Fatal(err)
	}
	return fn.Blocks[0]
}

func TestGlueRewritesCompareBranch(t *testing.T) {
	m, err := targets.Load("toyp")
	if err != nil {
		t.Fatal(err)
	}
	fn := ir.NewFunc("f", ir.Void)
	var cfg ir.CFG
	cfg.Begin(fn)
	ref := cfg.NewBlock()
	tgt := cfg.NewBlock()
	a := cfg.NewReg(ir.I32, "a")
	c := cfg.NewReg(ir.I32, "c")
	var slab ir.Slab
	cond := slab.New(ir.Lt, ir.I32, slab.Reg(ir.I32, a), slab.Reg(ir.I32, c))
	b := finish(t, fn, &cfg, &slab, ref, tgt, cfg.Branch(&slab, tgt, cond))
	Apply(m, fn)
	got := b.Stmts[0].String()
	if !strings.Contains(got, "::") {
		t.Errorf("glue did not expand compare: %s", got)
	}
	// Shape: if ((a :: c) < 0) goto ...
	rel := b.Stmts[0].Kids[0]
	if rel.Op != ir.Lt || rel.Kids[0].Op != ir.Cmp || rel.Kids[1].Op != ir.Const || rel.Kids[1].IVal != 0 {
		t.Errorf("rewritten condition wrong: %s", got)
	}
}

func TestGlueZeroGuardSuppressesRewrite(t *testing.T) {
	m, err := targets.Load("toyp")
	if err != nil {
		t.Fatal(err)
	}
	fn := ir.NewFunc("f", ir.Void)
	var cfg ir.CFG
	cfg.Begin(fn)
	ref := cfg.NewBlock()
	tgt := cfg.NewBlock()
	a := cfg.NewReg(ir.I32, "a")
	var slab ir.Slab
	cond := slab.New(ir.Eq, ir.I32, slab.Reg(ir.I32, a), slab.Const(ir.I32, 0))
	b := finish(t, fn, &cfg, &slab, ref, tgt, cfg.Branch(&slab, tgt, cond))
	Apply(m, fn)
	// Comparison against literal zero keeps the direct beq0 form.
	if b.Stmts[0].Kids[0].Op != ir.Eq || b.Stmts[0].Kids[0].Kids[0].Op == ir.Cmp {
		t.Errorf("zero compare should not be glued: %s", b.Stmts[0])
	}
}

func TestGlueBigConstantSplit(t *testing.T) {
	var slab ir.Slab
	m, err := targets.Load("toyp")
	if err != nil {
		t.Fatal(err)
	}
	fn := ir.NewFunc("f", ir.Void)
	var cfg ir.CFG
	cfg.Begin(fn)
	ref := cfg.NewBlock()
	d := cfg.NewReg(ir.I32, "d")
	b := finish(t, fn, &cfg, &slab, ref, cfg.NewBlock(),
		&ir.Node{Op: ir.Asgn, Type: ir.I32, Reg: d, Kids: []*ir.Node{slab.Const(ir.I32, 100000)}},
		&ir.Node{Op: ir.Asgn, Type: ir.I32, Reg: d, Kids: []*ir.Node{slab.Const(ir.I32, 42)}},
	)
	Apply(m, fn)
	big := b.Stmts[0].Kids[0]
	if big.Op != ir.Or || big.Kids[0].Op != ir.High || big.Kids[1].Op != ir.Low {
		t.Errorf("big constant not split: %s", big)
	}
	if b.Stmts[1].Kids[0].Op != ir.Const {
		t.Errorf("small constant should stay: %s", b.Stmts[1])
	}
}

func TestGlueTerminates(t *testing.T) {
	// The rewrite result embeds its own LHS shape (== over int operands);
	// single application per node must terminate.
	m, err := targets.Load("toyp")
	if err != nil {
		t.Fatal(err)
	}
	fn := ir.NewFunc("f", ir.Void)
	var cfg ir.CFG
	cfg.Begin(fn)
	ref := cfg.NewBlock()
	tgt := cfg.NewBlock()
	a := cfg.NewReg(ir.I32, "a")
	c := cfg.NewReg(ir.I32, "c")
	var slab ir.Slab
	cond := slab.New(ir.Eq, ir.I32, slab.Reg(ir.I32, a), slab.Reg(ir.I32, c))
	b := finish(t, fn, &cfg, &slab, ref, tgt, cfg.Branch(&slab, tgt, cond))
	Apply(m, fn) // must not hang
	rel := b.Stmts[0].Kids[0]
	if rel.Op != ir.Eq || rel.Kids[0].Op != ir.Cmp {
		t.Errorf("rewrite wrong: %s", b.Stmts[0])
	}
	if rel.Kids[0].Kids[0].Op == ir.Cmp {
		t.Error("glue applied twice")
	}
}

func TestGlueSharedSubtreeRewrittenOnce(t *testing.T) {
	m, err := targets.Load("toyp")
	if err != nil {
		t.Fatal(err)
	}
	fn := ir.NewFunc("f", ir.Void)
	var cfg ir.CFG
	cfg.Begin(fn)
	ref := cfg.NewBlock()
	d := cfg.NewReg(ir.I32, "d")
	e := cfg.NewReg(ir.I32, "e")
	var slab ir.Slab
	shared := slab.Const(ir.I32, 100000)
	b := finish(t, fn, &cfg, &slab, ref, cfg.NewBlock(),
		&ir.Node{Op: ir.Asgn, Type: ir.I32, Reg: d, Kids: []*ir.Node{shared}},
		&ir.Node{Op: ir.Asgn, Type: ir.I32, Reg: e, Kids: []*ir.Node{shared}},
	)
	Apply(m, fn)
	if b.Stmts[0].Kids[0] != b.Stmts[1].Kids[0] {
		t.Error("sharing broken by rewrite")
	}
}

// TestMatchGlueMissAllocatesNothing: nearly every (rule x node) attempt
// is a miss, so a miss may not touch the heap — neither one rejected on
// the root operator nor one that gets past the root and fails below it.
func TestMatchGlueMissAllocatesNothing(t *testing.T) {
	fn := ir.NewFunc("f", ir.Void)
	var cfg ir.CFG
	cfg.Begin(fn)
	tgt := cfg.NewBlock()
	var slab ir.Slab
	leaf := slab.Reg(ir.F64, cfg.NewReg(ir.F64, "x"))
	misses := map[string]*ir.Node{
		"root":       slab.New(ir.Neg, ir.F64, leaf),
		"below root": cfg.Branch(&slab, tgt, leaf),
	}
	rules := 0
	for _, target := range targets.Names() {
		m, err := targets.Load(target)
		if err != nil {
			t.Fatal(err)
		}
		b := bindings{nodes: make([]*ir.Node, 8), blocks: make([]*ir.Block, 8)}
		for gi, g := range m.Glues {
			rules++
			for name, n := range misses {
				if matchGlue(g, n, &b) {
					t.Fatalf("%s glue %d matches the %q miss %s", target, gi, name, n)
				}
				if allocs := testing.AllocsPerRun(10, func() { matchGlue(g, n, &b) }); allocs != 0 {
					t.Errorf("%s glue %d: a miss (%s) allocates %.0f times", target, gi, name, allocs)
				}
			}
		}
	}
	if rules == 0 {
		t.Error("no target declares a glue rule")
	}
}

// TestGlueRepeatedMetavariableAfterFailedAttempt: match attempts share
// one scratch, and matchSem reads it — a metavariable appearing twice
// must bind the same subtree. A rule that binds $1 and then fails (here
// on its guard) must not leave that binding for the next rule to trip
// over: the second rule, which repeats $1 and $2, still matches.
func TestGlueRepeatedMetavariableAfterFailedAttempt(t *testing.T) {
	ints := &mach.RegSet{Name: "r", Types: []ir.Type{ir.I32}, Size: 4}
	reg := mach.OperandSpec{Kind: mach.OperandReg, Set: ints}
	sum := func() *mach.Sem { return mach.NewSemOp(ir.Add, mach.NewSemOperand(0), mach.NewSemOperand(1)) }
	m := &mach.Machine{Glues: []*mach.GlueRule{
		{ // $1 * $2 ==> $1 - $2  if fits($2, zero): binds both factors, then fails
			Operands: []mach.OperandSpec{reg, reg},
			LHS:      mach.NewSemOp(ir.Mul, mach.NewSemOperand(0), mach.NewSemOperand(1)),
			RHS:      mach.NewSemOp(ir.Sub, mach.NewSemOperand(0), mach.NewSemOperand(1)),
			Guard:    &mach.GlueGuard{OpIdx: 1, Def: &mach.ImmDef{Name: "zero"}},
		},
		{ // ($1 + $2) * ($1 + $2) ==> $1 - $2
			Operands: []mach.OperandSpec{reg, reg},
			LHS:      mach.NewSemOp(ir.Mul, sum(), sum()),
			RHS:      mach.NewSemOp(ir.Sub, mach.NewSemOperand(0), mach.NewSemOperand(1)),
		},
	}}
	fn := ir.NewFunc("f", ir.Void)
	var cfg ir.CFG
	cfg.Begin(fn)
	ref := cfg.NewBlock()
	var slab ir.Slab
	p := slab.Reg(ir.I32, cfg.NewReg(ir.I32, "p"))
	q := slab.Reg(ir.I32, cfg.NewReg(ir.I32, "q"))
	square := slab.New(ir.Mul, ir.I32, slab.New(ir.Add, ir.I32, p, q), slab.New(ir.Add, ir.I32, p, q))
	b := finish(t, fn, &cfg, &slab, ref, cfg.NewBlock(),
		&ir.Node{Op: ir.Asgn, Type: ir.I32, Reg: cfg.NewReg(ir.I32, "d"), Kids: []*ir.Node{square}})
	Apply(m, fn)
	got := b.Stmts[0].Kids[0]
	if got.Op != ir.Sub || got.Kids[0] != p || got.Kids[1] != q {
		t.Errorf("second rule did not match after the first bound and failed: %s", b.Stmts[0])
	}
}

// TestApplyWithoutMatchIsCheap: most functions contain nothing a glue
// rule rewrites. Such an Apply logs no write and allocates its xformer
// and the two binding slices only — the replaced map is neither made (a
// fourth allocation) nor, being nil, indexed.
func TestApplyWithoutMatchIsCheap(t *testing.T) {
	fn := ir.NewFunc("f", ir.Void)
	var cfg ir.CFG
	cfg.Begin(fn)
	ref := cfg.NewBlock()
	var slab ir.Slab
	x := slab.Reg(ir.I32, cfg.NewReg(ir.I32, "x"))
	sum := slab.New(ir.Add, ir.I32, x, slab.Const(ir.I32, 4))
	var stmts []*ir.Node
	for i := 0; i < 8; i++ { // sum is shared: second visits take the walk's early exit
		stmts = append(stmts, &ir.Node{Op: ir.Asgn, Type: ir.I32, Reg: cfg.NewReg(ir.I32, ""), Kids: []*ir.Node{slab.New(ir.Mul, ir.I32, sum, sum)}})
	}
	b := finish(t, fn, &cfg, &slab, ref, cfg.NewBlock(), stmts...)
	before := b.Stmts[0].String()
	for _, target := range targets.Names() {
		m, err := targets.Load(target)
		if err != nil {
			t.Fatal(err)
		}
		var l Log
		var nodes ir.Slab
		allocs := testing.AllocsPerRun(10, func() { l.Apply(m, fn, &nodes) })
		if len(l.writes) != 0 || b.Stmts[0].String() != before {
			t.Fatalf("%s: a glue rule matched; the test lost its point", target)
		}
		if allocs > 3 {
			t.Errorf("%s: Apply on a function no rule matches allocates %.0f times, want <= 3", target, allocs)
		}
	}
}
