package driver_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"marion/internal/driver"
	"marion/internal/gentest"
	"marion/internal/ir"
	"marion/internal/livermore"
	"marion/internal/pipeline"
	"marion/internal/strategy"
	"marion/internal/targets"
)

// parProg exercises every strategy on every target: integer and float
// arithmetic, loops, calls, globals.
const parProg = `
int g;
double acc;

int addmul(int a, int b) {
    return a * b + g;
}

double dscale(double x) {
    acc = acc + 2.0 * x;
    return acc;
}

int sumto(int n) {
    int s = 0;
    int i;
    for (i = 1; i <= n; i++) s += i;
    return s;
}

int fib(int n) {
    if (n < 2) return n;
    return fib(n - 1) + fib(n - 2);
}
`

var allKinds = []strategy.Kind{
	strategy.Naive, strategy.Postpass, strategy.IPS, strategy.RASE, strategy.Local,
}

// TestParallelDeterminism compiles the same translation unit with 1 and
// 8 workers across every registered target and strategy, asserting
// byte-identical assembly and equal per-function statistics: the
// parallel back end must be unobservable in the output.
func TestParallelDeterminism(t *testing.T) {
	for _, target := range targets.Names() {
		for _, kind := range allKinds {
			t.Run(fmt.Sprintf("%s/%s", target, kind), func(t *testing.T) {
				seq, err := driver.Compile(target, "c", "par.c", parProg, driver.Config{Strategy: kind, Workers: 1})
				if err != nil {
					t.Fatalf("workers=1: %v", err)
				}
				par, err := driver.Compile(target, "c", "par.c", parProg, driver.Config{Strategy: kind, Workers: 8})
				if err != nil {
					t.Fatalf("workers=8: %v", err)
				}
				if a, b := seq.Prog.Print(), par.Prog.Print(); a != b {
					t.Errorf("assembly differs between workers=1 and workers=8\n--- seq ---\n%s\n--- par ---\n%s", a, b)
				}
				if !reflect.DeepEqual(seq.Stats, par.Stats) {
					t.Errorf("stats differ:\nseq: %+v\npar: %+v", seq.Stats, par.Stats)
				}
			})
		}
	}
}

// compileSuite compiles the merged Livermore module (28 functions).
func compileSuite(t *testing.T, target string, kind strategy.Kind, workers int) *driver.Compiled {
	t.Helper()
	mod, err := livermore.SuiteModule()
	if err != nil {
		t.Fatal(err)
	}
	m, err := targets.Load(target)
	if err != nil {
		t.Fatal(err)
	}
	c, err := driver.CompileModule(m, mod, driver.Config{Strategy: kind, Workers: workers})
	if err != nil {
		t.Fatalf("%s/%s workers=%d: %v", target, kind, workers, err)
	}
	if len(c.Prog.Funcs) != len(mod.Funcs) {
		t.Fatalf("%s workers=%d: %d functions compiled, want %d", target, workers, len(c.Prog.Funcs), len(mod.Funcs))
	}
	return c
}

// TestSuiteParallelDeterminism repeats the check on a large module (all
// Livermore kernels merged, 28 functions), where worker interleaving is
// actually exercised, on every target.
func TestSuiteParallelDeterminism(t *testing.T) {
	for _, target := range targets.Names() {
		seq := compileSuite(t, target, strategy.Postpass, 1).Prog.Print()
		par := compileSuite(t, target, strategy.Postpass, 8).Prog.Print()
		if seq != par {
			t.Errorf("%s: suite assembly differs between workers=1 and workers=8", target)
		}
	}
}

// TestI860RunToRunDeterminism: the i860 is the one shipped target whose
// Livermore blocks keep two clocks' temporal groups outstanding in the
// same cycle, which sched.Run used to place in map order. Eight compiles
// must be one program.
func TestI860RunToRunDeterminism(t *testing.T) {
	for _, kind := range []strategy.Kind{strategy.Postpass, strategy.IPS, strategy.RASE} {
		first := compileSuite(t, "i860", kind, 0).Prog.Print()
		for run := 1; run < 8; run++ {
			if compileSuite(t, "i860", kind, 0).Prog.Print() != first {
				t.Errorf("i860/%s: compile %d differs from compile 0", kind, run)
				break
			}
		}
	}
}

// compileTwice compiles the named fixture of gentest twice on every
// target under every strategy; two compiles must be one program.
func compileTwice(t *testing.T, name string) {
	src := gentest.Fixture(name).Text
	for _, target := range targets.Names() {
		for _, kind := range allKinds {
			var first string
			for run := 0; run < 2; run++ {
				c, err := driver.Compile(target, "c", name, src, driver.Config{Strategy: kind})
				if err != nil {
					t.Fatalf("%s/%s: %v", target, kind, err)
				}
				if asm := c.Prog.Print(); run == 0 {
					first = asm
				} else if asm != first {
					t.Errorf("%s/%s: second compile differs from the first", target, kind)
				}
			}
		}
	}
}

// TestBigBlockRunToRunDeterminism: long blocks are where the code DAG's
// protection pass and the scheduler's ready list do most of their work.
func TestBigBlockRunToRunDeterminism(t *testing.T) { compileTwice(t, gentest.BigBlock) }

// TestPressureRunToRunDeterminism: spilling functions are where the
// allocator's tie-breaks (simplify order, spill candidate, spill-list
// order, colour order) reach the output.
func TestPressureRunToRunDeterminism(t *testing.T) { compileTwice(t, gentest.Pressure) }

// brokenModule builds a module whose named functions cannot be selected
// (a statement no instruction template matches), plus one good one.
func brokenModule(broken ...string) *ir.Module {
	mod := &ir.Module{Name: "broken.c"}
	for _, name := range broken {
		fn := ir.NewFunc(name, ir.I32)
		b := fn.NewBlock()
		b.Stmts = append(b.Stmts,
			&ir.Node{Op: ir.BadOp, Type: ir.I32},
			&ir.Node{Op: ir.Ret})
		fn.Blocks = append(fn.Blocks, b)
		mod.Funcs = append(mod.Funcs, fn)
	}
	good := ir.NewFunc("ok", ir.I32)
	gb := good.NewBlock()
	ret := &ir.Node{Op: ir.Ret, Type: ir.I32}
	ret.Kids = []*ir.Node{new(ir.Slab).Const(ir.I32, 7)}
	gb.Stmts = append(gb.Stmts, ret)
	good.Blocks = append(good.Blocks, gb)
	mod.Funcs = append(mod.Funcs, good)
	return mod
}

// TestDiagnosticsReportAllFailures checks that a module with two
// independently broken functions reports BOTH failures in one run, with
// function and phase attribution, instead of aborting at the first.
func TestDiagnosticsReportAllFailures(t *testing.T) {
	m, err := targets.Load("r2000")
	if err != nil {
		t.Fatal(err)
	}
	_, err = driver.CompileModule(m, brokenModule("bad1", "bad2"), driver.Config{
		Strategy: strategy.Postpass,
	})
	if err == nil {
		t.Fatal("expected compilation failure")
	}
	var diags *pipeline.Diagnostics
	if !errors.As(err, &diags) {
		t.Fatalf("error is %T, want *pipeline.Diagnostics: %v", err, err)
	}
	all := diags.All()
	if len(all) != 2 {
		t.Fatalf("diagnostics = %d, want 2: %v", len(all), err)
	}
	for i, want := range []string{"bad1", "bad2"} {
		if all[i].Func != want {
			t.Errorf("diagnostic %d for %q, want %q", i, all[i].Func, want)
		}
		if all[i].Phase != "select" {
			t.Errorf("diagnostic %d phase %q, want %q", i, all[i].Phase, "select")
		}
	}
}

// TestPhaseTimesPopulated checks the per-phase timing sink survives the
// trip through the pool.
func TestPhaseTimesPopulated(t *testing.T) {
	c, err := driver.Compile("r2000", "c", "par.c", parProg, driver.Config{Strategy: strategy.Postpass})
	if err != nil {
		t.Fatal(err)
	}
	for _, phase := range []string{"xform", "select", "strategy"} {
		if _, ok := c.PhaseTimes[phase]; !ok {
			t.Errorf("no timing recorded for phase %q (have %v)", phase, c.PhaseTimes)
		}
	}
}
