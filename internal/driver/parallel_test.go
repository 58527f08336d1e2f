package driver_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"marion/internal/driver"
	"marion/internal/gentest"
	"marion/internal/ir"
	"marion/internal/livermore"
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

// TestSuiteParallelDeterminism compiles the 28-function Livermore
// module at worker counts from the caller alone to one per function:
// fault-free on every target, and on r2000 under IPS with two fault
// sets — errors on every rung that degrade one function and fail two,
// and a panic and a budget hang that degrade one function each. Each
// function's assembly, rung and per-attempt phase names, the
// degradations and the diagnostics (and their order) are those of the
// single-worker run. Under -race this is also the check that the claim
// loops share nothing but their cursor. The budget is many times the
// slowest function's compile under -race, so only the hang meets it.
func TestSuiteParallelDeterminism(t *testing.T) {
	type run struct {
		name, target string
		cfg          driver.Config
		// check rejects an unexpected single-worker baseline.
		check func(base string) bool
	}
	var runs []run
	for _, target := range targets.Names() {
		runs = append(runs, run{target + "/postpass", target, driver.Config{Strategy: strategy.Postpass},
			func(base string) bool { return !strings.Contains(base, ": failed\n") }})
	}
	runs = append(runs,
		run{"r2000/ips-rung-errors", "r2000", driver.Config{Strategy: strategy.IPS,
			Faults: mustFaults(t, "sched:err@fn=3;regalloc:err@fn=7@all;select:err@fn=20@all")},
			// functions 7 and 20 fail, 3 degrades
			func(base string) bool {
				return strings.Count(base, ": failed\n") == 2 && strings.Count(base, "degraded ips -> postpass") == 1 &&
					strings.Contains(base, "3: postpass")
			}},
		run{"r2000/ips-panic-hang", "r2000", driver.Config{Strategy: strategy.IPS, Budget: 250 * time.Millisecond,
			Faults: mustFaults(t, "select:panic@fn=0;sched:hang@fn=1")},
			// functions 0 and 1 degrade, 1 by the budget
			func(base string) bool {
				return !strings.Contains(base, ": failed\n") && strings.Count(base, "degraded ips -> postpass") == 2 &&
					strings.Contains(base, "budget exceeded")
			}})
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			m, err := targets.Load(r.target)
			if err != nil {
				t.Fatal(err)
			}
			shot := func(workers int) string {
				_, funcs := suiteOn(t, r.target)
				cfg := r.cfg
				cfg.Workers = workers
				results, diags := driver.NewBackend().Run(context.Background(), m, funcs, cfg)
				var sb strings.Builder
				for i, r := range results {
					if r == nil {
						fmt.Fprintf(&sb, "%d: failed\n", i)
						continue
					}
					fmt.Fprintf(&sb, "%d: %s", i, r.Strategy)
					for _, pt := range r.Timings {
						fmt.Fprintf(&sb, " %s/%d", pt.Phase, pt.Attempt)
					}
					if r.Fallback != nil {
						fmt.Fprintf(&sb, "\n%s", r.Fallback)
					}
					fmt.Fprintf(&sb, "\n%s", printFunc(m, r.Func))
				}
				for _, d := range diags.All() {
					fmt.Fprintf(&sb, "diag %d %s\n", d.Index, d.Error())
				}
				return sb.String()
			}
			base := shot(1)
			if !r.check(base) {
				t.Fatalf("unexpected single-worker baseline:\n%s", base)
			}
			for _, w := range []int{2, 8, 28} {
				if got := shot(w); got != base {
					t.Errorf("workers=%d output differs from workers=1", w)
				}
			}
		})
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
	var slab ir.Slab
	var cfg ir.CFG
	build := func(name string, stmts ...*ir.Node) {
		fn := ir.NewFunc(name, ir.I32)
		cfg.Begin(fn)
		cfg.Start(cfg.NewBlock(), 0)
		cfg.Append(stmts...)
		if err := cfg.Finish(&slab, false); err != nil {
			panic(err)
		}
		mod.Funcs = append(mod.Funcs, fn)
	}
	for _, name := range broken {
		build(name, slab.New(ir.BadOp, ir.I32), slab.New(ir.Ret, ir.Void))
	}
	build("ok", slab.New(ir.Ret, ir.I32, slab.Const(ir.I32, 7)))
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
	var diags *driver.Diagnostics
	if !errors.As(err, &diags) {
		t.Fatalf("error is %T, want *driver.Diagnostics: %v", err, err)
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
// trip through the worker pool.
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
