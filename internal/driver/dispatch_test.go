package driver_test

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"marion/internal/asm"
	"marion/internal/driver"
	"marion/internal/iltext"
	"marion/internal/ir"
	"marion/internal/mach"
	"marion/internal/strategy"
	"marion/internal/targets"
)

func printFunc(m *mach.Machine, af *asm.Func) string {
	p := asm.Program{Machine: m, Funcs: []*asm.Func{af}}
	return p.Print()
}

// TestPanicStackIndependentOfWorkers: a recovered panic's stack ends at
// runPhase, so it is the same text whether a spawned worker or the
// caller of Run compiled the function, and it names nothing of the
// program Run is embedded in (here: the testing package).
func TestPanicStackIndependentOfWorkers(t *testing.T) {
	stack := func(workers int) string {
		m, funcs := lowerModule(t, twoFuncs)
		_, diags := driver.NewBackend().Run(context.Background(), m, funcs, driver.Config{
			Strategy: strategy.Postpass, Strict: true, Workers: workers,
			Faults: mustFaults(t, "select:panic@fn=twice"),
		})
		var pe *driver.PanicError
		if all := diags.All(); len(all) != 1 || !errors.As(all[0].Err, &pe) {
			t.Fatalf("workers=%d: diagnostics = %v, want one panic", workers, all)
		}
		return pe.Stack
	}
	base := stack(1)
	lines := strings.Split(base, "\n")
	if last := lines[len(lines)-2]; !strings.HasPrefix(last, "marion/internal/driver.runPhase(") {
		t.Errorf("stack does not end at runPhase:\n%s", base)
	}
	for _, l := range lines[1:] {
		if strings.HasPrefix(l, "\t") { // file:line of the frame above
			continue
		}
		if !strings.HasPrefix(l, "marion/internal/") && !strings.HasPrefix(l, "runtime") && !strings.HasPrefix(l, "panic(") {
			t.Errorf("stack names a frame outside marion/internal and runtime: %q\n%s", l, base)
		}
	}
	for _, w := range []int{2, 8} {
		if got := stack(w); got != base {
			t.Errorf("workers=%d stack differs from workers=1:\n%s\nvs\n%s", w, got, base)
		}
	}
}

// countingBackend is a one-phase back end whose phase reports each
// call to f.
func countingBackend(f func(c *driver.Ctx)) driver.Backend {
	return driver.Backend{{Name: "count", Run: func(c *driver.Ctx) error {
		f(c)
		return nil
	}}}
}

// TestCancelMidRunDiagnosesUnstartedFunctions: when the context ends
// during a run, every function not yet started is reported under its
// own index and name, whatever order the functions were claimed in.
func TestCancelMidRunDiagnosesUnstartedFunctions(t *testing.T) {
	m, funcs := suiteOn(t, "r2000")
	for _, workers := range []int{1, 3} {
		ctx, cancel := context.WithCancel(context.Background())
		var started atomic.Int64
		results, diags := countingBackend(func(*driver.Ctx) {
			started.Add(1)
			cancel()
		}).Run(ctx, m, funcs, driver.Config{Workers: workers, Strict: true})
		if n := started.Load(); n < 1 || n > int64(workers) {
			t.Errorf("workers=%d: %d functions started, want between 1 and %d", workers, n, workers)
		}
		all := diags.All()
		if len(all)+int(started.Load()) != len(funcs) {
			t.Errorf("workers=%d: %d diagnostics + %d started != %d functions", workers, len(all), started.Load(), len(funcs))
		}
		for _, d := range all {
			if d.Phase != "pipeline" || d.Func != funcs[d.Index].Name || !errors.Is(d.Err, context.Canceled) {
				t.Errorf("workers=%d: diagnostic %+v, want phase pipeline under the function's own index", workers, d)
			}
			if results[d.Index] != nil {
				t.Errorf("workers=%d: function %d has both a result and a diagnostic", workers, d.Index)
			}
		}
	}
}

// TestSingleWorkerRunsOnCaller: with one worker the claim loop is run
// by the caller alone — no goroutine is started — and with w workers
// w-1 are. The largest function is claimed first.
func TestSingleWorkerRunsOnCaller(t *testing.T) {
	m, funcs := suiteOn(t, "r2000")
	largest := funcs[0]
	for _, fn := range funcs {
		if fn.NodeCount() > largest.NodeCount() {
			largest = fn
		}
	}
	before := runtime.NumGoroutine()
	var first *ir.Func
	extra := 0
	_, diags := countingBackend(func(c *driver.Ctx) {
		if first == nil {
			first = c.IR
		}
		extra = max(extra, runtime.NumGoroutine()-before)
	}).Run(context.Background(), m, funcs, driver.Config{Workers: 1})
	if err := diags.Err(); err != nil {
		t.Fatal(err)
	}
	if extra != 0 {
		t.Errorf("Workers: 1 ran beside %d goroutine(s) it started", extra)
	}
	if first != largest {
		t.Errorf("first function claimed is %s, want the largest, %s", first.Name, largest.Name)
	}
}

// TestPrimaryAttemptDoesNotClone: a run whose every function succeeds
// on the primary attempt allocates a few bookkeeping objects per
// function — far fewer than the two per IL node a copy of the function
// would take.
func TestPrimaryAttemptDoesNotClone(t *testing.T) {
	m, funcs := suiteOn(t, "r2000")
	nodes := 0
	for _, fn := range funcs {
		nodes += fn.NodeCount()
	}
	p := countingBackend(func(*driver.Ctx) {})
	allocs := testing.AllocsPerRun(5, func() {
		p.Run(context.Background(), m, funcs, driver.Config{Workers: 1})
	})
	t.Logf("%.0f allocations for %d functions of %d IL nodes", allocs, len(funcs), nodes)
	if allocs > float64(nodes)/4 {
		t.Errorf("a run of no-op phases allocates %.0f times for %d IL nodes: is the IL being copied?", allocs, nodes)
	}
}

const ladderSrc = `
int a[64];
double x[64], y[64];
int one() { return 1; }
int sum(int n) { int i, s; s = 0; for (i = 0; i < n; i++) s = s + a[i] * 70000; return s; }
double dot(int n) { int i; double s; s = 0.0; for (i = 0; i < n; i++) { if (x[i] > y[i]) s = s + x[i] * y[i]; } return s; }
`

// hostileGlues panic part-way through a rewrite: they match only a
// function's return statement, which the walk reaches after the body,
// and then index operands the rule does not have.
var hostileGlues = []*mach.GlueRule{
	{LHS: mach.NewSemOp(ir.Ret), RHS: mach.NewSemOperand(7)},
	{LHS: mach.NewSemOp(ir.Ret, mach.NewSemOperand(7)), RHS: mach.NewSemOperand(7)},
}

// TestLadderRetryMatchesFreshCompile: whatever phase the primary
// attempt dies in — the glue transform with half the function
// rewritten, selection, the strategy, the scheduler, the allocator or
// the verifier — the rung below it compiles the IL as lowered: its
// assembly is what a fresh lowering compiled directly under that rung
// gives, and the IL ends as one glue transform of a fresh lowering.
func TestLadderRetryMatchesFreshCompile(t *testing.T) {
	for _, target := range []string{"r2000", "m88000", "i860"} {
		m, err := targets.Load(target)
		if err != nil {
			t.Fatal(err)
		}
		lower := func() []*ir.Func {
			_, funcs := lowerModule(t, ladderSrc)
			return funcs
		}
		fresh := lower()
		want, diags := driver.NewBackend().Run(context.Background(), m, fresh,
			driver.Config{Strategy: strategy.Safe, Strict: true})
		if err := diags.Err(); err != nil {
			t.Fatal(err)
		}
		wantIL := iltext.Print(&ir.Module{Funcs: fresh})

		for _, site := range []string{"xform", "select", "strategy", "sched", "regalloc", "verify"} {
			p := driver.NewBackend()
			cfg := driver.Config{Strategy: strategy.Postpass, Workers: 2}
			var midRewrite atomic.Int64
			if site == "xform" {
				glue := p[0].Run
				p[0].Run = func(c *driver.Ctx) error {
					if c.Attempt > 0 {
						return glue(c)
					}
					before := c.IR.Fingerprint()
					defer func() {
						if c.IR.Fingerprint() != before {
							midRewrite.Add(1)
						}
					}()
					c.Undo.Apply(&mach.Machine{Glues: append(append([]*mach.GlueRule{}, m.Glues...), hostileGlues...)}, c.IR, c.Nodes)
					return errors.New("the hostile glue rules did not panic")
				}
			} else {
				cfg.Faults = mustFaults(t, site+":err")
			}
			funcs := lower()
			got, diags := p.Run(context.Background(), m, funcs, cfg)
			if err := diags.Err(); err != nil {
				t.Fatalf("%s %s: %v", target, site, err)
			}
			for i, r := range got {
				fb := r.Fallback
				if fb == nil || fb.To != strategy.Safe || r.Strategy != strategy.Safe {
					t.Fatalf("%s %s %s: not degraded to safe: %+v", target, site, funcs[i].Name, fb)
				}
				if site == "xform" && (fb.Phase != "xform" || !strings.Contains(fb.Reason, "panic")) {
					t.Errorf("%s %s: primary failure = %s: %s, want a panic in xform", target, funcs[i].Name, fb.Phase, fb.Reason)
				}
				if g, w := printFunc(m, r.Func), printFunc(m, want[i].Func); g != w {
					t.Errorf("%s %s %s: degraded assembly differs from a fresh compile under safe:\n%s\nwant:\n%s", target, site, funcs[i].Name, g, w)
				}
			}
			if gotIL := iltext.Print(&ir.Module{Funcs: funcs}); gotIL != wantIL {
				t.Errorf("%s %s: IL after the ladder differs from one glue transform of a fresh lowering", target, site)
			}
			if site == "xform" && midRewrite.Load() == 0 {
				t.Errorf("%s: no function was part-rewritten when the glue transform panicked; the test lost its point", target)
			}
		}
	}
}
