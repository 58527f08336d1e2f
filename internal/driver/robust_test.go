package driver_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"marion/internal/driver"
	"marion/internal/faults"
	"marion/internal/strategy"
	"marion/internal/verify"
)

// TestPanicIsolation pins the tentpole contract: a phase panic in one
// function becomes a structured diagnostic carrying the phase, function
// and a stack, while the other functions compile normally.
func TestPanicIsolation(t *testing.T) {
	m, funcs := lowerModule(t, twoFuncs)
	results, diags := driver.NewBackend().Run(context.Background(), m, funcs,
		driver.Config{
			Strategy: strategy.Postpass,
			Strict:   true, // no ladder: the panic must surface as a diagnostic
			Faults:   mustFaults(t, "select:panic@fn=one"),
		})
	all := diags.All()
	if len(all) != 1 {
		t.Fatalf("diagnostics = %v, want exactly one", all)
	}
	d := all[0]
	if d.Func != "one" || d.Phase != "select" {
		t.Errorf("diagnostic attribution = %s/%s", d.Func, d.Phase)
	}
	var pe *driver.PanicError
	if !errors.As(d.Err, &pe) {
		t.Fatalf("err = %T %v, want *PanicError", d.Err, d.Err)
	}
	if pe.Phase != "select" || pe.Func != "one" {
		t.Errorf("panic error = %+v", pe)
	}
	if !strings.Contains(pe.Stack, "panic(") || strings.Contains(pe.Error(), "goroutine") {
		t.Errorf("stack/message split wrong: msg=%q stack=%q", pe.Error(), pe.Stack)
	}
	// The healthy function still compiled.
	if results[1] == nil || results[1].Func == nil {
		t.Error("untouched function did not compile")
	}
	if results[0] != nil {
		t.Error("failed function produced a result")
	}
}

// TestLadderDegradesAndRecords pins graceful degradation: with the
// ladder enabled, a faulted primary attempt falls back to a weaker rung,
// the result verifies clean, and the degradation is recorded.
func TestLadderDegradesAndRecords(t *testing.T) {
	m, funcs := lowerModule(t, twoFuncs)
	results, diags := driver.NewBackend().Run(context.Background(), m, funcs,
		driver.Config{
			Strategy: strategy.Postpass,
			Faults:   mustFaults(t, "select:err@fn=one"),
		})
	if err := diags.Err(); err != nil {
		t.Fatal(err)
	}
	r := results[0]
	if r == nil || r.Func == nil {
		t.Fatal("faulted function did not compile via the ladder")
	}
	if r.Fallback == nil {
		t.Fatal("degradation not recorded")
	}
	fb := r.Fallback
	if fb.Func != "one" || fb.From != strategy.Postpass || fb.To != strategy.Safe {
		t.Errorf("fallback = %+v", fb)
	}
	if fb.Attempts != 2 || fb.Phase != "select" ||
		!strings.Contains(fb.Reason, "injected fault") {
		t.Errorf("fallback detail = %+v", fb)
	}
	if r.Strategy != strategy.Safe {
		t.Errorf("result strategy = %s, want safe", r.Strategy)
	}
	// The degraded output holds up under the verifier.
	if rep := verify.Func(m, r.Func, verify.Options{}); !rep.Empty() {
		t.Errorf("degraded output has findings:\n%s", rep)
	}
	// The unfaulted function compiled on the configured strategy.
	if results[1].Fallback != nil || results[1].Strategy != strategy.Postpass {
		t.Errorf("unfaulted function degraded: %+v", results[1].Fallback)
	}
}

// TestStrictDisablesLadder pins -strict: the same fault that degrades
// gracefully by default becomes a hard per-function failure.
func TestStrictDisablesLadder(t *testing.T) {
	m, funcs := lowerModule(t, twoFuncs)
	_, diags := driver.NewBackend().Run(context.Background(), m, funcs,
		driver.Config{
			Strategy: strategy.Postpass,
			Strict:   true,
			Faults:   mustFaults(t, "select:err@fn=one"),
		})
	all := diags.All()
	if len(all) != 1 {
		t.Fatalf("diagnostics = %v, want one", all)
	}
	var ie *faults.InjectedError
	if !errors.As(all[0].Err, &ie) {
		t.Errorf("err = %v, want *InjectedError", all[0].Err)
	}
	if strings.Contains(all[0].Err.Error(), "fallback") {
		t.Errorf("strict failure mentions fallbacks: %v", all[0].Err)
	}
}

// TestHangFaultBecomesBudgetError pins the budget mechanism end to end:
// a hang-mode fault under a per-function budget resolves into a typed
// budget error, which the ladder then degrades around.
func TestHangFaultBecomesBudgetError(t *testing.T) {
	// Strict: the budget error is the diagnostic.
	m, funcs := lowerModule(t, twoFuncs)
	_, diags := driver.NewBackend().Run(context.Background(), m, funcs,
		driver.Config{
			Strategy: strategy.Postpass,
			Strict:   true,
			Budget:   20 * time.Millisecond,
			Faults:   mustFaults(t, "sched:hang@fn=one"),
		})
	all := diags.All()
	if len(all) != 1 {
		t.Fatalf("diagnostics = %v, want one", all)
	}
	if !errors.Is(all[0].Err, faults.ErrExceeded) {
		t.Errorf("err = %v, want faults.ErrExceeded", all[0].Err)
	}

	// Ladder on: the hang degrades and the run succeeds.
	m2, funcs2 := lowerModule(t, twoFuncs)
	results, diags2 := driver.NewBackend().Run(context.Background(), m2, funcs2,
		driver.Config{
			Strategy: strategy.Postpass,
			Budget:   20 * time.Millisecond,
			Faults:   mustFaults(t, "sched:hang@fn=one"),
		})
	if err := diags2.Err(); err != nil {
		t.Fatal(err)
	}
	fb := results[0].Fallback
	if fb == nil || !strings.Contains(fb.Reason, "budget exceeded") {
		t.Errorf("fallback = %+v, want a budget-exceeded reason", fb)
	}
}

// TestDeadlineIsABudgetOnlyInTheDriver: a phase cut off by the run's
// own deadline (a client's) reports that deadline, while one cut off by
// the attempt's Budget reports a budget error. The strategy phase waits
// out its context first, so the scheduler and the allocator see it
// expired and the runner alone decides which of the two it was.
func TestDeadlineIsABudgetOnlyInTheDriver(t *testing.T) {
	b := driver.NewBackend()
	for i := range b {
		if run := b[i].Run; b[i].Name == "strategy" {
			b[i].Run = func(c *driver.Ctx) error {
				<-c.Cfg.Options.Deadline.Done()
				return run(c)
			}
		}
	}
	// compile runs one function under a run-wide deadline or a Budget.
	// The phase waits for either whatever its length; 50 ms keeps a
	// loaded machine from reaching it before the strategy phase starts.
	const wait = 50 * time.Millisecond
	compile := func(deadline, budget time.Duration) error {
		t.Helper()
		m, funcs := lowerModule(t, "int one() { return 1; }\n")
		ctx := context.Background()
		if deadline > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, deadline)
			defer cancel()
		}
		_, diags := b.Run(ctx, m, funcs, driver.Config{
			Strategy: strategy.Postpass, Strict: true, Workers: 1, Budget: budget,
		})
		all := diags.All()
		if len(all) != 1 || all[0].Phase != "strategy" {
			t.Fatalf("diagnostics = %v, want one in strategy", all)
		}
		return all[0].Err
	}

	if err := compile(wait, 0); !errors.Is(err, context.DeadlineExceeded) || errors.Is(err, faults.ErrExceeded) {
		t.Errorf("run-wide deadline: err = %v, want the deadline, not a budget", err)
	}
	if err := compile(0, wait); errors.Is(err, context.DeadlineExceeded) || !errors.Is(err, faults.ErrExceeded) {
		t.Errorf("Budget: err = %v, want a budget, not the deadline", err)
	}
}

// TestLadderExhaustionReportsPrimaryError pins the all-rungs-fail case:
// the diagnostic carries the PRIMARY attempt's error (annotated with
// the fallback count), not the last rung's.
func TestLadderExhaustionReportsPrimaryError(t *testing.T) {
	m, funcs := lowerModule(t, twoFuncs)
	_, diags := driver.NewBackend().Run(context.Background(), m, funcs,
		driver.Config{
			Strategy: strategy.Postpass,
			Faults:   mustFaults(t, "select:err@fn=one@all"), // fires on every rung
		})
	all := diags.All()
	if len(all) != 1 {
		t.Fatalf("diagnostics = %v, want one", all)
	}
	msg := all[0].Err.Error()
	if !strings.Contains(msg, "injected fault at select") ||
		!strings.Contains(msg, "fallback attempt(s) also failed") {
		t.Errorf("exhaustion message = %q", msg)
	}
	if !errors.As(all[0].Err, new(*faults.InjectedError)) {
		t.Errorf("primary error not preserved through wrapping: %v", all[0].Err)
	}
}

// TestRunChecksContextBeforeDispatch pins the dispatch-loop
// cancellation check: at any worker count (0 is one per CPU, 1 runs on
// the caller alone), a context cancelled before the run records a
// context.Canceled diagnostic for every undispatched function instead
// of compiling it.
func TestRunChecksContextBeforeDispatch(t *testing.T) {
	for _, workers := range []int{0, 1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			m, funcs := lowerModule(t, `
int a() { return 1; }
int b() { return 2; }
int c() { return 3; }
int d() { return 4; }
`)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			results, diags := driver.NewBackend().Run(ctx, m, funcs,
				driver.Config{Strategy: strategy.Postpass, Workers: workers})
			if len(diags.All()) != len(funcs) {
				t.Errorf("diagnostics = %d, want one per function", len(diags.All()))
			}
			for _, d := range diags.All() {
				if !errors.Is(d.Err, context.Canceled) {
					t.Errorf("diagnostic %v, want context.Canceled", d)
				}
			}
			for i, r := range results {
				if r != nil {
					t.Errorf("function %d compiled after cancellation", i)
				}
			}
		})
	}
}
