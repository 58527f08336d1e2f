package verify_test

import (
	"testing"

	"marion/internal/asm"
	"marion/internal/driver"
	"marion/internal/mach"
	"marion/internal/strategy"
	"marion/internal/verify"
)

// The mutation tests run the verifier differentially: compile a small
// program, confirm it verifies clean, seed one known-bad edit of a
// given invariant class (verify.Break*, the exported mutators), and
// assert the verifier flags it with that class's kind — so every
// checker is demonstrably live, not just never-firing.

// compileClean compiles src for target under Postpass and fails the
// test unless the result verifies with zero findings.
func compileClean(t *testing.T, target, src string) (*mach.Machine, *asm.Func) {
	t.Helper()
	c, err := driver.Compile(target, "mut.c", src, driver.Config{Strategy: strategy.Postpass, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Verify.Empty() {
		t.Fatalf("pre-mutation findings:\n%s", c.Verify)
	}
	if len(c.Prog.Funcs) == 0 {
		t.Fatal("no functions compiled")
	}
	return c.Machine, c.Prog.Funcs[0]
}

// mutate applies one mutation and re-verifies, requiring the mutation
// to find a site and the report to contain the expected kind.
func mutate(t *testing.T, m *mach.Machine, af *asm.Func, want verify.Kind,
	apply func(*mach.Machine, *asm.Func) bool) *verify.Report {
	t.Helper()
	if !apply(m, af) {
		t.Fatal("mutation found no site to break")
	}
	rep := verify.Func(m, af, verify.Options{})
	if rep.Count(want) == 0 {
		t.Fatalf("mutation not flagged as %s; report:\n%s", want, rep)
	}
	return rep
}

// onlyKind asserts a report contains findings of exactly one kind: the
// mutation classes are designed to violate a single invariant, so a
// stray finding of another kind means two checkers overlap.
func onlyKind(t *testing.T, rep *verify.Report, want verify.Kind) {
	t.Helper()
	for _, f := range rep.Findings {
		if f.Kind != want {
			t.Errorf("extra %s finding: %s", f.Kind, f)
		}
	}
}

func TestMutationBreakLatency(t *testing.T) {
	// A global load (latency 2 on the R2000) feeding an add, with the
	// load shadow left empty: reissuing the add inside the shadow must
	// be flagged as a latency violation and nothing else.
	m, af := compileClean(t, "r2000", `int g; int f(void) { return g + 1; }`)
	rep := mutate(t, m, af, verify.KindLatency, verify.BreakLatency)
	onlyKind(t, rep, verify.KindLatency)
}

func TestMutationDeleteDelaySlotNop(t *testing.T) {
	m, af := compileClean(t, "r2000", `
int f(int a) { if (a) return 1; return 2; }`)
	rep := mutate(t, m, af, verify.KindControl, verify.DeleteDelaySlotNop)
	onlyKind(t, rep, verify.KindControl)
}

func TestMutationMergeIllegalPair(t *testing.T) {
	// Two independent adds issued on consecutive cycles share the issue
	// stage; packing them into one word oversubscribes it.
	m, af := compileClean(t, "r2000", `
int f(int x, int y) { return (x + 1) + (y + 2); }`)
	rep := mutate(t, m, af, verify.KindResource, verify.MergeIllegalPair)
	onlyKind(t, rep, verify.KindResource)
}

func TestMutationReassignRegister(t *testing.T) {
	// Retargeting a def onto an unsaved callee-save register is the
	// classic allocator bug; the register-discipline pass must see it.
	m, af := compileClean(t, "r2000", `
int f(int x, int y) { return (x + 1) + (y + 2); }`)
	mutate(t, m, af, verify.KindRegister, verify.ReassignRegister)
}

func TestMutationCorruptSequence(t *testing.T) {
	// On the i860 a pipelined FP multiply is a %seq whose latch reads
	// must pair with the same sequence's writes; rewiring one reader to
	// a fresh sequence identity breaks the temporal pairing.
	m, af := compileClean(t, "i860", `
double f(double a, double b) { return a * b; }`)
	mutate(t, m, af, verify.KindTemporal, verify.CorruptSequence)
}

// TestMutationKindsDistinct pins the acceptance requirement directly:
// the five mutation classes map onto five distinct finding kinds.
func TestMutationKindsDistinct(t *testing.T) {
	kinds := []verify.Kind{
		verify.KindLatency, verify.KindControl, verify.KindResource,
		verify.KindRegister, verify.KindTemporal,
	}
	seen := map[verify.Kind]bool{}
	for _, k := range kinds {
		if seen[k] {
			t.Errorf("kind %s repeated", k)
		}
		seen[k] = true
	}
}
