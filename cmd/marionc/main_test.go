package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"marion/internal/driver"
	"marion/internal/verify"
)

func writeTemp(t *testing.T, name, src string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRunCompiles(t *testing.T) {
	file := writeTemp(t, "ok.c", `int f(int a, int b) { return a + b; }`)
	var out, errb strings.Builder
	if code := run([]string{"-target", "r2000", file}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "f:") {
		t.Errorf("no assembly for f on stdout:\n%s", out.String())
	}
}

func TestRunVerifyCleanBuild(t *testing.T) {
	file := writeTemp(t, "ok.c", `
int g;
int f(int a) { return a * g + 1; }
double h(double x, double y) { return x * y + x; }`)
	for _, target := range []string{"r2000", "i860", "m88000"} {
		var out, errb strings.Builder
		code := run([]string{"-target", target, "-strategy", "ips", "-verify", file}, &out, &errb)
		if code != 0 {
			t.Errorf("%s: exit %d, stderr: %s", target, code, errb.String())
		}
	}
}

func TestRunBadSourceExitsNonZero(t *testing.T) {
	file := writeTemp(t, "bad.c", `int f( { }`)
	var out, errb strings.Builder
	if code := run([]string{file}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "marionc:") {
		t.Errorf("no error printed: %s", errb.String())
	}
}

// TestEmitILRoundTrip drives the split pipeline: C -> -emit-il -> .il
// input -> assembly, and requires the result byte-identical to the
// direct C compile.
func TestEmitILRoundTrip(t *testing.T) {
	cfile := writeTemp(t, "ok.c", `
int g;
int f(int a, int b) { return a * g + b; }`)

	var direct, errb strings.Builder
	if code := run([]string{"-target", "r2000", cfile}, &direct, &errb); code != 0 {
		t.Fatalf("direct compile: exit %d, stderr: %s", code, errb.String())
	}

	var il strings.Builder
	errb.Reset()
	if code := run([]string{"-emit-il", cfile}, &il, &errb); code != 0 {
		t.Fatalf("-emit-il: exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(il.String(), "func f ret int") {
		t.Fatalf("-emit-il output does not look like IL:\n%s", il.String())
	}

	ilfile := writeTemp(t, "ok.il", il.String())
	var viaIL strings.Builder
	errb.Reset()
	if code := run([]string{"-target", "r2000", ilfile}, &viaIL, &errb); code != 0 {
		t.Fatalf("compile .il: exit %d, stderr: %s", code, errb.String())
	}
	// The module is named after the input file; normalize before the
	// byte comparison.
	want := strings.ReplaceAll(direct.String(), cfile, ilfile)
	if viaIL.String() != want {
		t.Errorf("IL detour changed the assembly:\n--- direct\n%s\n--- via IL\n%s",
			direct.String(), viaIL.String())
	}

	// -emit-il on a .il input is a normalizing re-print.
	var again strings.Builder
	errb.Reset()
	if code := run([]string{"-emit-il", ilfile}, &again, &errb); code != 0 {
		t.Fatalf("-emit-il on .il: exit %d, stderr: %s", code, errb.String())
	}
	if again.String() != il.String() {
		t.Error("-emit-il on its own output is not idempotent")
	}
}

func TestRunUsageErrors(t *testing.T) {
	var out, errb strings.Builder
	if code := run(nil, &out, &errb); code != 2 {
		t.Errorf("no-args exit %d, want 2", code)
	}
	if code := run([]string{"-strategy", "bogus", writeTemp(t, "x.c", `int f(void){return 0;}`)}, &out, &errb); code != 1 {
		t.Errorf("bad strategy exit %d, want 1", code)
	}
}

// TestFailPrintsEveryDiagnostic pins the multi-failure contract: a
// *driver.Diagnostics error prints one attributed line per failing
// function, not just the first.
func TestFailPrintsEveryDiagnostic(t *testing.T) {
	diags := &driver.Diagnostics{}
	diags.Add(0, "bad1", "select", errors.New("no template matches"))
	diags.Add(1, "bad2", "strategy", errors.New("allocation failed"))
	var errb strings.Builder
	if code := fail(&errb, diags.Err()); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	got := errb.String()
	for _, want := range []string{"2 function(s) failed", "bad1: select: no template matches",
		"bad2: strategy: allocation failed"} {
		if !strings.Contains(got, want) {
			t.Errorf("diagnostics output missing %q:\n%s", want, got)
		}
	}
}

// TestPrintFindingsListsAll pins the verify-findings output: every
// finding appears with its kind (Kind 1 prints as latency, 4 as
// control) and instruction anchor.
func TestPrintFindingsListsAll(t *testing.T) {
	rep := &verify.Report{Findings: []verify.Finding{
		{Kind: verify.Kind(1), Func: "f", Block: "b0", Index: 3, Cycle: 2, Msg: "too close"},
		{Kind: verify.Kind(4), Func: "g", Block: "b1", Index: 0, Cycle: 5, Msg: "slot missing"},
	}}
	var errb strings.Builder
	printFindings(&errb, rep)
	got := errb.String()
	for _, want := range []string{"2 finding(s)", "f/b0#3@2: latency: too close",
		"g/b1#0@5: control: slot missing"} {
		if !strings.Contains(got, want) {
			t.Errorf("findings output missing %q:\n%s", want, got)
		}
	}
}

func TestListTargets(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"r2000", "i860", "m88000", "rs6000"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-list missing %s", want)
		}
	}
}
