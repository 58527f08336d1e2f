package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"marion/internal/gentest"
	"marion/internal/sim"
)

func writeTemp(t *testing.T, name, src string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestParseCall(t *testing.T) {
	for _, c := range []struct {
		in   string
		name string
		args []sim.Value
	}{
		{"fib(10)", "fib", []sim.Value{sim.Int(10)}},
		{"kern(-3, 4)", "kern", []sim.Value{sim.Int(-3), sim.Int(4)}},
		{"dot(1.5, 2e3)", "dot", []sim.Value{sim.Float64(1.5), sim.Float64(2e3)}},
		{"init()", "init", nil},
		{"init( )", "init", nil},
	} {
		name, args, err := parseCall(c.in)
		if err != nil || name != c.name || !reflect.DeepEqual(args, c.args) {
			t.Errorf("parseCall(%q) = %q, %v, %v; want %q, %v", c.in, name, args, err, c.name, c.args)
		}
	}
	for _, bad := range []string{"fib", "fib(10", "fib)10(", "fib(x)", "fib(1.2.3)"} {
		if _, _, err := parseCall(bad); err == nil {
			t.Errorf("parseCall(%q) accepted bad syntax", bad)
		}
	}
}

// TestRunFib compiles and simulates a shipped example and prints its
// result.
func TestRunFib(t *testing.T) {
	var file string
	for _, u := range gentest.Golden() {
		if u.Name == "fib.c" {
			file = writeTemp(t, u.Name, u.Text)
		}
	}
	if file == "" {
		t.Fatal("no fib.c among the examples")
	}
	var out, errb strings.Builder
	if code := run([]string{"-target", "m88000", "-strategy", "rase", "-call", "fib(10)", file}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if !strings.HasPrefix(out.String(), "fib(10) -> int 55, ") || !strings.Contains(out.String(), "\ncycles ") {
		t.Errorf("output:\n%s", out.String())
	}
}

func TestRunUsageErrors(t *testing.T) {
	file := writeTemp(t, "ok.c", "int f() { return 1; }")
	for _, args := range [][]string{
		{file},                            // no -call
		{"-call", "f()"},                  // no file
		{"-call", "f()", file, "extra.c"}, // two files
		{"-nosuchflag", "-call", "f()", file},
	} {
		var out, errb strings.Builder
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("run(%q) = %d, want usage error 2", args, code)
		}
	}
	var out, errb strings.Builder
	if code := run([]string{"-call", "f(", file}, &out, &errb); code != 1 || !strings.Contains(errb.String(), "bad call syntax") {
		t.Errorf("bad call: exit %d, stderr %q; want 1 and the syntax error", code, errb.String())
	}
}

// TestRunNarrowing is the sub-word reproducer: a char assigned 300
// holds 44.
func TestRunNarrowing(t *testing.T) {
	file := writeTemp(t, "narrow.c", "int nc(int x) { char c; c = x; return c; }\n")
	var out, errb strings.Builder
	if code := run([]string{"-target", "i860", "-call", "nc(300)", file}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if !strings.HasPrefix(out.String(), "nc(300) -> int 44, ") {
		t.Errorf("output:\n%s", out.String())
	}
}
