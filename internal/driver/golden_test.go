package driver_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"marion/internal/asm"
	"marion/internal/driver"
	"marion/internal/gentest"
	"marion/internal/strategy"
	"marion/internal/targets"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.sha256 from the current output")

const goldenFile = "testdata/golden.sha256"

// goldenLine compiles the Livermore suite module and every unit of
// gentest.Golden for one target/strategy and renders the golden line:
//
//	<target>/<strategy> <sha256 of every unit's Prog.Print()> <unit>:<fn>=<8 hex>...
//
// The trailing per-function digests are what lets a mismatch name the
// first function that changed; byFn holds each function's assembly. The
// source units are compiled with the verifier on and must come out clean
// (it only reports, so the digests are the same either way); the suite
// module's turn is TestLivermoreCorpusClean in internal/verify.
func goldenLine(t *testing.T, target string, kind strategy.Kind) (line string, byFn map[string]string) {
	t.Helper()
	units := []*driver.Compiled{compileSuite(t, target, kind, 0)}
	// golden.sha256 pins exactly these units: one added to Golden needs -update.
	for _, u := range gentest.Golden() {
		c, err := driver.Compile(target, u.Name, u.Text, driver.Config{Strategy: kind, Verify: true})
		if err != nil {
			t.Fatalf("%s/%s %s: %v", target, kind, u.Name, err)
		}
		if !c.Verify.Empty() {
			t.Errorf("%s/%s %s: verifier findings:\n%s", target, kind, u.Name, c.Verify)
		}
		units = append(units, c)
	}

	whole := sha256.New()
	byFn = map[string]string{}
	var fns []string
	for _, c := range units {
		whole.Write([]byte(c.Prog.Print()))
		for _, f := range c.Prog.Funcs {
			one := asm.Program{Machine: c.Prog.Machine, Name: c.Prog.Name, Funcs: []*asm.Func{f}}
			name := c.Prog.Name + ":" + f.Name
			text := one.Print()
			byFn[name] = text
			sum := sha256.Sum256([]byte(text))
			fns = append(fns, fmt.Sprintf("%s=%x", name, sum[:4]))
		}
	}
	return fmt.Sprintf("%s/%s %x %s", target, kind, whole.Sum(nil), strings.Join(fns, " ")), byFn
}

// TestGoldenDigests pins the emitted assembly of every target x
// strategy over the Livermore suite and gentest.Golden to the digests in
// testdata/golden.sha256, so "byte-identical" refactors are checked and
// not asserted. Run with -update to rewrite the file after a change that
// is meant to alter the output.
func TestGoldenDigests(t *testing.T) {
	want := map[string]string{}
	if data, err := os.ReadFile(goldenFile); err == nil {
		for _, l := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			want[strings.SplitN(l, " ", 2)[0]] = l
		}
	} else if !*update {
		t.Fatal(err)
	}
	var out bytes.Buffer
	for _, target := range targets.Names() {
		for _, kind := range allKinds {
			got, byFn := goldenLine(t, target, kind)
			out.WriteString(got + "\n")
			key := fmt.Sprintf("%s/%s", target, kind)
			if *update || got == want[key] {
				continue
			}
			w, g := strings.Fields(want[key]), strings.Fields(got)
			if len(w) < 2 {
				t.Errorf("%s: no golden line", key)
				continue
			}
			t.Errorf("%s: digest %s, golden %s", key, g[1], w[1])
			for i := 2; i < len(g); i++ {
				if i >= len(w) || g[i] != w[i] {
					name := g[i][:strings.LastIndexByte(g[i], '=')]
					t.Errorf("first differing function %s, now:\n%s", name, byFn[name])
					break
				}
			}
		}
	}
	if *update {
		if err := os.WriteFile(goldenFile, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
