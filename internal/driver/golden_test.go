package driver_test

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"marion/internal/asm"
	"marion/internal/driver"
	"marion/internal/gentest"
	"marion/internal/strategy"
	"marion/internal/targets"
)

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
		c, err := driver.Compile(target, u.Lang, u.Name, u.Text, driver.Config{Strategy: kind, Verify: true})
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
	pins := gentest.ReadPins(t, goldenFile)
	for _, target := range targets.Names() {
		for _, kind := range allKinds {
			line, byFn := goldenLine(t, target, kind)
			if name, ok := pins.Check(t, line); !ok && name != "" {
				t.Errorf("first differing function %s, now:\n%s", name, byFn[name])
			}
		}
	}
}
