package verify_test

import (
	"testing"

	"marion/internal/asm"
	"marion/internal/driver"
	"marion/internal/gentest"
	"marion/internal/livermore"
	"marion/internal/mach"
	"marion/internal/strategy"
	"marion/internal/targets"
	"marion/internal/verify"
)

// maxVerifyAllocs bounds verify.Func's allocations on a clean function:
// the report, the verifier and its per-call tables, whatever the
// function's length.
const maxVerifyAllocs = 16

func verifyAllocs(m *mach.Machine, af *asm.Func) int {
	return int(testing.AllocsPerRun(20, func() { verify.Func(m, af, verify.Options{}) }))
}

// TestVerifyAllocsConstant holds the verifier to a constant number of
// allocations a call: at most maxVerifyAllocs on every Livermore
// function of every target, and on the big-block fixture's 128-statement
// function within two of a one-block leaf.
func TestVerifyAllocsConstant(t *testing.T) {
	var src string
	for _, u := range gentest.Golden() {
		if u.Name == gentest.BigBlock {
			src = u.Text
		}
	}
	const leafSrc = `int leaf(int a, int b) { return a + b; }`
	for _, target := range targets.Names() {
		m, err := targets.Load(target)
		if err != nil {
			t.Fatal(err)
		}
		mod, err := livermore.SuiteModule()
		if err != nil {
			t.Fatal(err)
		}
		cfg := driver.Config{Strategy: strategy.Postpass, Verify: true}
		suite, err := driver.CompileModule(m, mod, cfg)
		if err != nil {
			t.Fatal(err)
		}
		big, err := driver.Compile(target, gentest.BigBlock, src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		leaf, err := driver.Compile(target, "leaf.c", leafSrc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []*driver.Compiled{suite, big, leaf} {
			if !c.Verify.Empty() {
				t.Fatalf("%s: %s is not verify-clean:\n%s", target, c.Prog.Name, c.Verify)
			}
		}
		for _, af := range suite.Prog.Funcs {
			if n := verifyAllocs(m, af); n > maxVerifyAllocs {
				t.Errorf("%s: verify.Func(%s) makes %d allocations, want <= %d", target, af.Name, n, maxVerifyAllocs)
			}
		}
		nBig := verifyAllocs(m, big.Prog.Lookup("big128"))
		nLeaf := verifyAllocs(m, leaf.Prog.Lookup("leaf"))
		if nBig > maxVerifyAllocs || nBig > nLeaf+2 {
			t.Errorf("%s: verify.Func makes %d allocations on big128, %d on a leaf; want <= %d and within 2",
				target, nBig, nLeaf, maxVerifyAllocs)
		}
	}
}
