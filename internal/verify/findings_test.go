package verify_test

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"slices"
	"strings"
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

const findingsFile = "testdata/findings.sha256"

// namedFunc is one compiled function, named <unit>:<function>.
type namedFunc struct {
	name string
	f    *asm.Func
}

// compileUnits compiles the Livermore suite and gentest.Golden but the
// big-block fixture — examples/c and the spill-heavy fixture, whose
// calls and i860 sequences the loops lack — for one target and strategy.
func compileUnits(t *testing.T, target string, strat strategy.Kind) (*mach.Machine, []namedFunc) {
	t.Helper()
	m, err := targets.Load(target)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := livermore.SuiteModule()
	if err != nil {
		t.Fatal(err)
	}
	c, err := driver.CompileModule(m, mod, driver.Config{Strategy: strat})
	if err != nil {
		t.Fatal(err)
	}
	units := []*driver.Compiled{c}
	for _, u := range gentest.Golden() {
		if u.Name == gentest.BigBlock {
			continue // findings.sha256 was recorded without it
		}
		c, err := driver.Compile(target, u.Name, u.Text, driver.Config{Strategy: strat})
		if err != nil {
			t.Fatal(err)
		}
		units = append(units, c)
	}
	var out []namedFunc
	for _, c := range units {
		for _, f := range c.Prog.Funcs {
			out = append(out, namedFunc{c.Prog.Name + ":" + f.Name, f})
		}
	}
	return m, out
}

// cloneFunc copies a function deeply enough for a mutator or perturb to
// edit the copy without touching the original: blocks, instruction
// lists, instructions and their operands.
func cloneFunc(af *asm.Func) *asm.Func {
	c := *af
	c.Blocks = make([]*asm.Block, len(af.Blocks))
	for bi, b := range af.Blocks {
		nb := *b
		nb.Insts = make([]*asm.Inst, len(b.Insts))
		for i, in := range b.Insts {
			ni := *in
			ni.Args = slices.Clone(in.Args)
			nb.Insts[i] = &ni
		}
		c.Blocks[bi] = &nb
	}
	return &c
}

// perturb applies a seeded mix of schedule edits to every block of a
// compiled function: shift one scheduled instruction's cycle by up to
// two, swap two neighbours (exchanging their cycles, so the order stays
// nondecreasing and only dependences move), or merge the next word into
// this one. Between them they break every invariant the verifier checks.
func perturb(af *asm.Func, rng *rand.Rand) {
	for _, b := range af.Blocks {
		n := len(b.Insts)
		for k := 0; n >= 2 && k < 1+n/4; k++ {
			i := rng.Intn(n - 1)
			a, c := b.Insts[i], b.Insts[i+1]
			if a.Cycle < 0 || c.Cycle < 0 {
				continue
			}
			switch rng.Intn(3) {
			case 0:
				d := rng.Intn(4) - 2
				if d >= 0 {
					d++
				}
				a.Cycle = max(0, a.Cycle+int32(d))
			case 1:
				b.Insts[i], b.Insts[i+1] = c, a
				a.Cycle, c.Cycle = c.Cycle, a.Cycle
			case 2:
				for j, old := i+1, c.Cycle; old != a.Cycle && j < n && b.Insts[j].Cycle == old; j++ {
					b.Insts[j].Cycle = a.Cycle
				}
			}
		}
	}
}

// findingsLine verifies every function after an edit and renders the
// golden line:
//
//	<case> <sha256 of every Report.String()> <kind>=<count>... <unit>:<fn>=<8 hex>...
func findingsLine(name string, m *mach.Machine, funcs []namedFunc, opts verify.Options, edit func(*mach.Machine, *asm.Func)) string {
	whole := sha256.New()
	counts := make([]int, len(verify.Kinds()))
	var fns []string
	for _, nf := range funcs {
		f := cloneFunc(nf.f)
		edit(m, f)
		rep := verify.Func(m, f, opts)
		text := rep.String()
		whole.Write([]byte(text + "\n"))
		for _, fd := range rep.Findings {
			counts[fd.Kind]++
		}
		sum := sha256.Sum256([]byte(text))
		fns = append(fns, fmt.Sprintf("%s=%x", nf.name, sum[:4]))
	}
	var ks []string
	for _, k := range verify.Kinds() {
		ks = append(ks, fmt.Sprintf("%s=%d", k, counts[k]))
	}
	return fmt.Sprintf("%s %x %s %s", name, whole.Sum(nil), strings.Join(ks, " "), strings.Join(fns, " "))
}

// TestFindingsGolden pins what the verifier says, finding by finding, to
// testdata/findings.sha256: the Livermore suite, examples/c and the
// pressure fixture compiled for every target under postpass and
// rase, verified clean, after each exported mutator applied to every
// function, and after a seeded perturbation (plus that perturbation once
// under IssueOnly). The file was written by the verifier before its
// working state became dense tables and is the oracle for that rewrite;
// -update rewrites it and is meant only for a change that sets out to
// alter a finding.
func TestFindingsGolden(t *testing.T) {
	pins := gentest.ReadPins(t, findingsFile)
	edits := []struct {
		name string
		fn   func(*mach.Machine, *asm.Func)
	}{
		{"clean", func(*mach.Machine, *asm.Func) {}},
		{"BreakLatency", func(m *mach.Machine, f *asm.Func) { verify.BreakLatency(m, f) }},
		{"DeleteDelaySlotNop", func(m *mach.Machine, f *asm.Func) { verify.DeleteDelaySlotNop(m, f) }},
		{"MergeIllegalPair", func(m *mach.Machine, f *asm.Func) { verify.MergeIllegalPair(m, f) }},
		{"ReassignRegister", func(m *mach.Machine, f *asm.Func) { verify.ReassignRegister(m, f) }},
		{"CorruptSequence", func(m *mach.Machine, f *asm.Func) { verify.CorruptSequence(m, f) }},
	}
	for _, target := range targets.Names() {
		for _, strat := range []strategy.Kind{strategy.Postpass, strategy.RASE} {
			m, funcs := compileUnits(t, target, strat)
			prefix := fmt.Sprintf("%s/%s/", target, strat)
			for _, e := range edits {
				pins.Check(t, findingsLine(prefix+e.name, m, funcs, verify.Options{}, e.fn))
			}
			var rng *rand.Rand
			shake := func(_ *mach.Machine, f *asm.Func) { perturb(f, rng) }
			rng = rand.New(rand.NewSource(1))
			pins.Check(t, findingsLine(prefix+"perturb", m, funcs, verify.Options{}, shake))
			if target == "m88000" && strat == strategy.Postpass {
				rng = rand.New(rand.NewSource(1))
				pins.Check(t, findingsLine(prefix+"perturb-issueonly", m, funcs, verify.Options{IssueOnly: true}, shake))
			}
		}
	}
}
