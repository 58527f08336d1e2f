package verify_test

import (
	"math/rand"
	"sort"
	"testing"

	"marion/internal/asm"
	"marion/internal/mach"
	"marion/internal/strategy"
	"marion/internal/targets"
	"marion/internal/verify"
)

// TestScratchReuseMatchesFresh: the corpus TestFindingsGolden verifies —
// every target under postpass and rase, clean, after each mutator and
// after a seeded perturbation — verified on one Scratch, the machines
// mixed, largest function first and then smallest first (so every table
// both shrinks and grows, and a stale stamp or entry would be read),
// finds exactly what a fresh scratch finds.
func TestScratchReuseMatchesFresh(t *testing.T) {
	edits := []func(*mach.Machine, *asm.Func){
		func(*mach.Machine, *asm.Func) {},
		func(m *mach.Machine, f *asm.Func) { verify.BreakLatency(m, f) },
		func(m *mach.Machine, f *asm.Func) { verify.DeleteDelaySlotNop(m, f) },
		func(m *mach.Machine, f *asm.Func) { verify.MergeIllegalPair(m, f) },
		func(m *mach.Machine, f *asm.Func) { verify.ReassignRegister(m, f) },
		func(m *mach.Machine, f *asm.Func) { verify.CorruptSequence(m, f) },
	}
	type job struct {
		name string
		m    *mach.Machine
		f    *asm.Func
		opts verify.Options
		size int
	}
	var jobs []job
	for _, target := range targets.Names() {
		for _, strat := range []strategy.Kind{strategy.Postpass, strategy.RASE} {
			m, funcs := compileUnits(t, target, strat)
			rng := rand.New(rand.NewSource(1))
			shake := func(_ *mach.Machine, f *asm.Func) { perturb(f, rng) }
			for ei, edit := range append(edits, shake) {
				for _, nf := range funcs {
					f := cloneFunc(nf.f)
					edit(m, f)
					j := job{name: target + "/" + strat.String() + " " + nf.name, m: m, f: f,
						opts: verify.Options{IssueOnly: ei%2 == 1}}
					for _, b := range f.Blocks {
						j.size += len(b.Insts)
					}
					jobs = append(jobs, j)
				}
			}
		}
	}
	sort.SliceStable(jobs, func(a, b int) bool { return jobs[a].size > jobs[b].size })
	var sc verify.Scratch
	findings := 0
	check := func(j job) {
		want := verify.Func(j.m, j.f, j.opts).String()
		if got := sc.Func(j.m, j.f, j.opts).String(); got != want {
			t.Fatalf("%s: a warmed scratch finds\n%s\na fresh one\n%s", j.name, got, want)
		}
		if want != "" {
			findings++
		}
	}
	for _, j := range jobs {
		check(j)
	}
	for i := len(jobs) - 1; i >= 0; i-- {
		check(jobs[i])
	}
	if findings == 0 {
		t.Fatal("no function of the corpus has a finding; the test lost its point")
	}
	t.Logf("%d verifications, %d with findings", 2*len(jobs), findings)
}
