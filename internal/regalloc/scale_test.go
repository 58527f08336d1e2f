package regalloc_test

import (
	"testing"

	"marion/internal/asm"
	"marion/internal/driver"
	"marion/internal/gentest"
	"marion/internal/regalloc"
	"marion/internal/targets"
)

func insts(af *asm.Func) int {
	n := 0
	for _, b := range af.Blocks {
		n += len(b.Insts)
	}
	return n
}

// TestAllocateAllocsScale pins the allocator's heap behaviour on exact
// counts. Every table is one slab sized to the function, so what is left
// to grow with the function is the spill code itself: two allocations
// per load or store built (sel.BuildLoad: the instruction and its
// operands). Setting those aside, the big-block fixture's 96-statement
// function may cost at most 4x the allocations of its 24-statement one,
// and where neither spills the count is the same (but for the
// UsedCalleeSave list, absent when empty) — independent of the number of
// pseudos and interference edges.
func TestAllocateAllocsScale(t *testing.T) {
	var src string
	for _, u := range gentest.Golden() {
		if u.Name == gentest.BigBlock {
			src = u.Text
		}
	}
	flat := 0
	for _, target := range targets.Names() {
		m, err := targets.Load(target)
		if err != nil {
			t.Fatal(err)
		}
		// Allocation rewrites the selected code, so every run gets its
		// own selection, made outside the measured function.
		measure := func(fname string) (allocs float64, spillInsts int) {
			const runs = 4
			var afs []*asm.Func
			for i := 0; i <= runs; i++ {
				mod, err := driver.Frontend(gentest.BigBlock, src)
				if err != nil {
					t.Fatal(err)
				}
				afs = append(afs, selected(t, m, mod.Lookup(fname)))
			}
			before, next := insts(afs[0]), 0
			allocs = testing.AllocsPerRun(runs, func() {
				if _, err := regalloc.Allocate(m, afs[next]); err != nil {
					t.Fatal(err)
				}
				next++
			})
			return allocs, insts(afs[0]) - before
		}
		small, smallSpill := measure("big24")
		large, largeSpill := measure("big96")
		t.Logf("%s: big24 %.0f allocs (%d spill instructions), big96 %.0f allocs (%d)", target, small, smallSpill, large, largeSpill)
		if s, l := small-2*float64(smallSpill), large-2*float64(largeSpill); l > 4*s {
			t.Errorf("%s: besides spill code, big96 allocates %.0f times, over 4x big24's %.0f", target, l, s)
		}
		if smallSpill == 0 && largeSpill == 0 {
			flat++
			if d := large - small; d < 0 || d > 1 {
				t.Errorf("%s: neither function spills, yet big24 allocates %.0f times and big96 %.0f", target, small, large)
			}
		}
	}
	if flat == 0 {
		t.Error("no target allocates both functions without spilling; the flat-count check did not run")
	}
}
