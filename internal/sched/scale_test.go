// Allocation-scaling regressions for the scheduling side of the back
// end. cdag.Build's test sits beside sched.Run's because they measure
// the same selected blocks, and this package's tests already import
// everything needed to select them.
package sched_test

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"marion/internal/asm"
	"marion/internal/cdag"
	"marion/internal/driver"
	"marion/internal/gentest"
	"marion/internal/mach"
	"marion/internal/sched"
	"marion/internal/sel"
	"marion/internal/strategy"
	"marion/internal/targets"
	"marion/internal/xform"
)

// bigBlocks selects the big-block fixture for i860 and returns, per
// statement count, the function and its straight-line body.
func bigBlocks(t *testing.T) (m *mach.Machine, blocks map[int]fixtureBlock) {
	t.Helper()
	src := gentest.Fixture(gentest.BigBlock).Text
	mod, err := driver.Frontend(gentest.BigBlock, src)
	if err != nil {
		t.Fatal(err)
	}
	m, err = targets.Load("i860")
	if err != nil {
		t.Fatal(err)
	}
	blocks = map[int]fixtureBlock{}
	for _, stmts := range []int{24, 64, 96} {
		fn := mod.Lookup(fmt.Sprintf("big%d", stmts))
		if fn == nil {
			t.Fatalf("fixture has no big%d", stmts)
		}
		xform.Apply(m, fn)
		af, err := sel.Select(m, fn)
		if err != nil {
			t.Fatal(err)
		}
		body := af.Blocks[0]
		for _, b := range af.Blocks {
			if len(b.Insts) > len(body.Insts) {
				body = b
			}
		}
		blocks[stmts] = fixtureBlock{af, body}
	}
	return m, blocks
}

type fixtureBlock struct {
	af *asm.Func
	b  *asm.Block
}

// TestBuildAllocsScale: the code DAG of a block four times as long must
// not take more than six times the allocations — nothing in cdag.Build
// allocates per instruction or per edge.
func TestBuildAllocsScale(t *testing.T) {
	m, blocks := bigBlocks(t)
	allocs := func(stmts int) float64 {
		return testing.AllocsPerRun(5, func() { cdag.Build(m, blocks[stmts].b, cdag.Options{}) })
	}
	short, long := allocs(24), allocs(96)
	t.Logf("cdag.Build allocations: %v at 24 statements (%d instructions), %v at 96 (%d)",
		short, len(blocks[24].b.Insts), long, len(blocks[96].b.Insts))
	if long > 6*short {
		t.Errorf("cdag.Build allocates %v times at 96 statements, %v at 24: more than 6x", long, short)
	}
	// On a scratch the longest block has warmed, every later Build — of
	// any block no longer — allocates nothing.
	var sc cdag.Scratch
	sc.Build(m, blocks[96].b, cdag.Options{})
	for _, stmts := range []int{96, 24, 64} {
		if n := testing.AllocsPerRun(5, func() { sc.Build(m, blocks[stmts].b, cdag.Options{}) }); n != 0 {
			t.Errorf("Build of the %d-statement block on a warmed scratch allocates %v times, want 0", stmts, n)
		}
	}
}

// TestRunAllocsScale is the same bound for the list scheduler.
func TestRunAllocsScale(t *testing.T) {
	m, blocks := bigBlocks(t)
	allocs := func(stmts int) float64 {
		fb := blocks[stmts]
		g := cdag.Build(m, fb.b, cdag.Options{})
		return testing.AllocsPerRun(5, func() {
			if _, err := sched.Run(m, fb.af, fb.b, g, sched.Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(24), allocs(96)
	t.Logf("sched.Run allocations: %v at 24 statements, %v at 96", short, long)
	if long > 6*short {
		t.Errorf("sched.Run allocates %v times at 96 statements, %v at 24: more than 6x", long, short)
	}
	// On a warmed scratch a Run allocates nothing, the Result's Order
	// and Cycles included — on the 96-statement block too, which wedges
	// and is scheduled again in thread order on the same two.
	var sc sched.Scratch
	for _, stmts := range []int{96, 24, 64} {
		fb := blocks[stmts]
		g := sc.Dag.Build(m, fb.b, cdag.Options{})
		run := func() {
			if _, err := sc.Run(m, fb.af, fb.b, g, sched.Options{}); err != nil {
				t.Fatal(err)
			}
		}
		run()
		if n := testing.AllocsPerRun(5, run); n > 0 {
			t.Errorf("Run of the %d-statement block on a warmed scratch allocates %v times, want none", stmts, n)
		}
	}
}

// TestWedgeFallsBackImmediately: greedy list scheduling wedges under
// Rule 1 on the fixture's 96-statement block as selected for i860 (the
// RASE free estimate's input), and Run falls back to thread order. The
// fallback's result is the Sequential one — 610 cycles, as it was when
// Run idled 4096 cycles before giving up — and the wedge costs no idle
// stepping: both attempts together fit a cycle cap of the schedule's own
// length.
func TestWedgeFallsBackImmediately(t *testing.T) {
	m, blocks := bigBlocks(t)
	var wedged []int
	for _, stmts := range []int{24, 64, 96} {
		fb := blocks[stmts]
		g := cdag.Build(m, fb.b, cdag.Options{})
		run := func(opts sched.Options) sched.Result {
			res, err := sched.Run(m, fb.af, fb.b, g, opts)
			if err != nil {
				t.Fatalf("big%d %+v: %v", stmts, opts, err)
			}
			return res
		}
		res, seq := run(sched.Options{}), run(sched.Options{Sequential: true})
		if res.Cost < seq.Cost {
			continue // the greedy schedule completed
		}
		wedged = append(wedged, stmts)
		if !reflect.DeepEqual(res, seq) {
			t.Errorf("big%d: the fallback's schedule is not the Sequential one", stmts)
		}
		if res.Cost != 610 {
			t.Errorf("big%d costs %d cycles after the fallback, want 610", stmts, res.Cost)
		}
		if capped := run(sched.Options{MaxCycles: res.Cost}); !reflect.DeepEqual(capped, res) {
			t.Errorf("big%d: the schedule changes under MaxCycles %d", stmts, res.Cost)
		}
	}
	if !reflect.DeepEqual(wedged, []int{96}) {
		t.Errorf("fixture blocks %v wedge, want big96 alone", wedged)
	}
}

// Bytes strategy.Apply may allocate under RASE on the i860 selection of
// big64 and big96: about 15 % above what it allocated when the ceilings
// were set (287 KB and 500 KB; the commit before allocated 2.9 MB and
// 6.5 MB: 88 bytes per edge, protection edges eight to one, every array
// laid out twice, every block on arrays of its own).
var applyByteBudget = map[int]uint64{64: 330_000, 96: 575_000}

// TestBigBlockByteBudget is the byte budget beside the allocation-count
// tests above: the edge arrays are few allocations however large.
func TestBigBlockByteBudget(t *testing.T) {
	for _, stmts := range []int{64, 96} {
		var total uint64
		const runs = 3
		for i := 0; i < runs; i++ {
			m, blocks := bigBlocks(t)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := strategy.Apply(m, blocks[stmts].af, strategy.RASE, strategy.Options{}); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			total += after.TotalAlloc - before.TotalAlloc
		}
		got := total / runs
		t.Logf("strategy.Apply (rase, i860, big%d): %d bytes", stmts, got)
		if got > applyByteBudget[stmts] {
			t.Errorf("strategy.Apply allocates %d bytes on big%d, budget %d", got, stmts, applyByteBudget[stmts])
		}
	}
}
