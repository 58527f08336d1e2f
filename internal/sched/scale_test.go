// Allocation-scaling regressions for the scheduling side of the back
// end. cdag.Build's test sits beside sched.Run's because they measure
// the same selected blocks, and this package's tests already import
// everything needed to select them.
package sched_test

import (
	"fmt"
	"os"
	"testing"

	"marion/internal/asm"
	"marion/internal/cdag"
	"marion/internal/driver"
	"marion/internal/mach"
	"marion/internal/sched"
	"marion/internal/sel"
	"marion/internal/targets"
	"marion/internal/xform"
)

// bigBlocks selects the big-block fixture for i860 and returns, per
// statement count, the function and its straight-line body.
func bigBlocks(t *testing.T) (m *mach.Machine, blocks map[int]fixtureBlock) {
	t.Helper()
	src, err := os.ReadFile("../driver/testdata/bigblock.c")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := driver.Frontend("bigblock.c", string(src))
	if err != nil {
		t.Fatal(err)
	}
	m, err = targets.Load("i860")
	if err != nil {
		t.Fatal(err)
	}
	blocks = map[int]fixtureBlock{}
	for _, stmts := range []int{24, 96} {
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
}
