package driver_test

import (
	"runtime"
	"testing"

	"marion/internal/driver"
	"marion/internal/gentest"
	"marion/internal/ir"
	"marion/internal/strategy"
	"marion/internal/targets"
)

// Allocations and bytes per function of a stream of one-function units
// compiled with no cache, about 15 % above what the code allocated when
// the ceilings were set, when a Run began borrowing its worker and arena
// from the pipeline's pool instead of building them: 178.1 allocations
// and 95 572 bytes, against 246.3 and 278 931 before. Neither is held
// under -race, where sync.Pool drops a random quarter of what is put
// back, so a Run builds a new arena as often as the draw says.
const (
	smallUnitAllocsPerFn = 205
	smallUnitBytesPerFn  = 110000
)

// TestSmallUnitAllocBudget holds a stream of small compiles to an
// allocation budget, shaped like the benchmark's cold_bigblock: every
// function of gentest's big-block fixture (one straight-line block of
// 24 to 128 statements) in a module of its own, compiled by
// CompileModule on one worker with no cache and the verifier off, under
// r2000/postpass, m88000/ips and i860/rase. Each unit is one Run, so
// whatever a Run sets up rather than borrows is paid once a function.
// Lowering is done outside the measurement.
func TestSmallUnitAllocBudget(t *testing.T) {
	gens := []struct {
		target string
		kind   strategy.Kind
	}{{"r2000", strategy.Postpass}, {"m88000", strategy.IPS}, {"i860", strategy.RASE}}
	var src string
	for _, u := range gentest.Golden() {
		if u.Name == gentest.BigBlock {
			src = u.Text
		}
	}
	type unit struct {
		target string
		mod    *ir.Module
		cfg    driver.Config
	}
	lower := func() (units []unit) {
		for _, g := range gens {
			mod, err := driver.Frontend(gentest.BigBlock, src)
			if err != nil {
				t.Fatal(err)
			}
			for _, fn := range mod.Funcs {
				one := &ir.Module{Name: fn.Name, Globals: mod.Globals, Funcs: []*ir.Func{fn}}
				units = append(units, unit{g.target, one, driver.Config{Strategy: g.kind, Workers: 1}})
			}
		}
		return units
	}
	compile := func(units []unit) {
		for _, u := range units {
			m, err := targets.Load(u.target)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := driver.CompileModule(m, u.mod, u.cfg); err != nil {
				t.Fatal(err)
			}
		}
	}
	// One P from the warm-up on: the pool keeps a worker on the P that
	// put it back, so one put back on another P would be lost to the
	// measured Runs and their arena grown anew.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	compile(lower())

	const runs = 2
	var allocs, bytes, n float64
	for range runs {
		units := lower()
		a, b := measure(func() { compile(units) })
		allocs, bytes, n = allocs+a, bytes+b, n+float64(len(units))
	}
	t.Logf("a one-function unit allocates %.1f times and %.0f bytes per function", allocs/n, bytes/n)
	if got := allocs / n; !raceEnabled && got > smallUnitAllocsPerFn {
		t.Errorf("a one-function unit allocates %.1f times per function, budget %d", got, smallUnitAllocsPerFn)
	}
	if got := bytes / n; !raceEnabled && got > smallUnitBytesPerFn {
		t.Errorf("a one-function unit allocates %.0f bytes per function, budget %d", got, smallUnitBytesPerFn)
	}
}
