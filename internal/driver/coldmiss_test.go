package driver_test

import (
	"runtime"
	"testing"

	"marion/internal/driver"
	"marion/internal/gentest"
	"marion/internal/ir"
	"marion/internal/mach"
	"marion/internal/strategy"
	"marion/internal/targets"
)

// Allocations and bytes per function of a miss through CompileModule
// with the cache and the verifier on, as mariond compiles a request:
// the back end on one worker, the admission check and the store. Each
// is about 15 % above what the code allocated when the ceilings were
// set, when a Run began borrowing its worker and arena from the
// pipeline's pool: 157.5 allocations and 17 338 bytes, against 167.8
// and 21 781 with an arena per Run, and 250.7 and 44 619 before that.
// Under -race, where the pool drops a random quarter of what is put
// back, the count reads about 164.
const (
	coldMissAllocsPerFn = 181
	coldMissBytesPerFn  = 20000
)

// coldUnit is one serve unit lowered for one code generator, with a
// cache of its own, so that compiling it misses on every function.
type coldUnit struct {
	m   *mach.Machine
	mod *ir.Module
	cfg driver.Config
}

// TestColdMissAllocBudget holds the miss path to an allocation budget
// over gentest.Serve (the benchmark's serve_cold templates), each
// compiled for r2000/postpass, m88000/ips and i860/rase, so a regression
// of the back end's garbage fails `go test` and not only the benchmark.
// Lowering and the caches are made outside the measurement.
func TestColdMissAllocBudget(t *testing.T) {
	gens := []struct {
		target string
		kind   strategy.Kind
	}{{"r2000", strategy.Postpass}, {"m88000", strategy.IPS}, {"i860", strategy.RASE}}
	lower := func() (units []coldUnit, funcs int) {
		for _, g := range gens {
			m, err := targets.Load(g.target)
			if err != nil {
				t.Fatal(err)
			}
			for _, u := range gentest.Serve() {
				mod, err := driver.Lower(u.Lang, u.Name, u.Text)
				if err != nil {
					t.Fatalf("%s: %v", u.Name, err)
				}
				cfg := driver.Config{Strategy: g.kind, Workers: 1, Verify: true, Cache: freshCache(t)}
				units = append(units, coldUnit{m, mod, cfg})
				funcs += len(mod.Funcs)
			}
		}
		return units, funcs
	}
	compile := func(units []coldUnit) {
		for _, u := range units {
			out, err := driver.CompileModule(u.m, u.mod, u.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if out.CacheHits != 0 || !out.Verify.Empty() {
				t.Fatalf("%s: %d cache hits, findings:\n%s", u.mod.Name, out.CacheHits, out.Verify)
			}
		}
	}
	// One P from the warm-up on: the pool keeps a worker on the P that
	// put it back, so one put back on another P would be lost to the
	// measured Runs and their arena grown anew.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	warmup, _ := lower()
	compile(warmup)

	const runs = 2
	var allocs, bytes, n float64
	for range runs {
		units, funcs := lower()
		a, b := measure(func() { compile(units) })
		allocs, bytes, n = allocs+a, bytes+b, n+float64(funcs)
	}
	t.Logf("a miss allocates %.1f times and %.0f bytes per function", allocs/n, bytes/n)
	if got := allocs / n; got > coldMissAllocsPerFn {
		t.Errorf("a miss allocates %.1f times per function, budget %d", got, coldMissAllocsPerFn)
	}
	if got := bytes / n; !raceEnabled && got > coldMissBytesPerFn {
		t.Errorf("a miss allocates %.0f bytes per function, budget %d", got, coldMissBytesPerFn)
	}
}

// measure is what one call of f allocates, with one P so that nothing
// else runs in between.
func measure(f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)
}
