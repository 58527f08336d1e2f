package driver_test

import (
	"reflect"
	"runtime"
	"testing"

	"marion/internal/asm"
	"marion/internal/cache"
	"marion/internal/driver"
	"marion/internal/iltext"
	"marion/internal/ir"
	"marion/internal/livermore"
	"marion/internal/mach"
	"marion/internal/metrics"
	"marion/internal/strategy"
	"marion/internal/targets"
)

// Allocations and bytes per function on the Livermore suite module for
// r2000/postpass: a cache hit (Get, Decode, Print), the same hit through
// driver.CompileModule with tracing off, the parse of the module's
// textual IL, and the C front end over the kernels' sources. Each is
// about 15 % above what the code allocated when the ceilings were set.
// The hits' were set when a cache entry became the function's printed
// text and a hit a splice: 9.8 and 4.8 allocations, 7 164 and 604
// bytes, against 41.5, 36.6, 21 622 and 14 478 when entries held
// instructions (ceilings 48, 43, 24 900 and 17 400). What is left of
// the hit is the fingerprint's fresh scratch and Print's buffer; the
// pipeline's workers keep a scratch of their own. The front ends' were
// set when ir.Node, cc.Expr and cc.Stmt shrank and the front ends
// stopped building a map per block and per scope: parse 89.1
// allocations and 12 279 bytes, C front end 152.2 and 34 277, against
// 97.5, 14 928, 165.8 and 43 359 before.
const (
	hitAllocsPerFn        = 11.3
	compileHitAllocsPerFn = 5.6
	parseAllocsPerFn      = 103
	frontendAllocsPerFn   = 175
	hitBytesPerFn         = 8200
	compileHitBytesPerFn  = 700
	parseBytesPerFn       = 14100
	frontendBytesPerFn    = 39400
)

// coldWarm compiles the Livermore suite module twice against the fresh
// cache in cfg, each time from a freshly lowered module as a recompile
// would, and holds the second compile to the first: the same assembly,
// Stats and Sel counters, and one hit for every function, each of which
// the first compile stored. It returns the warm compile's module
// (globals laid out, IL as lowered).
func coldWarm(t *testing.T, m *mach.Machine, cfg driver.Config) (mod *ir.Module, cold, warm *driver.Compiled) {
	t.Helper()
	compile := func() (*ir.Module, *driver.Compiled) {
		mod, err := livermore.SuiteModule()
		if err != nil {
			t.Fatal(err)
		}
		out, err := driver.CompileModule(m, mod, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return mod, out
	}
	_, cold = compile()
	stored := cfg.Cache.Stats()
	mod, warm = compile()
	hits := cfg.Cache.Stats().Hits() - stored.Hits()
	if n := int64(len(mod.Funcs)); stored.Stores != n || hits != n || warm.CacheHits != len(mod.Funcs) {
		t.Fatalf("%d functions: %d stored, %d cache hits, %d served", n, stored.Stores, hits, warm.CacheHits)
	}
	if warm.Prog.Print() != cold.Prog.Print() {
		t.Error("warm assembly differs from cold")
	}
	if !reflect.DeepEqual(warm.Stats, cold.Stats) {
		t.Error("warm Stats differ from cold")
	}
	if warm.Sel != cold.Sel {
		t.Errorf("warm Sel %+v, cold %+v", warm.Sel, cold.Sel)
	}
	return mod, cold, warm
}

func freshCache(t *testing.T) *cache.Cache {
	t.Helper()
	c, err := cache.New(cache.Options{Registry: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestWarmEqualsColdOnLivermore is the gate the retired cold/warm
// Livermore bench enforced, at the worker count CI ran it with.
func TestWarmEqualsColdOnLivermore(t *testing.T) {
	m, err := targets.Load("r2000")
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []strategy.Kind{strategy.Postpass, strategy.RASE} {
		t.Run(kind.String(), func(t *testing.T) {
			coldWarm(t, m, driver.Config{Strategy: kind, Workers: 4, Cache: freshCache(t)})
		})
	}
}

// TestWarmHitAllocBudget holds the cache-hit path — fingerprint, key,
// Get, Decode, Print — on its own and through CompileModule, and both
// front ends, iltext.Parse and Frontend, to an allocation budget, so a
// regression on the warm path fails `go test` and not only the
// benchmark. (It lives here and not in cache_test.go because that file
// is package driver, which livermore imports.)
func TestWarmHitAllocBudget(t *testing.T) {
	m, err := targets.Load("r2000")
	if err != nil {
		t.Fatal(err)
	}
	c := freshCache(t)
	cfg := driver.Config{Strategy: strategy.Postpass, Workers: 1, Cache: c}
	mod, cold, warm := coldWarm(t, m, cfg)
	want := cold.Prog.Print()

	machFP := m.Fingerprint()
	cfgKey := cache.ConfigKey(cfg.Strategy, cfg.Options, false)
	var got string
	hit, hitBytes := perRun(10, func() {
		prog := asm.Program{Machine: m, Name: mod.Name, Globals: warm.Prog.Globals}
		prog.Funcs = make([]*asm.Func, 0, len(mod.Funcs))
		for _, fn := range mod.Funcs {
			payload, ok := c.Get(cache.FuncKey(fn.Fingerprint(), machFP, cfgKey))
			if !ok {
				t.Fatalf("%s: not in the cache", fn.Name)
			}
			ent, err := cache.Decode(payload, m, fn)
			if err != nil {
				t.Fatal(err)
			}
			prog.Funcs = append(prog.Funcs, ent.Func)
		}
		got = prog.Print()
	})
	if got != want {
		t.Fatal("the measured hit path does not print what the cold compile printed")
	}

	if cfg.Span != nil {
		t.Fatal("the compile below is to run with tracing off")
	}
	compileHit, compileHitBytes := perRun(10, func() {
		out, err := driver.CompileModule(m, mod, cfg)
		if err != nil || out.CacheHits != len(mod.Funcs) {
			t.Fatalf("%v, %d hits", err, out.CacheHits)
		}
	})

	text := iltext.Print(mod)
	parse, parseBytes := perRun(10, func() {
		if _, err := iltext.Parse(mod.Name, text); err != nil {
			t.Fatal(err)
		}
	})
	frontend, frontendBytes := perRun(10, func() {
		for i := range livermore.Kernels {
			if _, err := driver.Frontend("loop.c", livermore.Kernels[i].Source); err != nil {
				t.Fatal(err)
			}
		}
	})

	n := float64(len(mod.Funcs))
	t.Logf("per function: hit %.1f allocations, through CompileModule %.1f, parse %.1f, C front end %.1f",
		hit/n, compileHit/n, parse/n, frontend/n)
	t.Logf("per function: hit %.0f bytes, through CompileModule %.0f, parse %.0f, C front end %.0f",
		hitBytes/n, compileHitBytes/n, parseBytes/n, frontendBytes/n)
	for _, c := range []struct {
		what, unit string
		got        float64
		budget     float64
		race       bool // also held under the race detector
	}{
		{"a cache hit", "times", hit, hitAllocsPerFn, true},
		{"a cache hit through CompileModule", "times", compileHit, compileHitAllocsPerFn, true},
		{"iltext.Parse", "times", parse, parseAllocsPerFn, true},
		{"the C front end", "times", frontend, frontendAllocsPerFn, true},
		{"a cache hit", "bytes", hitBytes, hitBytesPerFn, true},
		// Under the race detector the pipeline's pool drops a random
		// quarter of the workers put back, and a remade worker costs
		// about 200 bytes a function here.
		{"a cache hit through CompileModule", "bytes", compileHitBytes, compileHitBytesPerFn, false},
		{"iltext.Parse", "bytes", parseBytes, parseBytesPerFn, false},
		{"the C front end", "bytes", frontendBytes, frontendBytesPerFn, false},
	} {
		if raceEnabled && !c.race {
			continue
		}
		if c.got/n > float64(c.budget) {
			t.Errorf("%s allocates %.1f %s per function, budget %g", c.what, c.got/n, c.unit, c.budget)
		}
	}
}

// perRun is testing.AllocsPerRun reporting bytes beside the count: what
// one call of f allocates on average over runs calls, after a warm-up
// call, with one P so that nothing else runs in between.
func perRun(runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
