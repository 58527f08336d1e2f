package driver_test

import (
	"reflect"
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

// Allocations per function a cache hit, and the parse of a function's
// textual IL, may make on the Livermore suite module for r2000/postpass:
// about 15 % above what the code allocated when the ceilings were set
// (41.6 and 260.2; the commit before allocated 1313.0 and 581.5).
const (
	hitAllocsPerFn   = 48
	parseAllocsPerFn = 300
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
// Get, Decode, Print — and iltext.Parse to an allocation budget, so a
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
	cfgKey := cache.ConfigKey(cfg.Strategy, cfg.Options, cfg.LinearSelect)
	var got string
	hit := testing.AllocsPerRun(10, func() {
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

	text := iltext.Print(mod)
	parse := testing.AllocsPerRun(10, func() {
		if _, err := iltext.Parse(mod.Name, text); err != nil {
			t.Fatal(err)
		}
	})

	n := float64(len(mod.Funcs))
	t.Logf("per function: hit %.1f allocations, parse %.1f", hit/n, parse/n)
	if hit/n > hitAllocsPerFn {
		t.Errorf("a cache hit allocates %.1f times per function, budget %d", hit/n, hitAllocsPerFn)
	}
	if parse/n > parseAllocsPerFn {
		t.Errorf("iltext.Parse allocates %.1f times per function, budget %d", parse/n, parseAllocsPerFn)
	}
}
