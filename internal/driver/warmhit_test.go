package driver_test

import (
	"reflect"
	"testing"

	"marion/internal/asm"
	"marion/internal/cache"
	"marion/internal/driver"
	"marion/internal/gentest"
	"marion/internal/iltext"
	"marion/internal/ir"
	"marion/internal/livermore"
	"marion/internal/mach"
	"marion/internal/metrics"
	"marion/internal/strategy"
	"marion/internal/targets"
)

// coldWarm compiles the Livermore suite module twice against the fresh
// cache in cfg, each time from a freshly lowered module as a recompile
// would, and holds the second compile to the first: the same assembly,
// Stats and Sel counters, and one hit for every function, each of which
// the first compile stored. It returns the warm compile's module
// (globals laid out, IL as lowered).
func coldWarm(tb testing.TB, m *mach.Machine, cfg driver.Config) (mod *ir.Module, cold, warm *driver.Compiled) {
	tb.Helper()
	compile := func() (*ir.Module, *driver.Compiled) {
		mod, err := livermore.SuiteModule()
		if err != nil {
			tb.Fatal(err)
		}
		out, err := driver.CompileModule(m, mod, cfg)
		if err != nil {
			tb.Fatal(err)
		}
		return mod, out
	}
	_, cold = compile()
	stored := cfg.Cache.Stats()
	mod, warm = compile()
	hits := cfg.Cache.Stats().Hits() - stored.Hits()
	if n := int64(len(mod.Funcs)); stored.Stores != n || hits != n || warm.CacheHits != len(mod.Funcs) {
		tb.Fatalf("%d functions: %d stored, %d cache hits, %d served", n, stored.Stores, hits, warm.CacheHits)
	}
	if warm.Prog.Print() != cold.Prog.Print() {
		tb.Error("warm assembly differs from cold")
	}
	if !reflect.DeepEqual(warm.Stats, cold.Stats) {
		tb.Error("warm Stats differ from cold")
	}
	if warm.Sel != cold.Sel {
		tb.Errorf("warm Sel %+v, cold %+v", warm.Sel, cold.Sel)
	}
	return mod, cold, warm
}

func freshCache(tb testing.TB) *cache.Cache {
	tb.Helper()
	c, err := cache.New(cache.Options{Registry: metrics.NewRegistry()})
	if err != nil {
		tb.Fatal(err)
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

// warmHit is a compile request when every function is in the cache: the
// Livermore suite module (28 functions) for r2000/postpass on one worker
// with tracing off, compiled once to fill a fresh cache and once from
// it. Its methods are the leaves the benchmark times and the test holds
// to a budget, each one call over the whole module.
type warmHit struct {
	m        *mach.Machine
	cfg      driver.Config
	mod      *ir.Module // the warm compile's: globals laid out, IL as lowered
	warm     *driver.Compiled
	want     string // what the cold compile printed
	text     string // mod as textual IL
	cfgKey   [32]byte
	payloads [][]byte // each function's cache entry
}

func newWarmHit(tb testing.TB) *warmHit {
	m, err := targets.Load("r2000")
	if err != nil {
		tb.Fatal(err)
	}
	cfg := driver.Config{Strategy: strategy.Postpass, Workers: 1, Cache: freshCache(tb)}
	mod, cold, warm := coldWarm(tb, m, cfg)
	w := &warmHit{m: m, cfg: cfg, mod: mod, warm: warm, want: cold.Prog.Print(), text: iltext.Print(mod),
		cfgKey: cache.ConfigKey(cfg.Strategy, cfg.Options, false)}
	for _, fn := range mod.Funcs {
		payload, ok := w.get(fn)
		if !ok {
			tb.Fatalf("%s: not in the cache", fn.Name)
		}
		w.payloads = append(w.payloads, payload)
	}
	return w
}

// get is fn's entry: fingerprint, key, Get.
func (w *warmHit) get(fn *ir.Func) ([]byte, bool) {
	return w.cfg.Cache.Get(cache.FuncKey(fn.Fingerprint(), w.m.Fingerprint(), w.cfgKey))
}

// splice serves every function as a hit does, without the pipeline
// (get, Decode), and prints the program.
func (w *warmHit) splice(tb testing.TB) string {
	prog := asm.Program{Machine: w.m, Name: w.mod.Name, Globals: w.warm.Prog.Globals}
	prog.Funcs = make([]*asm.Func, 0, len(w.mod.Funcs))
	for _, fn := range w.mod.Funcs {
		payload, ok := w.get(fn)
		if !ok {
			tb.Fatalf("%s: not in the cache", fn.Name)
		}
		ent, err := cache.Decode(payload, w.m, fn)
		if err != nil {
			tb.Fatal(err)
		}
		prog.Funcs = append(prog.Funcs, ent.Func)
	}
	return prog.Print()
}

// hit is the same through CompileModule.
func (w *warmHit) hit(tb testing.TB) *driver.Compiled {
	out, err := driver.CompileModule(w.m, w.mod, w.cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if out.CacheHits != len(w.mod.Funcs) {
		tb.Fatalf("%d hits of %d functions", out.CacheHits, len(w.mod.Funcs))
	}
	return out
}

// parse is the IL front end as a compile runs it: the module's textual
// IL parsed (LowerScoped), and given back.
func (w *warmHit) parse(tb testing.TB) { lowerAndGiveBack(tb, "il", w.mod.Name, w.text) }

// frontend is the C front end as a compile runs it over the kernels'
// sources: each lowered (LowerScoped), and given back.
func (w *warmHit) frontend(tb testing.TB) {
	for i := range livermore.Kernels {
		lowerAndGiveBack(tb, "c", "loop.c", livermore.Kernels[i].Source)
	}
}

func lowerAndGiveBack(tb testing.TB, lang, name, src string) {
	_, done, err := driver.LowerScoped(lang, name, src)
	if err != nil {
		tb.Fatal(err)
	}
	done()
}

func (w *warmHit) fingerprint(testing.TB) {
	for _, fn := range w.mod.Funcs {
		sinkDigest = fn.Fingerprint()
	}
}

func (w *warmHit) decode(tb testing.TB) {
	for j, fn := range w.mod.Funcs {
		if _, err := cache.Decode(w.payloads[j], w.m, fn); err != nil {
			tb.Fatal(err)
		}
	}
}

func (w *warmHit) print(testing.TB) { sink = w.warm.Prog.Print() }

// Results the compiler must not discard.
var (
	sink       string
	sinkDigest ir.Digest
)

// BenchmarkWarmHit measures what a compile request costs when every
// function is in the cache (warmHit): the whole hit through
// CompileModule and the printer, and each leaf it is made of — the
// front end, from the module's textual IL or the kernels' C sources,
// fingerprinting, decoding the cached entries, printing. One op is the
// whole module.
func BenchmarkWarmHit(b *testing.B) {
	w := newWarmHit(b)
	source := 0
	for i := range livermore.Kernels {
		source += len(livermore.Kernels[i].Source)
	}
	for _, leaf := range []struct {
		name  string
		bytes int
		run   func(testing.TB)
	}{
		{"hit", 0, func(tb testing.TB) { sink = w.hit(tb).Prog.Print() }},
		{"parse", len(w.text), w.parse},
		{"frontend", source, w.frontend},
		{"fingerprint", 0, w.fingerprint},
		{"decode", 0, w.decode},
		{"print", len(w.want), w.print},
	} {
		b.Run(leaf.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(leaf.bytes))
			for range b.N {
				leaf.run(b)
			}
		})
	}
}

// Allocations and bytes per function of the warm leaves: a cache hit
// (splice), the same hit through CompileModule, the parse of the
// module's textual IL, and the C front end, each front end lowering as a
// compile does and giving its IL back. Each is about 15 % above what the
// code allocated when the ceilings were set: the hits 9.8 and 4.8
// allocations, 7 164 and 604 bytes, once a hit became a splice of
// printed text (what is left is the fingerprint's fresh scratch and
// Print's buffer); parse 13.0 allocations and 2 542 bytes, and the C
// front end 36.0 and 3 143, once both built each function's CFG in the
// pooled front end's kept ir.CFG and copied it out once. The worker and
// the front end are kept between compiles, also under -race, so one
// ceiling holds with and without it.
const (
	hitAllocsPerFn        = 11.3
	compileHitAllocsPerFn = 5.6
	parseAllocsPerFn      = 15
	frontendAllocsPerFn   = 41.5
	hitBytesPerFn         = 8200
	compileHitBytesPerFn  = 700
	parseBytesPerFn       = 2950
	frontendBytesPerFn    = 3650
)

// TestWarmHitAllocBudget holds four warm leaves to an allocation budget,
// so a regression on the warm path fails `go test` and not only the
// benchmark.
func TestWarmHitAllocBudget(t *testing.T) {
	w := newWarmHit(t)
	n := float64(len(w.mod.Funcs))
	var got string
	for _, c := range []struct {
		what          string
		run           func()
		allocs, bytes float64 // budgets per function
	}{
		{"a cache hit", func() { got = w.splice(t) }, hitAllocsPerFn, hitBytesPerFn},
		{"a cache hit through CompileModule", func() { w.hit(t) }, compileHitAllocsPerFn, compileHitBytesPerFn},
		{"iltext.Parse", func() { w.parse(t) }, parseAllocsPerFn, parseBytesPerFn},
		{"the C front end", func() { w.frontend(t) }, frontendAllocsPerFn, frontendBytesPerFn},
	} {
		allocs, bytes := gentest.AllocsPerRun(10, nil, c.run)
		allocs, bytes = allocs/n, bytes/n
		t.Logf("%s allocates %.1f times and %.0f bytes per function", c.what, allocs, bytes)
		if allocs > c.allocs {
			t.Errorf("%s allocates %.1f times per function, budget %g", c.what, allocs, c.allocs)
		}
		if bytes > c.bytes {
			t.Errorf("%s allocates %.0f bytes per function, budget %g", c.what, bytes, c.bytes)
		}
	}
	if got != w.want {
		t.Error("the measured hit path does not print what the cold compile printed")
	}
}
