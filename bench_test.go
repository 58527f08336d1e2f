// Benchmarks regenerating the paper's evaluation (one benchmark per
// table/figure) plus ablation benches for the design choices DESIGN.md
// calls out. Simulated cycle counts are reported as custom metrics, so
// `go test -bench . -benchmem` reproduces the paper's series alongside
// the host-side compile costs.
package marion

import (
	"fmt"
	"testing"

	"marion/internal/asm"
	"marion/internal/cache"
	"marion/internal/driver"
	"marion/internal/experiments"
	"marion/internal/gentest"
	"marion/internal/iltext"
	"marion/internal/ir"
	"marion/internal/livermore"
	"marion/internal/mach"
	"marion/internal/maril"
	"marion/internal/metrics"
	"marion/internal/regalloc"
	"marion/internal/sel"
	"marion/internal/sim"
	"marion/internal/strategy"
	"marion/internal/targets"
	"marion/internal/verify"
	"marion/internal/xform"
)

// BenchmarkTable1Descriptions measures the code generator generator: the
// time to turn the three Maril descriptions into machine tables, and
// prints Table 1 once.
func BenchmarkTable1Descriptions(b *testing.B) {
	rows, err := experiments.Table1()
	if err != nil {
		b.Fatal(err)
	}
	b.Log("\n" + experiments.FormatTable1(rows))
	for _, name := range []string{"m88000", "r2000", "i860"} {
		src, _ := targets.Source(name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := maril.Parse(name, src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable2SourceSize prints the system-size table (the paper's
// Table 2 analogue); the measured work is the line count itself.
func BenchmarkTable2SourceSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(".")
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.FormatTable2(rows))
		}
	}
}

// BenchmarkTable3Compile measures back end compile time per target and
// strategy over the Livermore suite — the paper's Table 3 rows. IPS runs
// slower than Postpass (it schedules twice) and RASE slower again (it
// schedules four times); the i860 compiles slowest.
func BenchmarkTable3Compile(b *testing.B) {
	for _, target := range []string{"r2000", "i860"} {
		for _, st := range []strategy.Kind{strategy.Postpass, strategy.IPS, strategy.RASE} {
			b.Run(fmt.Sprintf("%s/%s", target, st), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for k := range livermore.Kernels {
						if _, err := livermore.Build(&livermore.Kernels[k], target, st); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}

// BenchmarkTable4Kernels simulates each Livermore kernel on the R2000
// (cache on) under Postpass, reporting simulated cycles and the
// actual/estimated ratio as custom metrics — the paper's Table 4 series.
func BenchmarkTable4Kernels(b *testing.B) {
	for k := range livermore.Kernels {
		kern := &livermore.Kernels[k]
		b.Run(fmt.Sprintf("loop%d", kern.ID), func(b *testing.B) {
			c, err := livermore.Build(kern, "r2000", strategy.Postpass)
			if err != nil {
				b.Fatal(err)
			}
			var cycles int64
			var ratio float64
			for i := 0; i < b.N; i++ {
				s := sim.New(c.Prog, sim.Options{Cache: sim.DefaultCache()})
				if _, err := s.Run("init"); err != nil {
					b.Fatal(err)
				}
				st, err := s.Run("kern", sim.Int(1))
				if err != nil {
					b.Fatal(err)
				}
				cycles = st.Cycles
				var est int64
				for blk, n := range st.BlockCounts {
					est += int64(blk.SchedCost) * n
				}
				if est > 0 {
					ratio = float64(st.Cycles) / float64(est)
				}
			}
			b.ReportMetric(float64(cycles), "simcycles")
			b.ReportMetric(ratio, "actual/est")
		})
	}
}

// BenchmarkFigure7 regenerates the i860 dual-operation schedule.
func BenchmarkFigure7(b *testing.B) {
	var out string
	var err error
	for i := 0; i < b.N; i++ {
		out, err = experiments.Figure7()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + out)
}

// BenchmarkStrategySpeedup reports total simulated cycles per strategy
// over the Livermore suite (the §5 comparison: IPS/RASE vs Postpass vs
// the local-allocation baseline).
func BenchmarkStrategySpeedup(b *testing.B) {
	for _, st := range []strategy.Kind{strategy.Local, strategy.Naive, strategy.Postpass, strategy.IPS, strategy.RASE} {
		b.Run(st.String(), func(b *testing.B) {
			var total int64
			for i := 0; i < b.N; i++ {
				total = 0
				for k := range livermore.Kernels {
					c, err := livermore.Build(&livermore.Kernels[k], "r2000", st)
					if err != nil {
						b.Fatal(err)
					}
					_, stats, err := livermore.Run(c, 1, sim.CacheConfig{})
					if err != nil {
						b.Fatal(err)
					}
					total += stats.Cycles
				}
			}
			b.ReportMetric(float64(total), "simcycles")
		})
	}
}

// ---------------------------------------------------------------------
// Ablations (DESIGN.md §5): each reports simulated cycles with one
// scheduler mechanism changed.

func ablationCycles(b *testing.B, opts strategy.Options, target string, ids []int) int64 {
	b.Helper()
	var total int64
	for _, id := range ids {
		k := livermore.ByID(id)
		c, err := driver.Compile(target, "c", fmt.Sprintf("loop%d.c", id), k.Source, driver.Config{
			Strategy: strategy.Postpass, Options: opts,
		})
		if err != nil {
			b.Fatal(err)
		}
		sum, stats, err := livermore.Run(c, 1, sim.CacheConfig{})
		if err != nil {
			b.Fatal(err)
		}
		if want := k.Ref(1); sum != want {
			b.Fatalf("loop%d: wrong checksum under ablation (%v want %v)", id, sum, want)
		}
		total += stats.Cycles
	}
	return total
}

// BenchmarkAblationHeuristic compares the max-distance priority against
// FIFO candidate order.
func BenchmarkAblationHeuristic(b *testing.B) {
	ids := []int{1, 5, 7, 9}
	for _, fifo := range []bool{false, true} {
		name := "maxdist"
		if fifo {
			name = "fifo"
		}
		b.Run(name, func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				cycles = ablationCycles(b, strategy.Options{FIFO: fifo}, "r2000", ids)
			}
			b.ReportMetric(float64(cycles), "simcycles")
		})
	}
}

// BenchmarkAblationHazardCheck compares full in-flight resource checking
// against the paper's current-cycle-only scheme (§4.3).
func BenchmarkAblationHazardCheck(b *testing.B) {
	ids := []int{1, 5, 7, 9}
	for _, cur := range []bool{false, true} {
		name := "full"
		if cur {
			name = "current-cycle-only"
		}
		b.Run(name, func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				cycles = ablationCycles(b, strategy.Options{CurrentCycleOnly: cur}, "r2000", ids)
			}
			b.ReportMetric(float64(cycles), "simcycles")
		})
	}
}

// BenchmarkAblationEdgeTypes measures what the type-3 (anti/output)
// edges cost the schedule (§4.1): the scheduler's ESTIMATED cycles with
// and without them. Code compiled without anti edges is not executed —
// post-allocation it may be incorrect; this quantifies the constraint.
func BenchmarkAblationEdgeTypes(b *testing.B) {
	ids := []int{1, 7, 9}
	for _, noAnti := range []bool{false, true} {
		name := "with-anti"
		if noAnti {
			name = "no-anti-edges"
		}
		b.Run(name, func(b *testing.B) {
			var est int
			for i := 0; i < b.N; i++ {
				est = 0
				for _, id := range ids {
					k := livermore.ByID(id)
					c, err := driver.Compile("r2000", "c", fmt.Sprintf("loop%d.c", id), k.Source, driver.Config{
						Strategy: strategy.Postpass,
						Options:  strategy.Options{NoAnti: noAnti},
					})
					if err != nil {
						b.Fatal(err)
					}
					for _, st := range c.Stats {
						est += st.EstimatedCycles
					}
				}
			}
			b.ReportMetric(float64(est), "est-cycles")
		})
	}
}

// BenchmarkAblationEAP compares the i860's temporal scheduling of
// sub-operations against running the same code with FIFO order (the
// "treat EAPs as ordinary pipelines" alternative of §4.6 approximated by
// giving the scheduler no freedom).
func BenchmarkAblationEAP(b *testing.B) {
	ids := []int{1, 7, 9}
	for _, fifo := range []bool{false, true} {
		name := "temporal-overlap"
		if fifo {
			name = "in-order-subops"
		}
		b.Run(name, func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				cycles = ablationCycles(b, strategy.Options{FIFO: fifo}, "i860", ids)
			}
			b.ReportMetric(float64(cycles), "simcycles")
		})
	}
}

// BenchmarkAblationDelaySlotFill compares the paper's always-nop slot
// policy against the optional Gross & Hennessy-style filling pass
// (§4.4); checksums are re-verified with filling enabled.
func BenchmarkAblationDelaySlotFill(b *testing.B) {
	ids := []int{1, 3, 5, 11, 12}
	for _, fill := range []bool{false, true} {
		name := "nops"
		if fill {
			name = "filled"
		}
		b.Run(name, func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				cycles = ablationCycles(b, strategy.Options{FillDelaySlots: fill}, "r2000", ids)
			}
			b.ReportMetric(float64(cycles), "simcycles")
		})
	}
}

// BenchmarkParallelBackend measures the parallel per-function back end
// against the sequential path on the Livermore suite (all 14 kernels
// merged into one 28-function module). Output is byte-identical at any
// worker count (see TestSuiteParallelDeterminism); only wall time
// changes. On a multi-core host, >= 4 workers is expected to run the
// back end >= 1.5x faster than workers=1. Lowering (front end) runs
// outside the timer: this measures the back end pipeline only.
func BenchmarkParallelBackend(b *testing.B) {
	m, err := targets.Load("r2000")
	if err != nil {
		b.Fatal(err)
	}
	var baseline string
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				// The back end mutates the IL in place (glue rewrites),
				// so each run gets a freshly lowered module.
				mod, err := livermore.SuiteModule()
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				c, err := driver.CompileModule(m, mod, driver.Config{
					Strategy: strategy.Postpass, Workers: w,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if asm := c.Prog.Print(); baseline == "" {
					baseline = asm
				} else if asm != baseline {
					b.Fatal("assembly differs from workers=1 baseline")
				}
				b.StartTimer()
			}
		})
	}
}

// bigBlock is the text of gentest's big-block fixture.
func bigBlock() string {
	for _, u := range gentest.Golden() {
		if u.Name == gentest.BigBlock {
			return u.Text
		}
	}
	panic("gentest.Golden has no " + gentest.BigBlock)
}

// BenchmarkBigBlock measures the back end on one straight-line block of
// 24, 64, 96 and 128 statements (functions big24/big64/big96/big128 of
// the golden big-block fixture) under RASE, the strategy with the most
// scheduling passes: how compile time and allocation grow with block
// length, per target. Lowering runs outside the timer.
func BenchmarkBigBlock(b *testing.B) {
	src := bigBlock()
	for _, target := range []string{"r2000", "m88000", "i860"} {
		m, err := targets.Load(target)
		if err != nil {
			b.Fatal(err)
		}
		for _, stmts := range []int{24, 64, 96, 128} {
			b.Run(fmt.Sprintf("%s/%d", target, stmts), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					// The back end mutates the IL in place, so each run
					// gets a freshly lowered function.
					mod, err := driver.Frontend(gentest.BigBlock, src)
					if err != nil {
						b.Fatal(err)
					}
					fn := mod.Lookup(fmt.Sprintf("big%d", stmts))
					if fn == nil {
						b.Fatalf("fixture has no big%d", stmts)
					}
					mod.Funcs = []*ir.Func{fn}
					b.StartTimer()
					if _, err := driver.CompileModule(m, mod, driver.Config{Strategy: strategy.RASE, Workers: 1}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSelect measures instruction selection alone over the full
// Livermore suite (28 functions). Lowering and the glue transform run
// outside the timer, and selection does not mutate the IL, so each
// iteration selects the same functions.
func BenchmarkSelect(b *testing.B) {
	for _, target := range []string{"r2000", "m88000", "i860"} {
		m, err := targets.Load(target)
		if err != nil {
			b.Fatal(err)
		}
		mod, err := livermore.SuiteModule()
		if err != nil {
			b.Fatal(err)
		}
		for _, fn := range mod.Funcs {
			xform.Apply(m, fn)
		}
		b.Run(target, func(b *testing.B) {
			var tried int64
			for i := 0; i < b.N; i++ {
				tried = 0
				for _, fn := range mod.Funcs {
					_, counters, err := sel.SelectOpts(m, fn, sel.Options{})
					if err != nil {
						b.Fatal(err)
					}
					tried += counters.Tried
				}
			}
			b.ReportMetric(float64(tried), "templates-tried")
		})
	}
}

// BenchmarkRegalloc measures register allocation alone, per target: on
// the Livermore suite (28 short-block functions, the cold_loops shape)
// and on the big-block fixture's 96-statement function (the densest
// interference graph in the corpus). Lowering, the glue transform and
// selection run outside the timer; allocation rewrites the selected code
// in place, so each iteration selects afresh.
func BenchmarkRegalloc(b *testing.B) {
	src := bigBlock()
	inputs := []struct {
		name string
		fns  func() ([]*ir.Func, error)
	}{
		{"livermore", func() ([]*ir.Func, error) {
			mod, err := livermore.SuiteModule()
			if err != nil {
				return nil, err
			}
			return mod.Funcs, nil
		}},
		{"big96", func() ([]*ir.Func, error) {
			mod, err := driver.Frontend(gentest.BigBlock, src)
			if err != nil {
				return nil, err
			}
			return []*ir.Func{mod.Lookup("big96")}, nil
		}},
	}
	for _, target := range []string{"r2000", "m88000", "i860"} {
		m, err := targets.Load(target)
		if err != nil {
			b.Fatal(err)
		}
		for _, in := range inputs {
			b.Run(target+"/"+in.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					fns, err := in.fns()
					if err != nil {
						b.Fatal(err)
					}
					afs := make([]*asm.Func, len(fns))
					for j, fn := range fns {
						xform.Apply(m, fn)
						if afs[j], err = sel.Select(m, fn); err != nil {
							b.Fatal(err)
						}
					}
					b.StartTimer()
					for _, af := range afs {
						if _, err := regalloc.Allocate(m, af); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}

// BenchmarkVerify measures the emitted-code verifier alone, per target:
// on the Livermore suite and on the big-block fixture's 96-statement
// function, both compiled under Postpass outside the timer. Verification
// only reads the code, so every iteration verifies the same functions;
// ns/fn is the time per verified function.
func BenchmarkVerify(b *testing.B) {
	src := bigBlock()
	inputs := []struct {
		name string
		mod  func() (*ir.Module, error)
	}{
		{"livermore", livermore.SuiteModule},
		{"big96", func() (*ir.Module, error) {
			mod, err := driver.Frontend(gentest.BigBlock, src)
			if err != nil {
				return nil, err
			}
			mod.Funcs = []*ir.Func{mod.Lookup("big96")}
			return mod, nil
		}},
	}
	for _, target := range []string{"r2000", "m88000", "i860"} {
		m, err := targets.Load(target)
		if err != nil {
			b.Fatal(err)
		}
		for _, in := range inputs {
			b.Run(target+"/"+in.name, func(b *testing.B) {
				mod, err := in.mod()
				if err != nil {
					b.Fatal(err)
				}
				c, err := driver.CompileModule(m, mod, driver.Config{Strategy: strategy.Postpass})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, af := range c.Prog.Funcs {
						if rep := verify.Func(m, af, verify.Options{}); !rep.Empty() {
							b.Fatal(rep)
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(c.Prog.Funcs)), "ns/fn")
			})
		}
	}
}

// BenchmarkXform measures the glue transform alone over the Livermore
// suite, per target. It rewrites the IL in place, so each iteration
// lowers afresh outside the timer.
func BenchmarkXform(b *testing.B) {
	for _, target := range []string{"r2000", "m88000", "i860"} {
		m, err := targets.Load(target)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(target, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				mod, err := livermore.SuiteModule()
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for _, fn := range mod.Funcs {
					xform.Apply(m, fn)
				}
			}
		})
	}
}

// BenchmarkWarmHit measures what a compile request costs when every
// function is in the cache, on the Livermore suite module (28
// functions) for r2000/postpass: the whole hit through the pipeline and
// the printer, and each leaf it is made of — the front end, from the
// kernels' C sources or the module's textual IL, fingerprinting,
// decoding the cached entries, printing. One op is the whole module.
func BenchmarkWarmHit(b *testing.B) {
	m, err := targets.Load("r2000")
	if err != nil {
		b.Fatal(err)
	}
	c, err := cache.New(cache.Options{Registry: metrics.NewRegistry()})
	if err != nil {
		b.Fatal(err)
	}
	cfg := driver.Config{Strategy: strategy.Postpass, Workers: 1, Cache: c}
	compile := func() (*ir.Module, *driver.Compiled) {
		mod, err := livermore.SuiteModule()
		if err != nil {
			b.Fatal(err)
		}
		out, err := driver.CompileModule(m, mod, cfg)
		if err != nil {
			b.Fatal(err)
		}
		return mod, out
	}
	compile() // cold: fills the cache
	// A module that was only ever served from the cache: its globals
	// are laid out and its IL is as the front end left it.
	mod, warm := compile()
	if warm.CacheHits != len(mod.Funcs) {
		b.Fatalf("%d hits of %d", warm.CacheHits, len(mod.Funcs))
	}
	text := iltext.Print(mod)
	cfgKey := cache.ConfigKey(cfg.Strategy, cfg.Options, false)
	payloads := make([][]byte, len(mod.Funcs))
	for i, fn := range mod.Funcs {
		var ok bool
		if payloads[i], ok = c.Get(cache.FuncKey(fn.Fingerprint(), m.Fingerprint(), cfgKey)); !ok {
			b.Fatalf("%s: not in the cache", fn.Name)
		}
	}

	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out, err := driver.CompileModule(m, mod, cfg)
			if err != nil || out.CacheHits != len(mod.Funcs) {
				b.Fatalf("%v, %d hits", err, out.CacheHits)
			}
			sink = out.Prog.Print()
		}
	})
	b.Run("parse", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(text)))
		for i := 0; i < b.N; i++ {
			if _, err := iltext.Parse(mod.Name, text); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("frontend", func(b *testing.B) {
		b.ReportAllocs()
		size := 0
		for i := range livermore.Kernels {
			size += len(livermore.Kernels[i].Source)
		}
		b.SetBytes(int64(size))
		for i := 0; i < b.N; i++ {
			for j := range livermore.Kernels {
				if _, err := driver.Frontend("loop.c", livermore.Kernels[j].Source); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("fingerprint", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, fn := range mod.Funcs {
				sinkDigest = fn.Fingerprint()
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j, fn := range mod.Funcs {
				if _, err := cache.Decode(payloads[j], m, fn); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("print", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink = warm.Prog.Print()
		}
		b.SetBytes(int64(len(sink)))
	})
}

// BenchmarkColdMiss measures what a compile request costs when no
// function is in the cache, as mariond compiles one: each unit of
// gentest.Serve (the benchmark's serve_cold templates, 8 to 20
// functions each) on one worker, with the verifier on and a cache of
// its own, so every function is a miss that is compiled,
// admission-checked, encoded and stored; for each of the nine code
// generators (r2000, m88000 and i860 under postpass, ips and rase). One
// op is every unit under every generator. Lowering and the caches are
// made outside the timer. `-memprofile` attributes B/op to the phases.
func BenchmarkColdMiss(b *testing.B) {
	serve := gentest.Serve()
	type gen struct {
		m    *mach.Machine
		kind strategy.Kind
	}
	var gens []gen
	for _, target := range []string{"r2000", "m88000", "i860"} {
		m, err := targets.Load(target)
		if err != nil {
			b.Fatal(err)
		}
		for _, kind := range []strategy.Kind{strategy.Postpass, strategy.IPS, strategy.RASE} {
			gens = append(gens, gen{m, kind})
		}
	}
	type unit struct {
		gen
		mod *ir.Module
		c   *cache.Cache
	}
	lower := func() (units []unit, funcs int) {
		for _, g := range gens {
			for _, u := range serve {
				mod, err := driver.Lower(u.Lang, u.Name, u.Text)
				if err != nil {
					b.Fatalf("%s: %v", u.Name, err)
				}
				c, err := cache.New(cache.Options{Registry: metrics.NewRegistry()})
				if err != nil {
					b.Fatal(err)
				}
				units = append(units, unit{g, mod, c})
				funcs += len(mod.Funcs)
			}
		}
		return units, funcs
	}
	b.ReportAllocs()
	b.ResetTimer()
	funcs := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		units, n := lower()
		funcs += n
		b.StartTimer()
		for _, u := range units {
			out, err := driver.CompileModule(u.m, u.mod, driver.Config{
				Strategy: u.kind, Workers: 1, Verify: true, Cache: u.c,
			})
			if err != nil {
				b.Fatal(err)
			}
			if out.CacheHits != 0 || !out.Verify.Empty() {
				b.Fatalf("%s: %d cache hits, findings:\n%s", u.mod.Name, out.CacheHits, out.Verify)
			}
		}
	}
	b.ReportMetric(float64(funcs)/float64(b.N), "functions/op")
}

// BenchmarkSmallUnits measures a stream of small compiles, as the
// benchmark's cold_bigblock runs one: every function of the big-block
// fixture (one straight-line block of 24 to 128 statements) in a module
// of its own, compiled by CompileModule on one worker with no cache,
// for each of the nine code generators. Each unit is one Run, so what a
// Run sets up rather than borrows from the pipeline's pool shows here
// once a function. One op is every unit under every generator; lowering
// is outside the timer.
func BenchmarkSmallUnits(b *testing.B) {
	type unit struct {
		m    *mach.Machine
		kind strategy.Kind
		mod  *ir.Module
	}
	lower := func() (units []unit) {
		for _, target := range []string{"r2000", "m88000", "i860"} {
			m, err := targets.Load(target)
			if err != nil {
				b.Fatal(err)
			}
			for _, kind := range []strategy.Kind{strategy.Postpass, strategy.IPS, strategy.RASE} {
				mod, err := driver.Frontend(gentest.BigBlock, bigBlock())
				if err != nil {
					b.Fatal(err)
				}
				for _, fn := range mod.Funcs {
					units = append(units, unit{m, kind, &ir.Module{Name: fn.Name, Globals: mod.Globals, Funcs: []*ir.Func{fn}}})
				}
			}
		}
		return units
	}
	b.ReportAllocs()
	b.ResetTimer()
	funcs := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		units := lower()
		funcs += len(units)
		b.StartTimer()
		for _, u := range units {
			if _, err := driver.CompileModule(u.m, u.mod, driver.Config{Strategy: u.kind, Workers: 1}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(funcs)/float64(b.N), "functions/op")
}

// Results the compiler must not discard.
var (
	sink       string
	sinkDigest ir.Digest
)

// BenchmarkSimulator measures raw simulator throughput.
func BenchmarkSimulator(b *testing.B) {
	k := livermore.ByID(3) // inner product
	c, err := livermore.Build(k, "r2000", strategy.Postpass)
	if err != nil {
		b.Fatal(err)
	}
	s := sim.New(c.Prog, sim.Options{})
	if _, err := s.Run("init"); err != nil {
		b.Fatal(err)
	}
	var instrs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := s.Run("kern", sim.Int(1))
		if err != nil {
			b.Fatal(err)
		}
		instrs = st.Instrs
	}
	b.ReportMetric(float64(instrs), "sim-instrs/op")
}
