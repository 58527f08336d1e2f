package driver_test

import (
	"testing"
	"time"

	"marion/internal/driver"
	"marion/internal/gentest"
	"marion/internal/ir"
	"marion/internal/mach"
	"marion/internal/strategy"
	"marion/internal/targets"
)

// The cold request paths, each built once for the benchmark that times
// it and the gate that holds it to an allocation budget; the warm path
// is in warmhit_test.go.

// codeGen is one code generator: a machine and a strategy.
type codeGen struct {
	target string
	m      *mach.Machine
	kind   strategy.Kind
}

// codeGens returns the nine code generators the benchmarks time: r2000,
// m88000 and i860, each under postpass, ips and rase. The allocation
// gates take its diagonal: r2000/postpass, m88000/ips, i860/rase.
func codeGens(tb testing.TB) []codeGen {
	var gens []codeGen
	for _, target := range []string{"r2000", "m88000", "i860"} {
		m, err := targets.Load(target)
		if err != nil {
			tb.Fatal(err)
		}
		for _, kind := range []strategy.Kind{strategy.Postpass, strategy.IPS, strategy.RASE} {
			gens = append(gens, codeGen{target, m, kind})
		}
	}
	return gens
}

func diagonal(gens []codeGen) []codeGen { return []codeGen{gens[0], gens[4], gens[8]} }

// job is one lowered module to compile with one code generator.
type job struct {
	m   *mach.Machine
	mod *ir.Module
	cfg driver.Config
}

// coldMissJobs lowers each unit of gentest.Serve (the benchmark's
// serve_cold templates, 8 to 20 functions each) for each generator, on
// one worker, with the verifier on and a cache of its own, so that every
// function is a miss that is compiled, admission-checked, encoded and
// stored. It returns the jobs and their functions.
func coldMissJobs(tb testing.TB, gens []codeGen) (jobs []job, funcs int) {
	for _, g := range gens {
		for _, u := range gentest.Serve() {
			mod, err := driver.Lower(u.Lang, u.Name, u.Text)
			if err != nil {
				tb.Fatalf("%s: %v", u.Name, err)
			}
			cfg := driver.Config{Strategy: g.kind, Workers: 1, Verify: true, Cache: freshCache(tb)}
			jobs = append(jobs, job{g.m, mod, cfg})
			funcs += len(mod.Funcs)
		}
	}
	return jobs, funcs
}

// smallJobs puts each function of gentest's big-block fixture (one
// straight-line block of 24 to 128 statements) in a module of its own,
// for each generator, on one worker with no cache and the verifier off.
// Each job is one Run, so whatever a Run sets up rather than borrows
// from the pipeline's pool is paid once a function.
func smallJobs(tb testing.TB, gens []codeGen) (jobs []job, funcs int) {
	big := gentest.Fixture(gentest.BigBlock)
	for _, g := range gens {
		mod, err := driver.Lower(big.Lang, big.Name, big.Text)
		if err != nil {
			tb.Fatal(err)
		}
		for _, fn := range mod.Funcs {
			one := &ir.Module{Name: fn.Name, Globals: mod.Globals, Funcs: []*ir.Func{fn}}
			jobs = append(jobs, job{g.m, one, driver.Config{Strategy: g.kind, Workers: 1}})
		}
	}
	return jobs, len(jobs)
}

// compileAll compiles every job, failing on an error, a cache hit or a
// verifier finding, and hands each result to each when it is not nil.
func compileAll(tb testing.TB, jobs []job, each func(*driver.Compiled)) {
	for _, j := range jobs {
		out, err := driver.CompileModule(j.m, j.mod, j.cfg)
		if err != nil {
			tb.Fatal(err)
		}
		if out.CacheHits != 0 || !out.Verify.Empty() {
			tb.Fatalf("%s: %d cache hits, findings:\n%s", j.mod.Name, out.CacheHits, out.Verify)
		}
		if each != nil {
			each(out)
		}
	}
}

// benchJobs times compileAll over fresh jobs each op, built outside the
// timer, and reports functions/op. It returns the functions compiled.
func benchJobs(b *testing.B, build func() ([]job, int), each func(*driver.Compiled)) (funcs float64) {
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		b.StopTimer()
		jobs, n := build()
		funcs += float64(n)
		b.StartTimer()
		compileAll(b, jobs, each)
	}
	b.ReportMetric(funcs/float64(b.N), "functions/op")
	return funcs
}

// allocsPerFunc is what compiling one set of jobs allocates per
// function: a set is built before each compile, outside the count, the
// first compiled as the warm-up and the next two measured. The last set
// is dropped before the next is built, so one set is live at a time.
func allocsPerFunc(t *testing.T, build func() ([]job, int)) (allocs, bytes float64) {
	var jobs []job
	funcs := 0
	allocs, bytes = gentest.AllocsPerRun(2, func() { jobs = nil; jobs, funcs = build() }, func() { compileAll(t, jobs, nil) })
	return allocs / float64(funcs), bytes / float64(funcs)
}

// BenchmarkColdMiss measures what a compile request costs when no
// function is in the cache (coldMissJobs) under each of the nine code
// generators. One op is every unit under every generator. Beside B/op
// and allocs/op it reports, from each compile's PhaseTimes and Sel, the
// time per function of each pipeline phase and the templates selection
// tried per function. `-memprofile` attributes B/op to the phases.
func BenchmarkColdMiss(b *testing.B) {
	gens := codeGens(b)
	phases := map[string]time.Duration{}
	var tried int64
	funcs := benchJobs(b, func() ([]job, int) { return coldMissJobs(b, gens) }, func(out *driver.Compiled) {
		for p, d := range out.PhaseTimes {
			phases[p] += d
		}
		tried += out.Sel.Tried
	})
	for _, p := range []string{"xform", "select", "strategy", "verify", "cachestore"} {
		b.ReportMetric(float64(phases[p].Nanoseconds())/funcs, p+"-ns/fn")
	}
	b.ReportMetric(float64(tried)/funcs, "templates-tried/fn")
}

// BenchmarkSmallUnits measures a stream of small compiles (smallJobs)
// under each of the nine code generators. One op is every unit under
// every generator.
func BenchmarkSmallUnits(b *testing.B) {
	gens := codeGens(b)
	benchJobs(b, func() ([]job, int) { return smallJobs(b, gens) }, nil)
}

// Allocations and bytes per function of a miss through CompileModule
// with the cache and the verifier on, as mariond compiles a request:
// the back end on one worker, the admission check and the store. Each
// is about 15 % above what the code allocated when the ceilings were
// set, when every phase began building code in the worker's arena and
// the driver copying each finished function out once: 42.6 allocations
// and 11 647 bytes. The worker is kept between compiles, also under
// -race, so one ceiling holds with and without it.
const (
	coldMissAllocsPerFn = 49
	coldMissBytesPerFn  = 13400
)

// TestColdMissAllocBudget holds the miss path (coldMissJobs) on the
// diagonal's three generators to an allocation budget, so a regression
// of the back end's garbage fails `go test` and not only the benchmark.
func TestColdMissAllocBudget(t *testing.T) {
	gens := diagonal(codeGens(t))
	allocs, bytes := allocsPerFunc(t, func() ([]job, int) { return coldMissJobs(t, gens) })
	t.Logf("a miss allocates %.1f times and %.0f bytes per function", allocs, bytes)
	if allocs > coldMissAllocsPerFn {
		t.Errorf("a miss allocates %.1f times per function, budget %d", allocs, coldMissAllocsPerFn)
	}
	if bytes > coldMissBytesPerFn {
		t.Errorf("a miss allocates %.0f bytes per function, budget %d", bytes, coldMissBytesPerFn)
	}
}

// Allocations and bytes per function of a stream of one-function units
// compiled with no cache, about 15 % above what the code allocated when
// the ceilings were set, when every phase began building code in the
// worker's arena and the driver copying each finished function out
// once: 45.9 allocations and 45 381 bytes. Both hold under -race too.
const (
	smallUnitAllocsPerFn = 53
	smallUnitBytesPerFn  = 52200
)

// TestSmallUnitAllocBudget holds a stream of small compiles (smallJobs)
// on the diagonal's three generators to an allocation budget.
func TestSmallUnitAllocBudget(t *testing.T) {
	gens := diagonal(codeGens(t))
	allocs, bytes := allocsPerFunc(t, func() ([]job, int) { return smallJobs(t, gens) })
	t.Logf("a one-function unit allocates %.1f times and %.0f bytes per function", allocs, bytes)
	if allocs > smallUnitAllocsPerFn {
		t.Errorf("a one-function unit allocates %.1f times per function, budget %d", allocs, smallUnitAllocsPerFn)
	}
	if bytes > smallUnitBytesPerFn {
		t.Errorf("a one-function unit allocates %.0f bytes per function, budget %d", bytes, smallUnitBytesPerFn)
	}
}
