package driver_test

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"marion/internal/asm"
	"marion/internal/cache"
	"marion/internal/cc"
	"marion/internal/driver"
	"marion/internal/gentest"
	"marion/internal/ilgen"
	"marion/internal/iltext"
	"marion/internal/ir"
	"marion/internal/livermore"
	"marion/internal/mach"
	"marion/internal/metrics"
	"marion/internal/sim"
	"marion/internal/strategy"
	"marion/internal/targets"
)

// lowerUnit lowers one unit afresh.
func lowerUnit(t *testing.T, u gentest.Unit) []*ir.Func {
	t.Helper()
	mod, err := driver.Lower(u.Lang, u.Name, u.Text)
	if err != nil {
		t.Fatalf("%s: %v", u.Name, err)
	}
	return mod.Funcs
}

// generator is one code generator: a target and a strategy.
type generator struct {
	m    *mach.Machine
	kind strategy.Kind
}

// generators are r2000/m88000/i860 × postpass/ips/rase, ordered so that
// each one's machine differs from the one before it: a worker taken
// through them in turn meets a new machine on every Run.
func generators(t *testing.T) []generator {
	t.Helper()
	var gens []generator
	for _, kinds := range [][]strategy.Kind{
		{strategy.Postpass, strategy.IPS, strategy.RASE},
		{strategy.IPS, strategy.RASE, strategy.Postpass},
		{strategy.RASE, strategy.Postpass, strategy.IPS},
	} {
		for i, target := range []string{"r2000", "m88000", "i860"} {
			m, err := targets.Load(target)
			if err != nil {
				t.Fatal(err)
			}
			gens = append(gens, generator{m, kinds[i]})
		}
	}
	return gens
}

// TestPooledArenaMatchesFresh: one worker, kept between Runs as the
// pool keeps it, compiles every function of gentest.Golden, Serve and
// Generated(200) in a Run of its own, the code generator changing
// machine on every Run; every seventh function is first put through a
// Run that fails, the scheduler panicking or the allocator hanging until
// the budget ends it. Each compile equals the same function compiled on
// a fresh worker: assembly, statistics, selection counters, findings.
func TestPooledArenaMatchesFresh(t *testing.T) {
	gens := generators(t)
	sites := []string{"sched:panic@fn=0", "regalloc:hang@fn=0"}
	units := append(append(gentest.Golden(), gentest.Serve()...), gentest.Generated(200)...)
	kept := new(driver.WorkerList)
	p := driver.NewBackend()
	runs, failed := 0, 0
	for _, u := range units {
		fresh := lowerUnit(t, u)
		for i, fn := range lowerUnit(t, u) {
			g := gens[runs%len(gens)]
			cfg := driver.Config{Strategy: g.kind, Workers: 1, Verify: true, Strict: true}
			where := fmt.Sprintf("%s/%s %s:%s", g.m.Name, g.kind, u.Name, fn.Name)
			if runs%7 == 3 {
				bad := cfg
				bad.Budget, bad.Faults = 50*time.Millisecond, mustFaults(t, sites[failed%len(sites)])
				if _, diags := p.RunOn(kept, context.Background(), g.m, []*ir.Func{fn}, bad); diags.Err() == nil {
					t.Fatalf("%s: %s armed, the Run did not fail", where, sites[failed%len(sites)])
				}
				failed++
			}
			got, diags := p.RunOn(kept, context.Background(), g.m, []*ir.Func{fn}, cfg)
			if err := diags.Err(); err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			sameResult(t, where, g.m, got[0], compileAlone(t, g.m, fresh[i], cfg))
			runs++
		}
	}
	if n := len(kept.Idle()); n != 1 {
		t.Fatalf("%d workers wait in the free list, want the one every Run borrowed", n)
	}
	t.Logf("%d Runs on one worker, %d after a failed Run", runs, failed)
}

// TestPooledArenaConcurrentRuns: two Runs at a time, each with two
// claim loops, borrow their workers from the package's free list, and
// every function equals its compile on a fresh worker. Under -race this
// checks that a worker goes back only after its loop has returned.
func TestPooledArenaConcurrentRuns(t *testing.T) {
	gens := generators(t)[:3]
	units := gentest.Serve()
	want := map[string]string{}
	for _, g := range gens {
		for _, u := range units {
			for _, r := range compileTwoLoops(t, g, lowerUnit(t, u), driver.NewBackend().RunFresh) {
				want[fmt.Sprint(g.m.Name, g.kind, u.Name, r.IR.Name)] = printFunc(g.m, r.Func)
			}
		}
	}
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 3 {
				for _, g := range gens {
					for _, u := range units {
						for _, r := range compileTwoLoops(t, g, lowerUnit(t, u), driver.NewBackend().Run) {
							if got := printFunc(g.m, r.Func); got != want[fmt.Sprint(g.m.Name, g.kind, u.Name, r.IR.Name)] {
								t.Errorf("%s/%s %s:%s: a pooled worker emits\n%s", g.m.Name, g.kind, u.Name, r.IR.Name, got)
							}
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}

type runFunc func(context.Context, *mach.Machine, []*ir.Func, driver.Config) ([]*driver.Result, *driver.Diagnostics)

// compileTwoLoops compiles funcs under g with two claim loops.
func compileTwoLoops(t *testing.T, g generator, funcs []*ir.Func, run runFunc) []*driver.Result {
	res, diags := run(context.Background(), g.m, funcs, driver.Config{Strategy: g.kind, Workers: 2, Verify: true})
	if err := diags.Err(); err != nil {
		t.Errorf("%s/%s: %v", g.m.Name, g.kind, err)
	}
	return res
}

// TestPooledArenaPinsNothing: a worker waiting in the free list holds nothing
// of the compiles it served. One worker compiles the Livermore suite
// and every serve unit under three code generators, with the cache and
// the verifier on so that every member of its arena works. Then, with
// the worker held as the free list holds it:
//   - nothing reachable from the worker is a compile's own — no IL or
//     asm function, block, node, instruction, symbol or implicit effect,
//     no deadline — the walk naming the field that holds one; the
//     chunks of its code arena are its own, but every value in them is
//     zero;
//   - nothing reachable from a result points into a kept code chunk;
//   - once the results are dropped too, after two collections (and a
//     few more for finalizers queued behind others), the finalizer of
//     every IL function's register table, every *asm.Func and every
//     result's copied instruction array has run. (An *ir.Func's own
//     finalizer never runs: it is on a cycle through its blocks' Fn. Its
//     register table is on none, and lives exactly as long as it.)
func TestPooledArenaPinsNothing(t *testing.T) {
	kept := new(driver.WorkerList)
	var want, ran [3]atomic.Int64 // IL register tables, asm functions, instruction arrays
	watch := func(class int, obj any) {
		want[class].Add(1)
		runtime.SetFinalizer(obj, func(any) { ran[class].Add(1) })
	}
	results := compilePooled(t, kept, watch)

	ws := kept.Idle()
	if len(ws) != 1 {
		t.Fatalf("%d workers wait in the free list, want 1", len(ws))
	}
	w := newWalker()
	w.chunks = true
	if path := w.pinned(reflect.ValueOf(ws[0]), "worker"); path != "" {
		t.Errorf("the pooled worker holds a compile's storage at %s", path)
	}
	chunks := keptChunks(reflect.ValueOf(ws[0]).Elem().FieldByName("arena").Elem().FieldByName("sel").FieldByName("Code"))
	if len(chunks) == 0 {
		t.Fatal("the pooled worker keeps no code chunk")
	}
	seen := map[walkKey]bool{}
	for i, r := range results {
		if path := pointsInto(reflect.ValueOf(r), chunks, seen); path != "" {
			t.Errorf("result %d (%s) reaches a kept code chunk: %s", i, r.IR.Name, path)
		}
	}
	runtime.KeepAlive(results)
	results = nil

	names := [3]string{"IL register table", "*asm.Func", "copied instruction array"}
	done := func() bool {
		for c := range want {
			if ran[c].Load() != want[c].Load() {
				return false
			}
		}
		return true
	}
	runtime.GC()
	runtime.GC()
	for i := 0; i < 20 && !done(); i++ {
		time.Sleep(5 * time.Millisecond)
		runtime.GC()
	}
	for c := range want {
		if r, w := ran[c].Load(), want[c].Load(); r != w {
			t.Errorf("%d of %d %s finalizers have not run: the pooled worker pins them", w-r, w, names[c])
		}
	}
	runtime.KeepAlive(kept)
}

// keepBound is the most a pooled scratch keeps of one table, list or
// map from one use to the next: internal/ir's keepBytes.
const keepBound = 512 << 10

// TestPooledScratchKeepsToTheBound: a table one huge function grew is
// not kept for as long as the worker lives. One kept worker and one kept
// frontEnd compile a unit of 1 200 live ints, whose allocation grows
// tables of megabytes, then every serve unit, with the cache and the
// verifier on so that every member of the worker's arena works. Right
// after the big unit, while both wait idle in their lists, and again
// after the serve units, no slice or map reachable from either holds
// more than keepBound: an idle entry waits in its list with no time
// limit, so it is held to the bound when it is put back, not at its
// next use (where each package kept its own tables, the allocator's
// bit slab and adjacency list stayed past it).
func TestPooledScratchKeepsToTheBound(t *testing.T) {
	m, err := targets.Load("r2000")
	if err != nil {
		t.Fatal(err)
	}
	c, err := cache.New(cache.Options{Registry: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	cfg := driver.Config{Strategy: strategy.RASE, Workers: 1, Verify: true, Cache: c}
	workers, frontEnds := new(driver.WorkerList), new(driver.FrontEndList)
	for i, u := range append([]gentest.Unit{gentest.Live(1200)}, gentest.Serve()...) {
		mod, done, err := driver.LowerScopedOn(frontEnds, u.Lang, u.Name, u.Text)
		if err != nil {
			t.Fatalf("%s: %v", u.Name, err)
		}
		_, err = driver.CompileModuleOn(workers, context.Background(), m, mod, cfg)
		done()
		if err != nil {
			t.Fatalf("%s: %v", u.Name, err)
		}
		if i == 0 {
			checkIdleBound(t, workers, frontEnds, "right after "+u.Name)
		}
	}
	checkIdleBound(t, workers, frontEnds, "after the serve units")
}

// checkIdleBound fails t for every table past keepBound that the one
// worker and the one frontEnd waiting in the lists hold.
func checkIdleBound(t *testing.T, workers *driver.WorkerList, frontEnds *driver.FrontEndList, when string) {
	t.Helper()
	ws, fes := workers.Idle(), frontEnds.Idle()
	if len(ws) != 1 || len(fes) != 1 {
		t.Fatalf("%s, %d workers and %d frontEnds wait in the free lists, want 1 of each", when, len(ws), len(fes))
	}
	for _, held := range []struct {
		name string
		v    any
	}{{"worker", ws[0]}, {"frontEnd", fes[0]}} {
		for _, path := range bigTables(held.v, held.name) {
			t.Errorf("%s, the idle %s holds %s", when, held.name, path)
		}
	}
}

// bigTables returns the path to every slice and map reachable from v
// whose storage holds more than keepBound, one walk a table, or to the
// first pin, which ends the search.
func bigTables(v any, name string) []string {
	over := map[uintptr]bool{}
	var paths []string
	for len(paths) == len(over) {
		w := newWalker()
		w.chunks, w.bound, w.over = true, keepBound, over
		path := w.pinned(reflect.ValueOf(v), name)
		if path == "" {
			break
		}
		paths = append(paths, path)
	}
	return paths
}

// frontFailures are C units the front end refuses part-way: in the
// parser, in the checker within a function, and in the checker once the
// function before the failing one is checked. No C unit fails in the
// lowering: each lvalue ilgen addresses is one the checker accepted, and
// the one array value it could not address, a call's, is refused where
// the function is declared.
var frontFailures = []string{
	"int g; int f() { int a; a = g + 1; return a +; }",
	"int g; int f() { int a; a = g + 1; return b; }",
	"int g; int f() { int a[3]; a[0] = g; return a[0]; }\nint h() { return f()[1]; }",
}

// lowered is what a lowering gives: the module's text, or the error's.
func lowered(mod *ir.Module, err error) string {
	if err != nil {
		return err.Error()
	}
	return iltext.Print(mod)
}

// lowerFresh is the C front end on scratch of its own, the oracle a
// pooled frontEnd is held to.
func lowerFresh(name, src string) string {
	file, err := cc.Compile(name, src)
	if err != nil {
		return err.Error()
	}
	return lowered(ilgen.Lower(file))
}

// lowerScoped lowers a unit through LowerScoped on a frontEnd from k,
// prints it, and gives its IL back; after that no block of the module
// may hold a statement.
func lowerScoped(t *testing.T, k *driver.FrontEndList, lang, name, src string) string {
	t.Helper()
	mod, done, err := driver.LowerScopedOn(k, lang, name, src)
	if err != nil {
		return err.Error()
	}
	text := iltext.Print(mod)
	done()
	if where := heldStmts(mod.Funcs); where != "" {
		t.Fatalf("%s: after done, %s", name, where)
	}
	return text
}

// heldStmts names the first block of funcs that holds a statement, or
// returns "" when none does.
func heldStmts(funcs []*ir.Func) string {
	for _, fn := range funcs {
		for _, b := range fn.Blocks {
			if len(b.Stmts) > 0 {
				return fmt.Sprintf("block %s of %s holds %d statements", b.Name(), fn.Name, len(b.Stmts))
			}
		}
	}
	return ""
}

// cUnits are the C units of gentest.Golden, Serve and Generated(n).
func cUnits(n int) []gentest.Unit {
	var units []gentest.Unit
	for _, u := range append(append(gentest.Golden(), gentest.Serve()...), gentest.Generated(n)...) {
		if u.Lang == "c" {
			units = append(units, u)
		}
	}
	return units
}

// TestPooledFrontEndMatchesFresh: one frontEnd, kept between units as
// the free list keeps it, lowers the big-block fixture, then each C unit of
// the corpus, then a unit that fails in the parser or the checker,
// then the big-block fixture again, each unit first scoped (into the
// frontEnd's kept slab, given back at once) and then to keep. Each
// lowering prints what the same unit lowered on fresh scratch prints,
// or fails as it does, and a kept module stays whole when the frontEnd
// lowers the next units into its slab.
func TestPooledFrontEndMatchesFresh(t *testing.T) {
	big := gentest.Fixture(gentest.BigBlock)
	kept := new(driver.FrontEndList)
	var last *ir.Module
	var lastText string
	lower := func(name, src string) {
		t.Helper()
		want := lowerFresh(name, src)
		if got := lowerScoped(t, kept, "c", name, src); got != want {
			t.Fatalf("%s: the pooled front end, scoped, gives\n%s\nwant\n%s", name, got, want)
		}
		mod, err := driver.LowerOn(kept, name, src)
		if got := lowered(mod, err); got != want {
			t.Fatalf("%s: the pooled front end gives\n%s\nwant\n%s", name, got, want)
		}
		if last != nil && iltext.Print(last) != lastText {
			t.Fatalf("%s: lowering it changed the module lowered before it", name)
		}
		if err == nil {
			last, lastText = mod, want
		}
	}
	units := cUnits(50)
	for i, u := range units {
		lower(big.Name, big.Text)
		lower(u.Name, u.Text)
		lower("bad.c", frontFailures[i%len(frontFailures)])
		lower(big.Name, big.Text)
	}
	if n := len(kept.Idle()); n != 1 {
		t.Fatalf("%d frontEnds wait in the free list, want the one every unit borrowed", n)
	}
	t.Logf("%d units, each between the big-block fixture and a failing unit", len(units))
}

// TestPooledFrontEndConcurrent: three goroutines at a time lower the C
// units of the corpus, their printed IL and the failing units through
// driver.Lower and driver.LowerScoped, borrowing from the package's
// free list, and every lowering equals its fresh one; a scoped one is printed,
// then given back, and then holds no statement. Under -race this checks
// that a frontEnd goes back only once its unit is lowered and detached,
// and a scoped unit's slab only once its done has run.
func TestPooledFrontEndConcurrent(t *testing.T) {
	type unit struct{ lang, name, src, want string }
	var units []unit
	for _, u := range cUnits(10) {
		want := lowerFresh(u.Name, u.Text)
		units = append(units, unit{"c", u.Name, u.Text, want}, unit{"il", u.Name, want, want})
	}
	for _, src := range frontFailures {
		units = append(units, unit{"c", "bad.c", src, lowerFresh("bad.c", src)})
	}
	var wg sync.WaitGroup
	for g := range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 2 * len(units) {
				u := units[(i+g*7)%len(units)]
				if got := lowered(driver.Lower(u.lang, u.name, u.src)); got != u.want {
					t.Errorf("%s (%s): a pooled frontEnd gives\n%s", u.name, u.lang, got)
					return
				}
				mod, done, err := driver.LowerScoped(u.lang, u.name, u.src)
				if got := lowered(mod, err); got != u.want {
					t.Errorf("%s (%s): a pooled frontEnd, scoped, gives\n%s", u.name, u.lang, got)
					return
				}
				if err != nil {
					continue
				}
				done()
				if where := heldStmts(mod.Funcs); where != "" {
					t.Errorf("%s (%s): after done, %s", u.name, u.lang, where)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestPooledFrontEndPinsNothing: a frontEnd waiting in the free list holds
// nothing of the units it lowered. One frontEnd lowers the Livermore
// kernels, the C units of the corpus and the failing units. Then, with
// the modules dropped and the frontEnd held as the free list holds it:
//   - nothing reachable from it is a unit's own — no IL function,
//     block, node or symbol, no C object or type, no name or source
//     text — the walk naming the field that holds one;
//   - the same holds once it has lowered each unit again for a compile
//     of its own (LowerScoped, the back end, done): its kept slab chunks
//     are zero, and nothing reachable from a compile's result or module
//     points into one;
//   - after two collections (and a few more for finalizers queued
//     behind others), the finalizer of every module's global symbols
//     and every function's register table has run.
func TestPooledFrontEndPinsNothing(t *testing.T) {
	kept := new(driver.FrontEndList)
	var want, ran atomic.Int64
	watch := func(obj any) {
		want.Add(1)
		runtime.SetFinalizer(obj, func(any) { ran.Add(1) })
	}
	var srcs []string
	for _, k := range livermore.Kernels {
		srcs = append(srcs, k.Source)
	}
	for _, u := range cUnits(20) {
		srcs = append(srcs, u.Text)
	}
	for _, src := range append(srcs, frontFailures...) {
		mod, err := driver.LowerOn(kept, "unit.c", src)
		if err != nil {
			continue
		}
		for _, g := range mod.Globals {
			watch(g)
		}
		for _, fn := range mod.Funcs {
			if len(fn.Regs) > 0 {
				watch(&fn.Regs[0])
			}
		}
	}
	fes := kept.Idle()
	if len(fes) != 1 {
		t.Fatalf("%d frontEnds wait in the free list, want 1", len(fes))
	}
	if path := frontEndPin(fes[0]); path != "" {
		t.Errorf("the pooled frontEnd holds a unit's storage at %s", path)
	}

	// The same frontEnd lowers the units again, each for a compile of its
	// own, and gives each unit's IL back; the compiles' results are kept.
	m, err := targets.Load("r2000")
	if err != nil {
		t.Fatal(err)
	}
	var results []any
	for _, src := range append(srcs, frontFailures...) {
		mod, done, err := driver.LowerScopedOn(kept, "c", "unit.c", src)
		if err != nil {
			continue
		}
		c, err := driver.CompileModuleCtx(context.Background(), m, mod,
			driver.Config{Strategy: strategy.Postpass, Workers: 1, Verify: true})
		done()
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, c, mod)
	}
	fes = kept.Idle()
	if len(fes) != 1 {
		t.Fatalf("after the scoped compiles, %d frontEnds wait in the free list, want 1", len(fes))
	}
	if path := frontEndPin(fes[0]); path != "" {
		t.Errorf("after the scoped compiles, the pooled frontEnd holds a unit's storage at %s", path)
	}
	chunks := keptChunks(reflect.ValueOf(fes[0]).Elem().FieldByName("slab"))
	if len(chunks) == 0 {
		t.Fatal("the pooled frontEnd keeps no slab chunk")
	}
	for i, r := range results {
		if path := pointsInto(reflect.ValueOf(r), chunks, map[walkKey]bool{}); path != "" {
			t.Errorf("result %d reaches a kept slab chunk: %s", i/2, path)
		}
	}
	runtime.KeepAlive(results)
	runtime.GC()
	runtime.GC()
	for i := 0; i < 20 && ran.Load() != want.Load(); i++ {
		time.Sleep(5 * time.Millisecond)
		runtime.GC()
	}
	if r, w := ran.Load(), want.Load(); r != w {
		t.Errorf("%d of %d finalizers of global symbols and register tables have not run: the pooled frontEnd pins them", w-r, w)
	}
	runtime.KeepAlive(kept)
}

// TestScopedCompileKeepsItsCode: a compile that lowers its own source —
// LowerScoped, the back end, then done, as marion's CompileCtx does —
// hands back code that outlives its IL. One frontEnd, kept in a test's
// free list, serves a C unit, then an IL unit and the big-block fixture,
// each carved into the chunks the one before it gave back. After each
// compile, every result so far prints as it did when it was made, and
// no block of its IL functions holds a statement.
func TestScopedCompileKeepsItsCode(t *testing.T) {
	m, err := targets.Load("i860")
	if err != nil {
		t.Fatal(err)
	}
	var units []gentest.Unit
	for _, lang := range []string{"c", "il"} {
		for _, u := range gentest.Serve() {
			if u.Lang == lang {
				units = append(units, u)
				break
			}
		}
	}
	units = append(units, gentest.Fixture(gentest.BigBlock))
	kept := new(driver.FrontEndList)
	var done []*driver.Compiled
	var printed []string
	for _, u := range units {
		mod, giveBack, err := driver.LowerScopedOn(kept, u.Lang, u.Name, u.Text)
		if err != nil {
			t.Fatal(err)
		}
		c, err := driver.CompileModuleCtx(context.Background(), m, mod,
			driver.Config{Strategy: strategy.RASE, Workers: 1, Verify: true})
		giveBack()
		if err != nil {
			t.Fatalf("%s: %v", u.Name, err)
		}
		done, printed = append(done, c), append(printed, c.Prog.Print())
		for i, c := range done {
			if c.Prog.Print() != printed[i] {
				t.Fatalf("after %s, the program of %s prints differently", u.Name, units[i].Name)
			}
			var funcs []*ir.Func
			for _, f := range c.Prog.Funcs {
				funcs = append(funcs, f.IR)
			}
			if where := heldStmts(funcs); where != "" {
				t.Fatalf("after %s, the program of %s reaches IL: %s", u.Name, units[i].Name, where)
			}
		}
	}
	if n := len(kept.Idle()); n != 1 {
		t.Fatalf("%d frontEnds wait in the free list, want the one every unit borrowed", n)
	}
}

// TestCodeOutlivesItsWorker: the code a compile hands back is its own,
// not its worker's. One worker, kept in a test's free list, compiles the
// Livermore suite, then each serve unit, then the big-block fixture,
// every compile building its code in the arena the one before it built
// in and rewound, and every result is kept. After each compile, every
// program so far prints what it printed right after its own compile;
// at the end the Livermore program, run on the simulator, gives kernel
// 1's reference checksum.
func TestCodeOutlivesItsWorker(t *testing.T) {
	m, err := targets.Load("r2000")
	if err != nil {
		t.Fatal(err)
	}
	suite, err := livermore.SuiteModule()
	if err != nil {
		t.Fatal(err)
	}
	mods := []*ir.Module{suite}
	for _, u := range append(gentest.Serve(), gentest.Fixture(gentest.BigBlock)) {
		mod, err := driver.Lower(u.Lang, u.Name, u.Text)
		if err != nil {
			t.Fatal(err)
		}
		mods = append(mods, mod)
	}
	kept := new(driver.WorkerList)
	var done []*driver.Compiled
	var printed []string
	for _, mod := range mods {
		c, err := driver.CompileModuleOn(kept, context.Background(), m, mod,
			driver.Config{Strategy: strategy.RASE, Workers: 1, Verify: true})
		if err != nil {
			t.Fatalf("%s: %v", mod.Name, err)
		}
		text, ok := printProgram(c.Prog)
		if !ok {
			t.Fatalf("%s: the program cannot be printed right after its compile", mod.Name)
		}
		done, printed = append(done, c), append(printed, text)
		for i, c := range done {
			if got, ok := printProgram(c.Prog); !ok || got != printed[i] {
				t.Fatalf("after %s, the program of %s prints differently", mod.Name, mods[i].Name)
			}
		}
	}
	if n := len(kept.Idle()); n != 1 {
		t.Fatalf("%d workers wait in the free list, want the one every compile borrowed", n)
	}
	k := livermore.Kernels[0]
	s := sim.New(done[0].Prog, sim.Options{})
	if _, err := s.Run(fmt.Sprint("init", k.ID)); err != nil {
		t.Fatal(err)
	}
	st, err := s.Run(fmt.Sprint("kern", k.ID), sim.Int(1))
	if err != nil {
		t.Fatal(err)
	}
	if want := k.Ref(1); st.RetF != want {
		t.Errorf("kernel %d, kept while the worker compiled %d more units, checksums %.17g, want %.17g",
			k.ID, len(mods)-1, st.RetF, want)
	}
}

// printProgram returns p's text, or false when printing it panics, as it
// does on code a rewind has zeroed.
func printProgram(p *asm.Program) (text string, ok bool) {
	defer func() {
		if recover() != nil {
			text, ok = "", false
		}
	}()
	return p.Print(), true
}

// frontEndPin returns the path to the first thing of a unit a pooled
// frontEnd holds, or "" when it holds none. Its slab's chunks are its
// own, but must be zero.
func frontEndPin(fe any) string {
	w := newWalker()
	w.strings, w.chunks = true, true
	return w.pinned(reflect.ValueOf(fe), "frontEnd")
}

// span is the storage of one kept chunk, [lo, hi).
type span struct{ lo, hi uintptr }

// keptChunks returns the storage of every chunk an ir.Slab or an
// asm.Arena keeps: each of its ir.Chunks fields' chunks, and the
// arena's pseudo-register table.
func keptChunks(store reflect.Value) []span {
	var spans []span
	add := func(ch reflect.Value) {
		if ch.Cap() > 0 {
			lo := ch.Pointer()
			spans = append(spans, span{lo, lo + uintptr(ch.Cap())*ch.Type().Elem().Size()})
		}
	}
	for i := range store.NumField() {
		switch f := store.Field(i); {
		case f.Kind() == reflect.Slice:
			add(f)
		case f.Kind() == reflect.Struct && f.FieldByName("all").IsValid():
			all := f.FieldByName("all")
			for i := range all.Len() {
				add(all.Index(i))
			}
		}
	}
	return spans
}

// pointsInto returns the path from v to the first pointer reachable
// from it (a slice's array included) into one of spans, or "" when
// there is none. It follows everything but the machine description.
func pointsInto(v reflect.Value, spans []span, seen map[walkKey]bool) string {
	inside := func(p uintptr) bool {
		for _, s := range spans {
			if p >= s.lo && p < s.hi {
				return true
			}
		}
		return false
	}
	t := v.Type()
	if t.PkgPath() == "marion/internal/mach" {
		return ""
	}
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || t.Elem().PkgPath() == "marion/internal/mach" {
			return ""
		}
		if inside(v.Pointer()) {
			return " (a " + t.String() + ")"
		}
		if k := (walkKey{v.Pointer(), t}); !seen[k] {
			seen[k] = true
			return pointsInto(v.Elem(), spans, seen)
		}
	case reflect.Interface:
		if !v.IsNil() {
			return pointsInto(v.Elem(), spans, seen)
		}
	case reflect.Struct:
		for i := range v.NumField() {
			if p := pointsInto(v.Field(i), spans, seen); p != "" {
				return "." + t.Field(i).Name + p
			}
		}
	case reflect.Array:
		for i := range v.Len() {
			if p := pointsInto(v.Index(i), spans, seen); p != "" {
				return fmt.Sprintf("[%d]%s", i, p)
			}
		}
	case reflect.Slice:
		if v.IsNil() || v.Cap() == 0 {
			return ""
		}
		if inside(v.Pointer()) {
			return " (a " + t.String() + ")"
		}
		if k := (walkKey{v.Pointer(), t}); !seen[k] {
			seen[k] = true
			all := v.Slice3(0, v.Cap(), v.Cap())
			for i := range all.Len() {
				if p := pointsInto(all.Index(i), spans, seen); p != "" {
					return fmt.Sprintf("[%d]%s", i, p)
				}
			}
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			if p := pointsInto(it.Value(), spans, seen); p != "" {
				return "[value]" + p
			}
		}
	}
	return ""
}

// compilePooled compiles the Livermore suite and the serve units on
// one worker kept in k, watching every IL function's register table,
// every asm function and the instruction array each was copied into.
// Nothing it made outlives it but what k holds and the results it
// returns.
func compilePooled(t *testing.T, k *driver.WorkerList, watch func(int, any)) []*driver.Result {
	p := driver.NewBackend()
	var results []*driver.Result
	for _, g := range generators(t)[:3] {
		c, err := cache.New(cache.Options{Registry: metrics.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		cfg := driver.Config{Strategy: g.kind, Workers: 1, Verify: true, Cache: c}
		_, suite := suiteOn(t, "r2000")
		units := [][]*ir.Func{suite}
		for _, u := range gentest.Serve() {
			units = append(units, lowerUnit(t, u))
		}
		for _, funcs := range units {
			for _, fn := range funcs {
				if len(fn.Regs) > 0 {
					watch(0, &fn.Regs[0])
				}
			}
			res, diags := p.RunOn(k, context.Background(), g.m, funcs, cfg)
			if err := diags.Err(); err != nil {
				t.Fatalf("%s/%s: %v", g.m.Name, g.kind, err)
			}
			for _, r := range res {
				watch(1, r.Func)
				if in := firstInst(r.Func); in != nil {
					watch(2, in)
				}
			}
			results = append(results, res...)
		}
	}
	return results
}

// firstInst returns the start of the array af's instructions were
// copied into, which holds them in list order: its first instruction,
// or nil when it has none (a cache hit's, whose code is text).
func firstInst(af *asm.Func) *asm.Inst {
	for _, b := range af.Blocks {
		if len(b.Insts) > 0 {
			return b.Insts[0]
		}
	}
	return nil
}

// compileTypes are the types whose values belong to one compile: a
// pooled worker may hold no pointer to one, nor a slice of the last
// four, a chunk, but for the kept chunks of its code arena, zeroed.
var compileTypes = map[reflect.Type]bool{
	reflect.TypeOf(ir.Func{}): true, reflect.TypeOf(ir.Block{}): true,
	reflect.TypeOf(ir.Sym{}): true, reflect.TypeOf(asm.Func{}): true,
	reflect.TypeOf(asm.Block{}): true, reflect.TypeOf(ir.Node{}): true,
	reflect.TypeOf(asm.Inst{}): true, reflect.TypeOf(asm.Implicit{}): true,
}

// unitTypes are the C front end's types whose values belong to one
// unit: a pooled frontEnd may hold no pointer to one, though it keeps
// the chunks their values were carved from, zeroed.
var unitTypes = map[reflect.Type]bool{
	reflect.TypeOf(cc.Obj{}): true, reflect.TypeOf(cc.CType{}): true,
}

var contextType = reflect.TypeOf((*context.Context)(nil)).Elem()

// walker follows every pointer, interface, map entry and slice element
// (up to the slice's capacity: the collector sees the whole array) from
// a value, except into the machine description, which outlives every
// compile. With strings set, a non-empty string is a pin too: a unit's
// names and source are its own. With chunks set, a chunk of one of
// chunkTypes is not, as a frontEnd's kept slab and a worker's code
// arena hold them, but every value in it must be zero. With bound set,
// so is a slice or map whose storage holds more than bound bytes and is
// not yet in over, which records it.
type walker struct {
	seen            map[walkKey]bool
	strings, chunks bool
	bound           int
	over            map[uintptr]bool
}

// chunkTypes are the element types of the chunks a kept ir.Slab or
// asm.Arena holds.
var chunkTypes = map[reflect.Type]bool{
	reflect.TypeOf(ir.Node{}): true, reflect.TypeOf((*ir.Node)(nil)): true,
	reflect.TypeOf(asm.Inst{}): true, reflect.TypeOf(asm.Operand{}): true,
	reflect.TypeOf(asm.Implicit{}): true, reflect.TypeOf((*asm.Inst)(nil)): true,
	reflect.TypeOf(asm.Block{}): true, reflect.TypeOf((*asm.Block)(nil)): true,
	reflect.TypeOf(asm.PseudoInfo{}): true,
}

type walkKey struct {
	p uintptr
	t reflect.Type
}

func newWalker() *walker { return &walker{seen: map[walkKey]bool{}} }

// pinned returns the path to the first compile's value reachable from
// v, or "" when there is none.
func (w *walker) pinned(v reflect.Value, path string) string {
	if p := w.find(v); p != "" {
		return path + p
	}
	return ""
}

// find returns the path from v to the first compile's value reachable
// from it, or "" when there is none. The path is built only once one is
// found, so a clean walk allocates for nothing but its seen set.
func (w *walker) find(v reflect.Value) string {
	t := v.Type()
	if t.PkgPath() == "marion/internal/mach" {
		return ""
	}
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || t.Elem().PkgPath() == "marion/internal/mach" {
			return ""
		}
		if compileTypes[t.Elem()] || unitTypes[t.Elem()] {
			return " (" + t.String() + ")"
		}
		if !w.first(v.Pointer(), t) {
			return ""
		}
		return w.find(v.Elem())
	case reflect.String:
		if w.strings && v.Len() > 0 {
			return fmt.Sprintf(" (the string %.20q)", v.String())
		}
	case reflect.Interface:
		if v.IsNil() {
			return ""
		}
		if t == contextType {
			return " (a deadline)"
		}
		return w.find(v.Elem())
	case reflect.Struct:
		for i := range v.NumField() {
			if p := w.find(v.Field(i)); p != "" {
				return "." + t.Field(i).Name + p
			}
		}
	case reflect.Array:
		if !hasPointers(t) {
			return ""
		}
		for i := range v.Len() {
			if p := w.find(v.Index(i)); p != "" {
				return fmt.Sprintf("[%d]%s", i, p)
			}
		}
	case reflect.Slice:
		if v.IsNil() || v.Cap() == 0 {
			return ""
		}
		if w.big(v, v.Cap()*int(t.Elem().Size())) {
			return fmt.Sprintf(" (a %s table of %d KiB)", t.Elem(), v.Cap()*int(t.Elem().Size())>>10)
		}
		if w.chunks && chunkTypes[t.Elem()] {
			all := v.Slice3(0, v.Cap(), v.Cap())
			for i := range all.Len() {
				if !all.Index(i).IsZero() {
					return fmt.Sprintf("[%d] (a kept %s chunk of %d is not zeroed)", i, t.Elem(), v.Cap())
				}
			}
			return ""
		}
		if compileTypes[t.Elem()] {
			return fmt.Sprintf(" (a %s chunk of %d)", t.Elem(), v.Cap())
		}
		if !hasPointers(t.Elem()) || !w.first(v.Pointer(), t) {
			return ""
		}
		all := v.Slice3(0, v.Cap(), v.Cap())
		for i := range all.Len() {
			if p := w.find(all.Index(i)); p != "" {
				return fmt.Sprintf("[%d]%s", i, p)
			}
		}
	case reflect.Map:
		if size := v.Len() * int(t.Key().Size()+t.Elem().Size()); w.big(v, size) {
			return fmt.Sprintf(" (a map of %d KiB)", size>>10)
		}
		for it := v.MapRange(); it.Next(); {
			if p := w.find(it.Key()); p != "" {
				return "[key]" + p
			}
			if p := w.find(it.Value()); p != "" {
				return "[value]" + p
			}
		}
	}
	return ""
}

// big reports whether v, a slice or map of size bytes, is a table past
// the bound not reported before, and records it.
func (w *walker) big(v reflect.Value, size int) bool {
	if w.bound == 0 || size <= w.bound || w.over[v.Pointer()] {
		return false
	}
	w.over[v.Pointer()] = true
	return true
}

// first reports whether the walk reaches the storage at p, as a t, for
// the first time.
func (w *walker) first(p uintptr, t reflect.Type) bool {
	k := walkKey{p, t}
	if w.seen[k] {
		return false
	}
	w.seen[k] = true
	return true
}

// hasPointers reports whether a value of type t can hold a pointer the
// walk follows, a string's included.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.Interface, reflect.Map, reflect.Slice, reflect.String:
		return true
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// TestWorkerOutlivesCollections: a worker and a front end put back wait
// for the next compile through collections. One compile on one
// goroutine, two collections, then a second compile: it borrows the
// worker and the front end the first one put back, so neither regrows
// its tables from zero.
func TestWorkerOutlivesCollections(t *testing.T) {
	src := gentest.Serve()[0]
	compile := func() (worker, frontEnd any) {
		t.Helper()
		if _, err := driver.Compile("r2000", src.Lang, src.Name, src.Text, driver.Config{Strategy: strategy.RASE, Workers: 1}); err != nil {
			t.Fatal(err)
		}
		ws, fes := driver.Idle()
		if len(ws) == 0 || len(fes) == 0 {
			t.Fatalf("after a compile, %d workers and %d front ends wait, want one of each at least", len(ws), len(fes))
		}
		return ws[len(ws)-1], fes[len(fes)-1]
	}
	w, fe := compile()
	runtime.GC()
	runtime.GC()
	if w2, fe2 := compile(); w2 != w || fe2 != fe {
		t.Errorf("after two collections, the compile borrowed a new worker (%t) or a new front end (%t)", w2 != w, fe2 != fe)
	}
}
