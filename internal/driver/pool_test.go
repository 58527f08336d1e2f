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
	"unsafe"

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
	kept := new(driver.Kept)
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
	if n := len(kept.Workers()); n != 1 {
		t.Fatalf("%d workers wait in the pool, want the one every Run borrowed", n)
	}
	t.Logf("%d Runs on one worker, %d after a failed Run", runs, failed)
}

// TestPooledArenaConcurrentRuns: two Runs at a time, each with two
// claim loops, borrow their workers from the package's pool, and every
// function equals its compile on a fresh worker. Under -race this
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

// TestPooledArenaPinsNothing: a worker waiting in the pool holds nothing
// of the compiles it served. One worker compiles the Livermore suite
// and every serve unit under three code generators, with the cache and
// the verifier on so that every member of its arena works. Then, with
// the results dropped and the worker held as the pool holds it:
//   - nothing reachable from the worker is a compile's own — no IL or
//     asm function, block, node, instruction, symbol or implicit effect,
//     no slab chunk of nodes or instructions, no deadline — the walk
//     naming the field that holds one;
//   - after two collections (and a few more for finalizers queued
//     behind others), the finalizer of every IL function's register
//     table, every *asm.Func and the first chunk of every function's
//     selected instructions has run. (An *ir.Func's own finalizer never
//     runs: it is on a cycle through its blocks' Fn. Its register table
//     is on none, and lives exactly as long as it.)
func TestPooledArenaPinsNothing(t *testing.T) {
	kept := new(driver.Kept)
	var want, ran [3]atomic.Int64 // IL register tables, asm functions, instruction chunks
	watch := func(class int, obj any) {
		want[class].Add(1)
		runtime.SetFinalizer(obj, func(any) { ran[class].Add(1) })
	}
	compilePooled(t, kept, watch)

	ws := kept.Workers()
	if len(ws) != 1 {
		t.Fatalf("%d workers wait in the pool, want 1", len(ws))
	}
	if path := newWalker().pinned(reflect.ValueOf(ws[0]), "worker"); path != "" {
		t.Errorf("the pooled worker holds a compile's storage at %s", path)
	}

	names := [3]string{"IL register table", "*asm.Func", "instruction chunk"}
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
// the pool keeps it, lowers the big-block fixture, then each C unit of
// the corpus, then a unit that fails in the parser or the checker,
// then the big-block fixture again. Each lowering prints what
// the same unit lowered on fresh scratch prints, or fails as it does,
// and a module stays whole when the frontEnd lowers the next unit.
func TestPooledFrontEndMatchesFresh(t *testing.T) {
	big := gentest.Fixture(gentest.BigBlock)
	kept := new(driver.Kept)
	var last *ir.Module
	var lastText string
	lower := func(name, src string) {
		t.Helper()
		want := lowerFresh(name, src)
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
	if n := len(kept.Workers()); n != 1 {
		t.Fatalf("%d frontEnds wait in the pool, want the one every unit borrowed", n)
	}
	t.Logf("%d units, each between the big-block fixture and a failing unit", len(units))
}

// TestPooledFrontEndConcurrent: three goroutines at a time lower the C
// units of the corpus and the failing units through driver.Lower,
// borrowing from the package's pool, and every lowering equals its fresh
// one. Under
// -race this checks that a frontEnd goes back only once its unit is
// lowered and detached.
func TestPooledFrontEndConcurrent(t *testing.T) {
	type unit struct{ name, src, want string }
	var units []unit
	for _, u := range cUnits(10) {
		units = append(units, unit{u.Name, u.Text, lowerFresh(u.Name, u.Text)})
	}
	for _, src := range frontFailures {
		units = append(units, unit{"bad.c", src, lowerFresh("bad.c", src)})
	}
	var wg sync.WaitGroup
	for g := range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 2 * len(units) {
				u := units[(i+g*7)%len(units)]
				if got := lowered(driver.Lower("c", u.name, u.src)); got != u.want {
					t.Errorf("%s: a pooled frontEnd gives\n%s", u.name, got)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestPooledFrontEndPinsNothing: a frontEnd waiting in the pool holds
// nothing of the units it lowered. One frontEnd lowers the Livermore
// kernels, the C units of the corpus and the failing units. Then, with
// the modules dropped and the frontEnd held as the pool holds it:
//   - nothing reachable from it is a unit's own — no IL function,
//     block, node or symbol, no C object or type, no name or source
//     text — the walk naming the field that holds one;
//   - after two collections (and a few more for finalizers queued
//     behind others), the finalizer of every module's global symbols
//     and every function's register table has run.
func TestPooledFrontEndPinsNothing(t *testing.T) {
	kept := new(driver.Kept)
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
	fes := kept.Workers()
	if len(fes) != 1 {
		t.Fatalf("%d frontEnds wait in the pool, want 1", len(fes))
	}
	if path := frontEndPin(fes[0]); path != "" {
		t.Errorf("the pooled frontEnd holds a unit's storage at %s", path)
	}
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

// frontEndPin returns the path to the first thing of a unit a pooled
// frontEnd holds, or "" when it holds none.
func frontEndPin(fe any) string {
	w := newWalker()
	w.strings = true
	return w.pinned(reflect.ValueOf(fe), "frontEnd")
}

// compilePooled compiles the Livermore suite and the serve units on
// one worker kept in k, watching every IL function's register table,
// every asm function and the first instruction chunk of each. Nothing it made outlives it but
// what k holds.
func compilePooled(t *testing.T, k *driver.Kept, watch func(int, any)) {
	p := driver.NewBackend()
	for i, ph := range p {
		if ph.Name != "select" {
			continue
		}
		selectPhase := ph.Run
		p[i].Run = func(c *driver.Ctx) error {
			err := selectPhase(c)
			if c.Func != nil {
				watch(2, firstChunk(c.Func))
			}
			return err
		}
	}
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
			}
		}
	}
}

// firstChunk returns the start of the first chunk the selector carved
// af's instructions from. The selector fills each chunk from its first
// slot and emits every instruction it carves, so the lowest-addressed
// instruction of a selected function starts a chunk.
func firstChunk(af *asm.Func) *asm.Inst {
	var low *asm.Inst
	for _, b := range af.Blocks {
		for _, in := range b.Insts {
			if low == nil || uintptr(unsafe.Pointer(in)) < uintptr(unsafe.Pointer(low)) {
				low = in
			}
		}
	}
	return low
}

// compileTypes are the types whose values belong to one compile: a
// pooled worker may hold no pointer to one, nor a slice of the last
// four (a slab chunk).
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
// names and source are its own.
type walker struct {
	seen    map[walkKey]bool
	strings bool
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
