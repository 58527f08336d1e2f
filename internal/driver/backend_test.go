package driver_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"marion/internal/cache"
	"marion/internal/driver"
	"marion/internal/faults"
	"marion/internal/ir"
	"marion/internal/livermore"
	"marion/internal/mach"
	"marion/internal/maril"
	"marion/internal/metrics"
	"marion/internal/strategy"
	"marion/internal/targets"
)

const twoFuncs = `
int one() { return 1; }
int twice(int x) { return x + x; }
`

// lowerModule loads r2000 and lowers src afresh: the glue transform
// mutates IL in place, so each run gets its own functions — and cache
// keys fingerprint the pristine IR.
func lowerModule(t *testing.T, src string) (*mach.Machine, []*ir.Func) {
	t.Helper()
	m, err := targets.Load("r2000")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := driver.Lower("c", "t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	return m, mod.Funcs
}

// suiteOn loads target and lowers the 28-function Livermore module
// afresh.
func suiteOn(t *testing.T, target string) (*mach.Machine, []*ir.Func) {
	t.Helper()
	m, err := targets.Load(target)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := livermore.SuiteModule()
	if err != nil {
		t.Fatal(err)
	}
	return m, mod.Funcs
}

func mustFaults(t *testing.T, spec string) *faults.Set {
	t.Helper()
	set, err := faults.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func TestBackendPhaseOrder(t *testing.T) {
	p := driver.NewBackend()
	want := []string{"xform", "select", "strategy", "verify"}
	if len(p) != len(want) {
		t.Fatalf("phases = %d, want %d", len(p), len(want))
	}
	for i, ph := range p {
		if ph.Name != want[i] {
			t.Errorf("phase %d = %q, want %q", i, ph.Name, want[i])
		}
	}
}

func TestRunCompilesAllFunctions(t *testing.T) {
	m, funcs := lowerModule(t, twoFuncs)
	results, diags := driver.NewBackend().Run(context.Background(), m, funcs,
		driver.Config{Strategy: strategy.Postpass, Workers: 4})
	if err := diags.Err(); err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d, want 2", len(results))
	}
	for i, r := range results {
		if r == nil || r.Func == nil || r.Stats == nil {
			t.Fatalf("result %d incomplete: %+v", i, r)
		}
		if r.IR != funcs[i] {
			t.Errorf("result %d out of source order", i)
		}
		if len(r.Timings) != 4 {
			t.Errorf("result %d timings = %v", i, r.Timings)
		}
	}
}

// TestCacheOnly checks the deepest brownout level's contract: with a
// warm cache every function is served without compiling; cold (or with
// no cache at all) every function is refused with ErrCacheOnlyMiss.
func TestCacheOnly(t *testing.T) {
	m, err := targets.Load("r2000")
	if err != nil {
		t.Fatal(err)
	}
	lower := func() []*ir.Func {
		_, funcs := lowerModule(t, twoFuncs)
		return funcs
	}
	c, err := cache.New(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := driver.Config{Strategy: strategy.Postpass, Cache: c}

	// Cold cache-only: nothing is compiled, every function misses.
	coldCfg := cfg
	coldCfg.CacheOnly = true
	results, diags := driver.NewBackend().Run(context.Background(), m, lower(), coldCfg)
	if diags.Empty() {
		t.Fatal("cold cache-only run produced no diagnostics")
	}
	for _, d := range diags.All() {
		if !errors.Is(d.Err, driver.ErrCacheOnlyMiss) {
			t.Fatalf("diagnostic = %v, want ErrCacheOnlyMiss", d.Err)
		}
	}
	for i, r := range results {
		if r != nil {
			t.Fatalf("cold cache-only compiled function %d", i)
		}
	}

	// Warm the cache with a normal run, then cache-only must serve both
	// functions entirely from it.
	if _, diags := driver.NewBackend().Run(context.Background(), m, lower(), cfg); !diags.Empty() {
		t.Fatalf("warming run failed: %v", diags.Err())
	}
	results, diags = driver.NewBackend().Run(context.Background(), m, lower(), coldCfg)
	if err := diags.Err(); err != nil {
		t.Fatalf("warm cache-only run failed: %v", err)
	}
	for i, r := range results {
		if r == nil || r.Func == nil {
			t.Fatalf("warm cache-only result %d missing", i)
		}
		if len(r.Timings) != 1 || r.Timings[0].Phase != "cache" {
			t.Fatalf("result %d timings = %v, want a lone cache hit", i, r.Timings)
		}
	}

	// No cache configured at all: cache-only still refuses cleanly.
	noCache := coldCfg
	noCache.Cache = nil
	_, diags = driver.NewBackend().Run(context.Background(), m, lower(), noCache)
	if diags.Empty() || !errors.Is(diags.All()[0].Err, driver.ErrCacheOnlyMiss) {
		t.Fatalf("cacheless cache-only diagnostics = %v", diags.Err())
	}
}

// TestZeroFingerprintDisablesCache: a machine with no fingerprint (one
// maril.Parse did not build) compiles as usual but never touches the
// cache — nothing identifies it, so an entry could be another machine's.
func TestZeroFingerprintDisablesCache(t *testing.T) {
	src, err := targets.Source("r2000")
	if err != nil {
		t.Fatal(err)
	}
	m, err := maril.Parse("r2000.maril", src)
	if err != nil {
		t.Fatal(err)
	}
	m.SetFingerprint([32]byte{})
	c, err := cache.New(cache.Options{Registry: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		_, funcs := lowerModule(t, twoFuncs)
		results, diags := driver.NewBackend().Run(context.Background(), m, funcs,
			driver.Config{Strategy: strategy.Postpass, Cache: c})
		if err := diags.Err(); err != nil {
			t.Fatal(err)
		}
		for i, r := range results {
			if r == nil || r.Func == nil || r.CacheHit {
				t.Fatalf("pass %d result %d: %+v", pass, i, r)
			}
		}
	}
	if s := c.Stats(); s != (cache.Stats{}) {
		t.Errorf("the cache was used: %+v", s)
	}
}

func TestDiagnosticsFormatting(t *testing.T) {
	d := &driver.Diagnostics{}
	if d.Err() != nil {
		t.Error("empty diagnostics should yield nil error")
	}
	d.Add(1, "g", "strategy", errMsg("no registers"))
	d.Add(0, "f", "select", errMsg("no template"))
	all := d.All()
	if all[0].Func != "f" || all[1].Func != "g" {
		t.Errorf("diagnostics not in source order: %v", all)
	}
	msg := d.Err().Error()
	if !strings.Contains(msg, "f: select: no template") ||
		!strings.Contains(msg, "g: strategy: no registers") {
		t.Errorf("message = %q", msg)
	}
	if !strings.HasPrefix(msg, "2 functions failed") {
		t.Errorf("message should lead with the count: %q", msg)
	}
}

type errMsg string

func (e errMsg) Error() string { return string(e) }
