package pipeline_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"marion/internal/cache"
	"marion/internal/cc"
	"marion/internal/ilgen"
	"marion/internal/ir"
	"marion/internal/maril"
	"marion/internal/metrics"
	"marion/internal/pipeline"
	"marion/internal/strategy"
	"marion/internal/targets"
)

const twoFuncs = `
int one() { return 1; }
int twice(int x) { return x + x; }
`

// lowerTwoFuncs lowers twoFuncs afresh: the glue transform mutates IL in
// place, so each run of a cache test gets its own module — cache keys
// fingerprint the pristine IR.
func lowerTwoFuncs(t *testing.T) *ir.Module {
	t.Helper()
	file, err := cc.Compile("two.c", twoFuncs)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := ilgen.Lower(file)
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

func TestBackendPhaseOrder(t *testing.T) {
	p := pipeline.Backend()
	want := []string{"xform", "select", "strategy", "verify"}
	if len(p.Phases) != len(want) {
		t.Fatalf("phases = %d, want %d", len(p.Phases), len(want))
	}
	for i, ph := range p.Phases {
		if ph.Name != want[i] {
			t.Errorf("phase %d = %q, want %q", i, ph.Name, want[i])
		}
	}
}

func TestRunCompilesAllFunctions(t *testing.T) {
	m, err := targets.Load("r2000")
	if err != nil {
		t.Fatal(err)
	}
	file, err := cc.Compile("two.c", twoFuncs)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := ilgen.Lower(file)
	if err != nil {
		t.Fatal(err)
	}
	results, diags := pipeline.Backend().Run(context.Background(), m, mod.Funcs,
		pipeline.Config{Strategy: strategy.Postpass, Workers: 4})
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
		if r.IR != mod.Funcs[i] {
			t.Errorf("result %d out of source order", i)
		}
		if len(r.Timings) != 4 {
			t.Errorf("result %d timings = %v", i, r.Timings)
		}
	}
}

func TestRunCancelledContext(t *testing.T) {
	m, err := targets.Load("r2000")
	if err != nil {
		t.Fatal(err)
	}
	file, err := cc.Compile("two.c", twoFuncs)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := ilgen.Lower(file)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, diags := pipeline.Backend().Run(ctx, m, mod.Funcs,
		pipeline.Config{Strategy: strategy.Postpass})
	if diags.Empty() {
		t.Fatal("cancelled run reported no diagnostics")
	}
	for i, r := range results {
		if r != nil {
			// A worker may have picked the job up before cancellation
			// propagated; completed work is fine, half-done work is not.
			if r.Func == nil {
				t.Errorf("result %d half-finished after cancel", i)
			}
		}
	}
	if !strings.Contains(diags.Error(), "context canceled") {
		t.Errorf("diagnostics should mention cancellation: %v", diags.Error())
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
	lower := func() *ir.Module { return lowerTwoFuncs(t) }
	c, err := cache.New(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipeline.Config{Strategy: strategy.Postpass, Cache: c}

	// Cold cache-only: nothing is compiled, every function misses.
	coldCfg := cfg
	coldCfg.CacheOnly = true
	results, diags := pipeline.Backend().Run(context.Background(), m, lower().Funcs, coldCfg)
	if diags.Empty() {
		t.Fatal("cold cache-only run produced no diagnostics")
	}
	for _, d := range diags.All() {
		if !errors.Is(d.Err, pipeline.ErrCacheOnlyMiss) {
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
	if _, diags := pipeline.Backend().Run(context.Background(), m, lower().Funcs, cfg); !diags.Empty() {
		t.Fatalf("warming run failed: %v", diags.Err())
	}
	results, diags = pipeline.Backend().Run(context.Background(), m, lower().Funcs, coldCfg)
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
	_, diags = pipeline.Backend().Run(context.Background(), m, lower().Funcs, noCache)
	if diags.Empty() || !errors.Is(diags.All()[0].Err, pipeline.ErrCacheOnlyMiss) {
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
		results, diags := pipeline.Backend().Run(context.Background(), m, lowerTwoFuncs(t).Funcs,
			pipeline.Config{Strategy: strategy.Postpass, Cache: c})
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
	d := &pipeline.Diagnostics{}
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
