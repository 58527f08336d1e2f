package pipeline_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"marion/internal/cache"
	"marion/internal/driver"
	"marion/internal/gentest"
	"marion/internal/ir"
	"marion/internal/livermore"
	"marion/internal/mach"
	"marion/internal/metrics"
	"marion/internal/pipeline"
	"marion/internal/strategy"
	"marion/internal/targets"
)

// lowerUnits lowers each named unit afresh — "livermore" is the suite
// module, anything else a gentest fixture — since the back end consumes
// the IL it compiles.
func lowerUnits(t *testing.T, names ...string) [][]*ir.Func {
	t.Helper()
	var out [][]*ir.Func
	for _, name := range names {
		var mod *ir.Module
		var err error
		if name == "livermore" {
			mod, err = livermore.SuiteModule()
		} else {
			mod, err = driver.Frontend(name, gentest.Fixture(name).Text)
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, mod.Funcs)
	}
	return out
}

// compileAlone compiles fn in a Run of its own on a fresh worker: an
// arena that has seen nothing else.
func compileAlone(t *testing.T, m *mach.Machine, fn *ir.Func, cfg pipeline.Config) *pipeline.Result {
	t.Helper()
	res, diags := pipeline.Backend().RunFresh(context.Background(), m, []*ir.Func{fn}, cfg)
	if err := diags.Err(); err != nil {
		t.Fatalf("%s alone: %v", fn.Name, err)
	}
	return res[0]
}

// sameResult holds a result compiled on a warmed arena to the same
// function compiled alone: assembly, strategy statistics, selection
// counters and verifier report.
func sameResult(t *testing.T, where string, m *mach.Machine, got, want *pipeline.Result) {
	t.Helper()
	if g, w := printFunc(m, got.Func), printFunc(m, want.Func); g != w {
		t.Errorf("%s: a warmed worker emits\n%s\ncompiled alone\n%s", where, g, w)
	}
	if !reflect.DeepEqual(got.Stats, want.Stats) || got.Sel != want.Sel {
		t.Errorf("%s: stats %+v sel %+v, compiled alone %+v %+v", where, got.Stats, got.Sel, want.Stats, want.Sel)
	}
	if got.Verify.String() != want.Verify.String() {
		t.Errorf("%s: findings\n%s\ncompiled alone\n%s", where, got.Verify, want.Verify)
	}
}

// TestWarmArenaMatchesFresh: one worker compiles Livermore, the
// pressure and big-block fixtures and Livermore again in one Run, every
// phase on the one arena (in longest-first order, so the units
// interleave), and every function is byte-identical to the same
// function compiled by a worker of its own.
func TestWarmArenaMatchesFresh(t *testing.T) {
	units := []string{"livermore", gentest.Pressure, gentest.BigBlock, "livermore"}
	for _, target := range []string{"r2000", "m88000", "i860"} {
		m, err := targets.Load(target)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []strategy.Kind{strategy.Postpass, strategy.IPS, strategy.RASE} {
			cfg := pipeline.Config{Strategy: kind, Workers: 1, Verify: true, Strict: true}
			var all []*ir.Func
			for _, u := range lowerUnits(t, units...) {
				all = append(all, u...)
			}
			got, diags := pipeline.Backend().Run(context.Background(), m, all, cfg)
			if err := diags.Err(); err != nil {
				t.Fatalf("%s/%s: %v", target, kind, err)
			}
			i := 0
			for ui, u := range lowerUnits(t, units...) {
				for _, fn := range u {
					where := fmt.Sprintf("%s/%s %s:%s", target, kind, units[ui], fn.Name)
					sameResult(t, where, m, got[i], compileAlone(t, m, fn, cfg))
					i++
				}
			}
		}
	}
}

// TestWarmArenaStoresAsFresh: with a cache, the worker's encoder and the
// admission check's verifier run on the arena too, and every entry a
// warmed worker stores is the one a worker of its own stores.
func TestWarmArenaStoresAsFresh(t *testing.T) {
	units := []string{"livermore", gentest.Pressure, gentest.BigBlock}
	newCache := func() *cache.Cache {
		c, err := cache.New(cache.Options{Registry: metrics.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	for _, tc := range []struct {
		target string
		kind   strategy.Kind
	}{{"r2000", strategy.Postpass}, {"m88000", strategy.IPS}, {"i860", strategy.RASE}} {
		m, err := targets.Load(tc.target)
		if err != nil {
			t.Fatal(err)
		}
		cfgKey := cache.ConfigKey(tc.kind, strategy.Options{}, false)
		warm := newCache()
		var all []*ir.Func
		var keys []cache.Key
		for _, u := range lowerUnits(t, units...) {
			for _, fn := range u {
				all = append(all, fn)
				keys = append(keys, cache.FuncKey(fn.Fingerprint(), m.Fingerprint(), cfgKey))
			}
		}
		_, diags := pipeline.Backend().Run(context.Background(), m, all,
			pipeline.Config{Strategy: tc.kind, Workers: 1, Strict: true, Cache: warm})
		if err := diags.Err(); err != nil {
			t.Fatalf("%s/%s: %v", tc.target, tc.kind, err)
		}
		i := 0
		for _, u := range lowerUnits(t, units...) {
			for _, fn := range u {
				where := fmt.Sprintf("%s/%s %s", tc.target, tc.kind, fn.Name)
				alone := newCache()
				compileAlone(t, m, fn, pipeline.Config{Strategy: tc.kind, Workers: 1, Strict: true, Cache: alone})
				got, ok := warm.Get(keys[i])
				want, wok := alone.Get(keys[i])
				if !ok || !wok || !bytes.Equal(got, want) {
					t.Errorf("%s: warmed worker stored %d bytes (%v), alone %d (%v)", where, len(got), ok, len(want), wok)
				}
				i++
			}
		}
	}
}

// TestFailedAttemptLeavesArenaUsable: the first function one worker
// claims (the longest) fails its primary attempt part-way — the
// allocator hangs until the budget ends it, after IPS's prepass has
// scheduled every block on the arena, or the scheduler panics — and
// is compiled by the ladder's next rung on the same arena. It equals a
// fresh compile under that rung, and every function the worker compiles
// after it equals a fresh compile.
func TestFailedAttemptLeavesArenaUsable(t *testing.T) {
	m, err := targets.Load("r2000")
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []strategy.Kind{strategy.Postpass, strategy.IPS, strategy.RASE} {
		for _, site := range []string{"regalloc:hang", "sched:panic"} {
			funcs := lowerUnits(t, "livermore")[0]
			k := 0
			for i, fn := range funcs {
				if fn.NodeCount() > funcs[k].NodeCount() {
					k = i
				}
			}
			cfg := pipeline.Config{Strategy: kind, Workers: 1, Verify: true, Budget: time.Second,
				Faults: mustFaults(t, fmt.Sprintf("%s@fn=%d", site, k))}
			got, diags := pipeline.Backend().Run(context.Background(), m, funcs, cfg)
			if err := diags.Err(); err != nil {
				t.Fatalf("%s %s: %v", kind, site, err)
			}
			if got[k].Fallback == nil {
				t.Fatalf("%s %s: %s was not degraded; the fault did not fire", kind, site, funcs[k].Name)
			}
			for i, fn := range lowerUnits(t, "livermore")[0] {
				where := fmt.Sprintf("%s %s %s", kind, site, fn.Name)
				fresh := pipeline.Config{Strategy: kind, Workers: 1, Verify: true}
				if i == k {
					fresh.Strategy, fresh.Strict = got[k].Strategy, true
				}
				sameResult(t, where, m, got[i], compileAlone(t, m, fn, fresh))
			}
		}
	}
}
