package driver

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"marion/internal/cache"
	"marion/internal/faults"
	"marion/internal/metrics"
	"marion/internal/strategy"
)

var cacheTargets = []string{"r2000", "r2000s", "m88000", "i860", "rs6000", "toyp"}

var cacheStrategies = []strategy.Kind{
	strategy.Naive, strategy.Postpass, strategy.IPS, strategy.RASE, strategy.Local,
}

func newTestCache(t *testing.T, dir string) *cache.Cache {
	t.Helper()
	c, err := cache.New(cache.Options{Dir: dir, Registry: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCacheColdWarmByteIdentical is the determinism suite: on every
// target and strategy, a warm compile served from the cache must be
// byte-identical to the cold compile that populated it — same assembly,
// same per-function statistics, same selection counters.
func TestCacheColdWarmByteIdentical(t *testing.T) {
	for _, target := range cacheTargets {
		for _, strat := range cacheStrategies {
			t.Run(target+"/"+strat.String(), func(t *testing.T) {
				c := newTestCache(t, "")
				cfg := Config{Strategy: strat, Cache: c}

				cold, err := Compile(target, "tiny.c", tinyProg, cfg)
				if err != nil {
					t.Fatalf("cold: %v", err)
				}
				cs := c.Stats()
				if cs.Hits() != 0 {
					t.Fatalf("cold run hit the empty cache: %+v", cs)
				}

				warm, err := Compile(target, "tiny.c", tinyProg, cfg)
				if err != nil {
					t.Fatalf("warm: %v", err)
				}
				ws := c.Stats()
				if got, want := ws.MemHits, cs.Stores; got != want {
					t.Errorf("warm hits = %d, want %d (one per stored function)", got, want)
				}

				if coldAsm, warmAsm := cold.Prog.Print(), warm.Prog.Print(); coldAsm != warmAsm {
					t.Errorf("warm assembly differs from cold:\n--- cold ---\n%s\n--- warm ---\n%s", coldAsm, warmAsm)
				}
				if !reflect.DeepEqual(cold.Stats, warm.Stats) {
					t.Errorf("stats differ: cold %+v warm %+v", cold.Stats, warm.Stats)
				}
				if cold.Sel != warm.Sel {
					t.Errorf("sel counters differ: cold %+v warm %+v", cold.Sel, warm.Sel)
				}
			})
		}
	}
}

// TestCacheWarmAcrossWorkerCounts pins that cache hits commit in source
// order like everything else: warm output is byte-identical whatever
// the worker count.
func TestCacheWarmAcrossWorkerCounts(t *testing.T) {
	c := newTestCache(t, "")
	base := Config{Strategy: strategy.RASE, Cache: c}

	cold, err := Compile("r2000", "tiny.c", tinyProg, base)
	if err != nil {
		t.Fatal(err)
	}
	want := cold.Prog.Print()
	for _, workers := range []int{1, 4, 8} {
		cfg := base
		cfg.Workers = workers
		warm, err := Compile("r2000", "tiny.c", tinyProg, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := warm.Prog.Print(); got != want {
			t.Errorf("workers=%d: warm assembly differs from cold", workers)
		}
	}
	if s := c.Stats(); s.MemHits != 3*s.Stores {
		t.Errorf("cache stats = %+v, want three full warm runs of hits", s)
	}
}

// TestCachePoisonedEntryRejected pins the safety property: a corrupted
// disk entry is rejected (and deleted), and the compile falls back to a
// recompile with byte-identical output.
func TestCachePoisonedEntryRejected(t *testing.T) {
	dir := t.TempDir()
	cfgFor := func(c *cache.Cache) Config {
		return Config{Strategy: strategy.Postpass, Cache: c}
	}

	cold, err := Compile("m88000", "tiny.c", tinyProg, cfgFor(newTestCache(t, dir)))
	if err != nil {
		t.Fatal(err)
	}

	files, err := filepath.Glob(filepath.Join(dir, "*.mce"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no disk entries written (%v)", err)
	}
	// Poison every entry: flip one payload byte in each.
	for _, f := range files {
		blob, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		blob[len(blob)-1] ^= 0xFF
		if err := os.WriteFile(f, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// A fresh cache over the poisoned directory: every lookup must
	// reject, recompile, and re-store a good entry.
	c2 := newTestCache(t, dir)
	warm, err := Compile("m88000", "tiny.c", tinyProg, cfgFor(c2))
	if err != nil {
		t.Fatal(err)
	}
	if cold.Prog.Print() != warm.Prog.Print() {
		t.Error("recompile after poisoned cache differs from cold output")
	}
	s := c2.Stats()
	if s.Rejects != int64(len(files)) {
		t.Errorf("rejects = %d, want %d", s.Rejects, len(files))
	}
	if s.Hits() != 0 {
		t.Errorf("poisoned entries served as hits: %+v", s)
	}

	// Third run: the healed entries serve.
	c3 := newTestCache(t, dir)
	again, err := Compile("m88000", "tiny.c", tinyProg, cfgFor(c3))
	if err != nil {
		t.Fatal(err)
	}
	if again.Prog.Print() != cold.Prog.Print() {
		t.Error("healed cache output differs")
	}
	if s := c3.Stats(); s.DiskHits == 0 || s.Rejects != 0 {
		t.Errorf("healed cache stats = %+v", s)
	}
}

// TestCacheDisabledUnderFaults pins that an armed fault harness turns
// the cache off entirely: injected failures must not be cached, and
// hits must not mask the sites under test.
func TestCacheDisabledUnderFaults(t *testing.T) {
	set, err := faults.Parse("select:err@fn=fib")
	if err != nil {
		t.Fatal(err)
	}
	c := newTestCache(t, "")
	out, err := Compile("toyp", "tiny.c", tinyProg, Config{
		Strategy: strategy.Postpass, Faults: set, Cache: c,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Degradations) != 1 {
		t.Fatalf("degradations = %v", out.Degradations)
	}
	if s := c.Stats(); s != (cache.Stats{}) {
		t.Errorf("cache touched under faults: %+v", s)
	}
}

// TestRetryTimeSeparatedFromPhaseTimes pins the timing fix: a function
// that walks the degradation ladder attributes only its accepted
// attempt to PhaseTimes; the failed primary attempt's wall time lands
// in RetryTime instead of double-counting the phases.
func TestRetryTimeSeparatedFromPhaseTimes(t *testing.T) {
	set, err := faults.Parse("strategy:err@fn=fib")
	if err != nil {
		t.Fatal(err)
	}
	out, err := Compile("toyp", "tiny.c", tinyProg, Config{
		Strategy: strategy.Postpass, Faults: set,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Degradations) != 1 {
		t.Fatalf("degradations = %v", out.Degradations)
	}
	// The faulted attempt ran xform and select before its strategy
	// phase failed; that time must be accounted as retry overhead.
	if out.RetryTime <= 0 {
		t.Error("failed attempt's wall time not recorded in RetryTime")
	}
	for _, phase := range []string{"xform", "select", "strategy"} {
		if out.PhaseTimes[phase] <= 0 {
			t.Errorf("phase %q missing from accepted-attempt times", phase)
		}
	}
}

// TestCacheHitVerifyReport pins that with Verify on, a warm compile
// reports the same (clean) verifier outcome as the cold one.
func TestCacheHitVerifyReport(t *testing.T) {
	c := newTestCache(t, "")
	cfg := Config{Strategy: strategy.IPS, Verify: true, Cache: c}
	cold, err := Compile("rs6000", "tiny.c", tinyProg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Compile("rs6000", "tiny.c", tinyProg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Verify == nil || warm.Verify == nil {
		t.Fatal("verify reports missing")
	}
	if cold.Verify.String() != warm.Verify.String() {
		t.Errorf("verify reports differ:\ncold: %s\nwarm: %s", cold.Verify, warm.Verify)
	}
	if s := c.Stats(); s.Hits() == 0 {
		t.Errorf("verified warm run did not hit: %+v", s)
	}
	if !strings.Contains(warm.Prog.Print(), "fib") {
		t.Error("warm program lost its functions")
	}
}
