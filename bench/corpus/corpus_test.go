package corpus

import (
	"context"
	"testing"
	"time"

	"marion/internal/driver"
	"marion/internal/iltext"
	"marion/internal/ir"
	"marion/internal/strategy"
	"marion/internal/targets"
)

// generated returns the two corpora that have holes.
func generated(t *testing.T) map[string]*Corpus {
	t.Helper()
	serve, err := Serve()
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Corpus{"bigblock": BigBlocks(), "serve": serve}
}

func lower(t *testing.T, u *Unit, src string) *ir.Module {
	t.Helper()
	var mod *ir.Module
	var err error
	if u.Lang == "il" {
		mod, err = iltext.Parse(u.Name, src)
	} else {
		mod, err = driver.Frontend(u.Name, src)
	}
	if err != nil {
		t.Fatalf("%s: %v", u.Name, err)
	}
	if len(mod.Funcs) != u.Funcs {
		t.Fatalf("%s: %d functions, unit declares %d", u.Name, len(mod.Funcs), u.Funcs)
	}
	return mod
}

// Same seed, same bytes: building a corpus twice and rendering a unit
// twice give identical text.
func TestSameSeedSameBytes(t *testing.T) {
	first, second := generated(t), generated(t)
	for name, a := range first {
		b := second[name]
		for i, u := range a.Units {
			for _, at := range [][3]int{{0, 0, 0}, {3, 2, 5}} {
				x := a.Source(u, int64(7+at[0]), at[1], at[2])
				y := b.Source(b.Units[i], int64(7+at[0]), at[1], at[2])
				if x != y {
					t.Errorf("%s/%s: seed %d pass %d variant %d renders differently the second time", name, u.Name, 7+at[0], at[1], at[2])
				}
			}
		}
	}
}

// No two functions share a fingerprint: not within a unit, not across
// configurations' variants, not across passes, not across seeds. That is
// what lets serve_cold promise a cache that never hits.
func TestNoSharedFingerprint(t *testing.T) {
	for name, c := range generated(t) {
		seen := map[ir.Digest]string{}
		for _, at := range []struct {
			seed          int64
			pass, variant int
		}{{1, 0, 0}, {1, 0, 8}, {1, 1, 0}, {1, 7, 3}, {2, 0, 0}, {2, 1, 0}} {
			for _, u := range c.Units {
				mod := lower(t, u, c.Source(u, at.seed, at.pass, at.variant))
				for _, fn := range mod.Funcs {
					fp := fn.Fingerprint()
					where := u.Name + ":" + fn.Name
					if prev, dup := seen[fp]; dup {
						t.Fatalf("%s: %s (seed %d pass %d variant %d) has the fingerprint of %s",
							name, where, at.seed, at.pass, at.variant, prev)
					}
					seen[fp] = where
				}
			}
		}
	}
}

// Every unit compiles verify-clean with nothing degraded under all nine
// configurations, and no big-block op takes longer than half a second
// (the cap that keeps 96-statement blocks out of the workload).
func TestCompilesCleanEverywhere(t *testing.T) {
	all := generated(t)
	loops, err := Loops("../..")
	if err != nil {
		t.Fatal(err)
	}
	all["loops"] = loops
	for name, c := range all {
		for _, u := range c.Units {
			for ci, cfg := range Configs {
				m, err := targets.Load(cfg.Target)
				if err != nil {
					t.Fatal(err)
				}
				kind, err := strategy.ParseKind(cfg.Strategy)
				if err != nil {
					t.Fatal(err)
				}
				mod := lower(t, u, c.Source(u, 1, 0, ci))
				start := time.Now()
				comp, err := driver.CompileModuleCtx(context.Background(), m, mod,
					driver.Config{Strategy: kind, Workers: 1, Verify: true})
				took := time.Since(start)
				if err != nil {
					t.Errorf("%s/%s %v: %v", name, u.Name, cfg, err)
					continue
				}
				if !comp.Verify.Empty() || len(comp.Degradations) > 0 {
					t.Errorf("%s/%s %v: %d verifier findings, %d degradations",
						name, u.Name, cfg, len(comp.Verify.Findings), len(comp.Degradations))
				}
				if u.Stmts > 0 && !raceEnabled && took > 500*time.Millisecond {
					t.Errorf("%s/%s %v: one op took %v, over the half-second cap", name, u.Name, cfg, took)
				}
			}
		}
	}
}

// The literal fills a hole with a distinct double for every (seed, id).
func TestLiteralsDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, seed := range []int64{0, 1, 2, 9999} {
		for id := 0; id < 2000; id++ {
			lit := Literal(seed, id)
			if seen[lit] {
				t.Fatalf("Literal(%d, %d) = %s repeats", seed, id, lit)
			}
			seen[lit] = true
		}
	}
}
