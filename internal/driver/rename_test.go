package driver_test

import (
	"testing"

	"marion/internal/driver"
	"marion/internal/gentest"
	"marion/internal/ir"
	"marion/internal/sim"
	"marion/internal/strategy"
	"marion/internal/targets"
	"marion/internal/verify"
)

// rename applies to mod the renamings the cache key does not see
// (DESIGN §10): every function gets another name, every block another
// ID (in reverse order, with gaps), every parameter and local another
// name.
func rename(mod *ir.Module) {
	for _, fn := range mod.Funcs {
		fn.Name = "re_" + fn.Name
		for i, b := range fn.Blocks {
			b.ID = 100 + 3*(len(fn.Blocks)-1-i)
		}
		for _, s := range fn.Params {
			s.Name = "p_" + s.Name
		}
		for _, s := range fn.Locals {
			s.Name = "l_" + s.Name
		}
	}
}

// A hit splices the current names into the stored text: a module
// compiled with a cache, then renamed, hits on every function, and the
// hit prints what a cold compile of the renamed module prints, byte for
// byte. Every unit of the golden, serve and generated corpora on
// r2000/m88000/i860 under postpass/ips/rase.
func TestRenamedHitEqualsCold(t *testing.T) {
	units := append(append(gentest.Golden(), gentest.Serve()...), gentest.Generated(50)...)
	for _, target := range []string{"r2000", "m88000", "i860"} {
		m, err := targets.Load(target)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []strategy.Kind{strategy.Postpass, strategy.IPS, strategy.RASE} {
			t.Run(target+"/"+kind.String(), func(t *testing.T) {
				t.Parallel()
				served := 0
				for _, u := range units {
					lower := func() *ir.Module {
						mod, err := driver.Lower(u.Lang, u.Name, u.Text)
						if err != nil {
							t.Fatalf("%s: %v", u.Name, err)
						}
						return mod
					}
					cached := driver.Config{Strategy: kind, Cache: freshCache(t)}
					if _, err := driver.CompileModule(m, lower(), cached); err != nil {
						t.Fatalf("%s: %v", u.Name, err)
					}
					warmMod := lower()
					rename(warmMod)
					warm, err := driver.CompileModule(m, warmMod, cached)
					if err != nil || warm.CacheHits != len(warmMod.Funcs) {
						t.Fatalf("%s: renamed module: %v, %d hits of %d", u.Name, err, warm.CacheHits, len(warmMod.Funcs))
					}
					coldMod := lower()
					rename(coldMod)
					cold, err := driver.CompileModule(m, coldMod, driver.Config{Strategy: kind})
					if err != nil {
						t.Fatalf("%s: %v", u.Name, err)
					}
					if got, want := warm.Prog.Print(), cold.Prog.Print(); got != want {
						t.Fatalf("%s: the renamed hit prints\n%s\na cold compile of the renamed module\n%s", u.Name, got, want)
					}
					for _, f := range warm.Prog.Funcs {
						if f.Text == nil {
							t.Fatalf("%s %s: a hit with instructions", u.Name, f.Name)
						}
					}
					served += len(warmMod.Funcs)
				}
				t.Logf("%d renamed functions served from the cache", served)
			})
		}
	}
}

// A hit carries no instructions, so the simulator and the verifier
// refuse it with an error rather than run or pass zero blocks.
func TestTextOnlyHitRefused(t *testing.T) {
	u := gentest.Golden()[0]
	cfg := driver.Config{Strategy: strategy.Postpass, Cache: freshCache(t)}
	var warm *driver.Compiled
	for range 2 {
		var err error
		if warm, err = driver.Compile("r2000", u.Lang, u.Name, u.Text, cfg); err != nil {
			t.Fatal(err)
		}
	}
	if warm.CacheHits != len(warm.Prog.Funcs) {
		t.Fatalf("%d hits of %d", warm.CacheHits, len(warm.Prog.Funcs))
	}
	f := warm.Prog.Funcs[0]
	if _, err := sim.New(warm.Prog, sim.Options{}).Run(f.Name); err == nil {
		t.Error("the simulator ran a text-only function")
	}
	rep := &verify.Report{}
	for _, f := range warm.Prog.Funcs {
		rep.Merge(verify.Func(warm.Prog.Machine, f, verify.Options{}))
	}
	if len(rep.Findings) != len(warm.Prog.Funcs) {
		t.Errorf("the verifier reported %d findings for %d text-only functions:\n%s", len(rep.Findings), len(warm.Prog.Funcs), rep)
	}
}
