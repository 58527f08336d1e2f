// Host-side timings of the code generator generator, the back end and
// the simulator. The request paths and each phase's time per function
// are timed in internal/driver, beside the allocation budgets that
// share their workloads. The paper's simulated results are not timings;
// internal/experiments pins them in EXPERIMENTS.md.
package marion

import (
	"fmt"
	"testing"

	"marion/internal/asm"
	"marion/internal/driver"
	"marion/internal/gentest"
	"marion/internal/ir"
	"marion/internal/livermore"
	"marion/internal/maril"
	"marion/internal/regalloc"
	"marion/internal/sel"
	"marion/internal/sim"
	"marion/internal/strategy"
	"marion/internal/targets"
	"marion/internal/xform"
)

// BenchmarkTable1Descriptions measures the code generator generator: the
// time to turn the three Maril descriptions of Table 1 into machine
// tables.
func BenchmarkTable1Descriptions(b *testing.B) {
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

// BenchmarkTable3Compile measures back end compile time per target and
// strategy over the Livermore suite, verifier on: the compile-time
// column of the paper's Table 3, which EXPERIMENTS.md leaves to this
// benchmark. IPS schedules each block twice; RASE runs two estimate
// schedules per block (raseEstimates) before its Postpass schedule.
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

// BenchmarkBigBlock measures the back end on one straight-line block of
// 24, 64, 96 and 128 statements (functions big24/big64/big96/big128 of
// the golden big-block fixture) under RASE, the strategy with the most
// scheduling passes: how compile time and allocation grow with block
// length, per target. Lowering runs outside the timer.
func BenchmarkBigBlock(b *testing.B) {
	src := gentest.Fixture(gentest.BigBlock).Text
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

// BenchmarkRegalloc measures register allocation alone, per target: on
// the Livermore suite (28 short-block functions, the cold_loops shape)
// and on the big-block fixture's 96-statement function (the densest
// interference graph in the corpus). Lowering, the glue transform and
// selection run outside the timer; allocation rewrites the selected code
// in place, so each iteration selects afresh.
func BenchmarkRegalloc(b *testing.B) {
	src := gentest.Fixture(gentest.BigBlock).Text
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

// BenchmarkSimulator measures raw simulator throughput.
func BenchmarkSimulator(b *testing.B) {
	k := &livermore.Kernels[2] // loop 3, inner product
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
