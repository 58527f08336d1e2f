package experiments

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"marion/internal/driver"
	"marion/internal/livermore"
	"marion/internal/sim"
	"marion/internal/strategy"
)

// loops is the repetition count every kernel of the sweep runs at: one
// setting for the whole evaluation, so no two blocks can disagree on it.
const loops = 1

// The sweep's configurations: the §5 targets (the paper's R2000 and
// i860, the 88000, the RS/6000 and r2000s, the R2000 with a starved
// register file) under every strategy, the Local baseline first.
var (
	speedTargets = []string{"r2000", "m88000", "rs6000", "i860", "r2000s"}
	speedKinds   = []strategy.Kind{strategy.Local, strategy.Naive, strategy.Postpass, strategy.IPS, strategy.RASE}
	// paperKinds are the paper's three strategies, Table 3's and Table
	// 4's columns.
	paperKinds = []strategy.Kind{strategy.Postpass, strategy.IPS, strategy.RASE}
)

// table4Target is the machine Table 4 simulates with the cache model on.
const table4Target = "r2000"

// ablations switch one of the paper's §4 design choices at a time,
// each measured against the default Postpass on its target: base and
// arm name the two sides, and the arm compiles under kind with opts.
// FIFO candidate order is the Naive strategy (Postpass's passes with the
// max-distance priority off), so the heuristic rows read §5's cells.
var ablations = []struct {
	name, target, base, arm string
	kind                    strategy.Kind
	opts                    strategy.Options
}{
	{"heuristic", "r2000", "max-distance", "fifo (naive)", strategy.Naive, strategy.Options{}},
	{"hazard check", "r2000", "in-flight", "current cycle only", strategy.Postpass, strategy.Options{CurrentCycleOnly: true}},
	// Without anti and output edges the allocated code may be wrong, so
	// this arm is neither verified nor run: it compares the
	// scheduler's own estimates.
	{"anti/output edges", "r2000", "with", "without", strategy.Postpass, strategy.Options{NoAnti: true}},
	{"i860 sub-operations", "i860", "temporal overlap", "in order (naive)", strategy.Naive, strategy.Options{}},
	{"delay slots", "r2000", "nops", "filled", strategy.Postpass, strategy.Options{FillDelaySlots: true}},
}

// cell is one configuration the sweep compiles the suite under.
type cell struct {
	target string
	kind   strategy.Kind
	opts   strategy.Options
}

// run is one kernel of one cell.
type run struct {
	generated int64 // instructions emitted
	estimated int64 // the scheduler's own estimate (Stats.EstimatedCycles)
	cycles    int64 // simulated, cache model off
	executed  int64 // instructions executed, cache model off
	profiled  int64 // scheduler block costs × simulated block counts
	cached    int64 // simulated cycles with the cache model on (Table 4's cells only)
}

// sweep is the whole evaluation's measurements: every cell over the
// Livermore suite, each kernel's checksum checked.
type sweep struct {
	runs    map[cell][]run // in livermore.Kernels order
	checked int            // checksums compared with Kernel.Ref(loops)
}

// total sums f over one cell's kernels.
func (s *sweep) total(c cell, f func(run) int64) int64 {
	var n int64
	for _, r := range s.runs[c] {
		n += f(r)
	}
	return n
}

// runSweep compiles every Livermore kernel once per cell, simulates it
// at loops, and checks its checksum against the Go reference. The
// kernels fan out over GOMAXPROCS goroutines; every number lands in a
// fixed slot, so the result does not depend on the schedule.
func runSweep() (*sweep, error) {
	var cells []cell
	for _, t := range speedTargets {
		for _, k := range speedKinds {
			cells = append(cells, cell{target: t, kind: k})
		}
	}
	for _, a := range ablations {
		if c := (cell{target: a.target, kind: a.kind, opts: a.opts}); !slices.Contains(cells, c) {
			cells = append(cells, c)
		}
	}
	nk := len(livermore.Kernels)
	runs := make([]run, len(cells)*nk)
	checked := make([]int, len(runs))
	errs := make([]error, len(runs))
	next := make(chan int)
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				runs[i], checked[i], errs[i] = cells[i/nk].measure(&livermore.Kernels[i%nk])
			}
		}()
	}
	for i := range runs {
		next <- i
	}
	close(next)
	wg.Wait()
	s := &sweep{runs: map[cell][]run{}}
	for ci, c := range cells {
		s.runs[c] = runs[ci*nk : (ci+1)*nk]
	}
	for i, err := range errs {
		if err != nil {
			c := cells[i/nk]
			return nil, fmt.Errorf("%s/%s%+v loop%d: %w", c.target, c.kind, c.opts, livermore.Kernels[i%nk].ID, err)
		}
		s.checked += checked[i]
	}
	return s, nil
}

// measure compiles k under c with the verifier on and simulates it, once
// with the cache model off and, on Table 4's cells, once with it on. It
// returns the run and the number of checksums it checked.
func (c cell) measure(k *livermore.Kernel) (run, int, error) {
	var comp *driver.Compiled
	var err error
	if c.opts == (strategy.Options{}) {
		comp, err = livermore.Build(k, c.target, c.kind)
	} else {
		comp, err = driver.Compile(c.target, "c", fmt.Sprintf("loop%d.c", k.ID), k.Source, driver.Config{
			Strategy: c.kind, Options: c.opts, Verify: !c.opts.NoAnti,
		})
		if err == nil {
			err = comp.Verify.Err()
		}
	}
	if err == nil {
		err = undegraded(comp)
	}
	if err != nil {
		return run{}, 0, err
	}
	var r run
	for _, f := range comp.Prog.Funcs {
		for _, b := range f.Blocks {
			r.generated += int64(len(b.Insts))
		}
	}
	for _, st := range comp.Stats {
		r.estimated += int64(st.EstimatedCycles)
	}
	if c.opts.NoAnti {
		return r, 0, nil
	}
	caches := []sim.CacheConfig{{}}
	if c.target == table4Target && c.opts == (strategy.Options{}) && slices.Contains(paperKinds, c.kind) {
		caches = append(caches, sim.DefaultCache())
	}
	want := k.Ref(loops)
	for i, cache := range caches {
		sum, st, err := livermore.Run(comp, loops, cache)
		if err != nil {
			return run{}, 0, err
		}
		if math.Abs(sum-want) > 1e-9*math.Max(1, math.Abs(want)) {
			return run{}, 0, fmt.Errorf("checksum %.17g, reference %.17g", sum, want)
		}
		if i == 0 {
			r.cycles, r.executed = st.Cycles, st.Instrs
			for blk, n := range st.BlockCounts {
				r.profiled += int64(blk.SchedCost) * n
			}
		} else {
			r.cached = st.Cycles
		}
	}
	return r, len(caches), nil
}

// undegraded refuses a compile a fallback rung rescued: that code
// measures the rung, not the cell's strategy. The error names the first
// such function, its rung and the reason.
func undegraded(comp *driver.Compiled) error {
	if len(comp.Degradations) == 0 {
		return nil
	}
	return fmt.Errorf("%d function(s) degraded, first %s", len(comp.Degradations), &comp.Degradations[0])
}
