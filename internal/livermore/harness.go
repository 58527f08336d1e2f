package livermore

import (
	"fmt"
	"math"

	"marion/internal/driver"
	"marion/internal/sim"
	"marion/internal/strategy"
)

// Build compiles a kernel for the given target and strategy. The
// emitted-code verifier runs on every build, so each kernel compile in
// the test suite doubles as a differential check of the scheduler and
// allocator: any finding is a build error.
func Build(k *Kernel, target string, strat strategy.Kind) (*driver.Compiled, error) {
	name := fmt.Sprintf("loop%d.c", k.ID)
	c, err := driver.Compile(target, "c", name, k.Source, driver.Config{
		Strategy: strat, Verify: true,
	})
	if err != nil {
		return nil, err
	}
	if err := c.Verify.Err(); err != nil {
		return nil, fmt.Errorf("%s/%s: %w", target, strat, err)
	}
	return c, nil
}

// Run executes a compiled kernel: init() then kern(loops). It returns
// the checksum and the kern() run statistics.
func Run(c *driver.Compiled, loops int, cache sim.CacheConfig) (float64, *sim.Stats, error) {
	s := sim.New(c.Prog, sim.Options{Cache: cache})
	if _, err := s.Run("init"); err != nil {
		return 0, nil, fmt.Errorf("init: %w", err)
	}
	st, err := s.Run("kern", sim.Int(int64(loops)))
	if err != nil {
		return 0, nil, fmt.Errorf("kern: %w", err)
	}
	return st.RetF, st, nil
}

// Verify compiles and runs the kernel, comparing the simulated checksum
// against the Go reference (operation order matches, so agreement is
// essentially bit-exact).
func Verify(k *Kernel, target string, strat strategy.Kind, loops int) error {
	c, err := Build(k, target, strat)
	if err != nil {
		return fmt.Errorf("kernel %d (%s): %w", k.ID, k.Name, err)
	}
	got, _, err := Run(c, loops, sim.CacheConfig{})
	if err != nil {
		return fmt.Errorf("kernel %d (%s): %w", k.ID, k.Name, err)
	}
	want := k.Ref(loops)
	if !close(got, want) {
		return fmt.Errorf("kernel %d (%s) on %s/%s: checksum %.17g, want %.17g",
			k.ID, k.Name, target, strat, got, want)
	}
	return nil
}

func close(a, b float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= 1e-9*scale
}
