package livermore

import (
	"fmt"

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
