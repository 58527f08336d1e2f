package strategy

import (
	"marion/internal/asm"
	"marion/internal/mach"
	"marion/internal/regalloc"
	"marion/internal/sched"
)

// The scratch-reuse test lives in package strategy_test (it needs
// internal/driver and internal/livermore, which import this package);
// this is its door to Apply with a scheduling scratch of the test's
// choosing.
func ApplyOnScratch(m *mach.Machine, af *asm.Func, kind Kind, opts Options, scratch func() *sched.Scratch) (*Stats, error) {
	return apply(m, af, kind, opts, new(regalloc.Scratch), scratch)
}
