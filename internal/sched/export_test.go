package sched

import (
	"marion/internal/asm"
	"marion/internal/mach"
)

// Apply is apply on a scratch of its own, for the external tests.
func Apply(m *mach.Machine, af *asm.Func, b *asm.Block, res Result) {
	new(Scratch).apply(m, af, b, res)
}
