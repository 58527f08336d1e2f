package ilgen

import "marion/internal/ir"

// The corpus test lives in package ilgen_test (it needs
// internal/livermore, which imports this package); these are its doors
// to the pass.

// CSETable is the pass's table, which Lower keeps for a whole unit.
type CSETable = cseTable

// CSEFunc value-numbers blocks as the blocks of one function with regs
// pseudo-registers, on t as Lower does.
func CSEFunc(t *CSETable, blocks []*ir.Block, regs int) {
	t.function(regs)
	for _, b := range blocks {
		t.block(b)
	}
}
