package livermore

import (
	"fmt"

	"marion/internal/driver"
	"marion/internal/ir"
)

// SuiteModule lowers every Livermore kernel into one IL module, with
// functions renamed per kernel (init1/kern1, init2/kern2, ...). The
// result is a module with many independent functions — the workload for
// the parallel per-function back end benchmarks and determinism tests.
// Global data names are already unique across kernels, so the merged
// module lays out one copy of each kernel's data.
func SuiteModule() (*ir.Module, error) {
	out := &ir.Module{Name: "livermore-suite"}
	for i := range Kernels {
		k := &Kernels[i]
		mod, err := driver.Lower("c", fmt.Sprintf("loop%d.c", k.ID), k.Source)
		if err != nil {
			return nil, fmt.Errorf("loop%d: %w", k.ID, err)
		}
		for _, fn := range mod.Funcs {
			fn.Name = fmt.Sprintf("%s%d", fn.Name, k.ID)
			out.Funcs = append(out.Funcs, fn)
		}
		out.Globals = append(out.Globals, mod.Globals...)
	}
	return out, nil
}
