package regalloc

import (
	"testing"

	"marion/internal/asm"
	"marion/internal/mach"
)

// steppedAllocate is AllocateOpts (less the budget checks) with the
// simplify loop opened up: after every build the adjacency vectors must
// be exactly the bit matrix, and before every push each un-removed
// node's incremental degree must equal a from-scratch recomputation and
// the low set must be exactly the nodes under K. It also returns each
// colouring round's spill list, which numbers the spill slots.
func steppedAllocate(t testing.TB, m *mach.Machine, af *asm.Func, opts Options) (*Result, [][]asm.PseudoID, error) {
	var rounds [][]asm.PseudoID
	a := new(allocator).reset(m, af)
	if opts.SpillGlobals {
		if err := a.spillGlobals(); err != nil {
			return nil, rounds, err
		}
	}
	for round := 0; round < defaultMaxRounds; round++ {
		a.res.Rounds = round + 1
		a.build()
		checkAdjacency(t, a)
		for a.remaining > 0 {
			checkDegrees(t, a)
			a.remove(a.pick())
		}
		spilled, err := a.selectColors()
		if err != nil {
			return nil, rounds, err
		}
		if len(spilled) == 0 {
			a.rewrite()
			a.res.UsedCalleeSave = a.usedCalleeSave()
			return a.res, rounds, nil
		}
		rounds = append(rounds, spilled)
		a.res.Spills += len(spilled)
		if err := a.insertSpills(spilled); err != nil {
			return nil, rounds, err
		}
	}
	t.Fatalf("%s: no convergence in %d rounds", af.Name, defaultMaxRounds)
	return nil, rounds, nil
}

func checkAdjacency(t testing.TB, a *allocator) {
	t.Helper()
	for p := 0; p < a.n; p++ {
		seen := make(bitset, words(a.n))
		for _, nb := range a.neighbours(p) {
			hi, lo := max(p, int(nb)), min(p, int(nb))
			if hi == lo || seen.has(int(nb)) || !a.matrix.has(hi*(hi-1)/2+lo) {
				t.Fatalf("%s: t%d lists t%d, which is itself, a duplicate or not in the matrix", a.af.Name, p, nb)
			}
			seen.set(int(nb))
		}
		for q := 0; q < p; q++ {
			if a.matrix.has(p*(p-1)/2+q) && !seen.has(q) {
				t.Fatalf("%s: matrix edge t%d-t%d missing from t%d's adjacency", a.af.Name, p, q, p)
			}
		}
	}
}

func checkDegrees(t testing.TB, a *allocator) {
	t.Helper()
	left := 0
	for p := 0; p < a.n; p++ {
		if a.removed.has(p) {
			if a.low.has(p) {
				t.Fatalf("%s: removed t%d still in the low set", a.af.Name, p)
			}
			continue
		}
		left++
		mine := a.af.Pseudos[p].Set
		d := a.forbidRow(p).count()
		for _, nb := range a.neighbours(p) {
			if !a.removed.has(int(nb)) {
				d += degreeWeight(mine, a.af.Pseudos[nb].Set)
			}
		}
		if d != a.deg[p] {
			t.Fatalf("%s: t%d incremental degree %d, recomputed %d", a.af.Name, p, a.deg[p], d)
		}
		if a.low.has(p) != (d < len(a.colors[a.set[p]])) {
			t.Fatalf("%s: t%d degree %d, K %d, low=%v", a.af.Name, p, d, len(a.colors[a.set[p]]), a.low.has(p))
		}
	}
	if left != a.remaining {
		t.Fatalf("%s: %d nodes un-removed, remaining says %d", a.af.Name, left, a.remaining)
	}
}
