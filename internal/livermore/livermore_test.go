package livermore

import (
	"fmt"
	"math"
	"testing"

	"marion/internal/sim"
	"marion/internal/strategy"
)

// TestKernelsPostpass verifies all 14 kernels end-to-end on TOYP with
// the Postpass strategy: compile, simulate, compare checksums against
// the Go references.
func TestKernelsPostpass(t *testing.T) {
	for i := range Kernels {
		k := &Kernels[i]
		t.Run(fmt.Sprintf("loop%d", k.ID), func(t *testing.T) {
			if err := Verify(k, "toyp", strategy.Postpass, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestKernelsAllStrategies runs a representative subset under every
// strategy (full coverage of all 14x4 combinations lives in the
// experiment harness).
func TestKernelsAllStrategies(t *testing.T) {
	for _, id := range []int{1, 2, 5, 7, 13, 14} {
		k := ByID(id)
		for _, s := range []strategy.Kind{strategy.Naive, strategy.Postpass, strategy.IPS, strategy.RASE} {
			t.Run(fmt.Sprintf("loop%d/%s", id, s), func(t *testing.T) {
				if err := Verify(k, "toyp", s, 1); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// ByID returns kernel number id (1-based).
func ByID(id int) *Kernel {
	for i := range Kernels {
		if Kernels[i].ID == id {
			return &Kernels[i]
		}
	}
	return nil
}

func TestByID(t *testing.T) {
	if ByID(3) == nil || ByID(3).Name != "inner product" {
		t.Error("ByID(3) wrong")
	}
	if ByID(99) != nil {
		t.Error("ByID(99) should be nil")
	}
	if len(Kernels) != 14 {
		t.Errorf("kernels = %d", len(Kernels))
	}
}

// TestReferencesNonTrivial guards against degenerate kernels whose
// checksum is zero or NaN.
func TestReferencesNonTrivial(t *testing.T) {
	for i := range Kernels {
		k := &Kernels[i]
		v := k.Ref(1)
		if v == 0 || v != v {
			t.Errorf("kernel %d reference checksum = %v", k.ID, v)
		}
		// More iterations must change state-carrying kernels or at least
		// stay finite.
		v2 := k.Ref(3)
		if v2 != v2 {
			t.Errorf("kernel %d diverges", k.ID)
		}
	}
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
