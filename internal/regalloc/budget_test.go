package regalloc

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"marion/internal/faults"
)

// spillPressureSrc needs at least two build-color-spill rounds on
// TOYP's 4 allocable int registers (see TestAllocateSpillsUnderPressure).
const spillPressureSrc = `
int f(int a, int b) {
    int v0 = a + b, v1 = a - b, v2 = a * b, v3 = a + 1, v4 = b + 2;
    int v5 = a + 3, v6 = b + 4, v7 = a + 5, v8 = b + 6, v9 = a + 7;
    return v0 + v1 + v2 + v3 + v4 + v5 + v6 + v7 + v8 + v9;
}`

// TestAllocateMaxRoundsCap pins the allocator's iteration cap: an
// allocation that needs more build-color-spill rounds than MaxRounds
// fails with a typed budget error instead of looping.
func TestAllocateMaxRoundsCap(t *testing.T) {
	m, af := selectOn(t, spillPressureSrc, "f")
	_, err := new(Scratch).AllocateOpts(m, af, Options{MaxRounds: 1})
	if !errors.Is(err, faults.ErrExceeded) {
		t.Fatalf("err = %v, want faults.ErrExceeded", err)
	}
	var le *faults.LimitError
	if !errors.As(err, &le) || le.Stage != "regalloc" || le.Steps != 1 {
		t.Errorf("limit error = %#v", le)
	}

	// The same function converges under the default cap.
	m2, af2 := selectOn(t, spillPressureSrc, "f")
	res, err := Allocate(m2, af2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds < 2 || res.Rounds > defaultMaxRounds {
		t.Errorf("rounds = %d", res.Rounds)
	}
}

// TestAllocateContextDeadline: the round loop stops on an expired or
// cancelled context and returns the context's error untyped, wrapped
// with where it stopped; only the driver makes a deadline a budget
// error.
func TestAllocateContextDeadline(t *testing.T) {
	expired, cancel := context.WithTimeout(context.Background(), -time.Second)
	defer cancel()
	m, af := selectOn(t, spillPressureSrc, "f")
	_, err := new(Scratch).AllocateOpts(m, af, Options{Context: expired})
	if !errors.Is(err, context.DeadlineExceeded) || errors.Is(err, faults.ErrExceeded) {
		t.Errorf("deadline err = %v, want plain context.DeadlineExceeded", err)
	}
	if !strings.Contains(err.Error(), "regalloc: f: stopped after 0 round(s)") {
		t.Errorf("deadline err = %q, want where allocation stopped", err)
	}

	cancelled, stop := context.WithCancel(context.Background())
	stop()
	m2, af2 := selectOn(t, spillPressureSrc, "f")
	_, err = new(Scratch).AllocateOpts(m2, af2, Options{Context: cancelled})
	if !errors.Is(err, context.Canceled) || errors.Is(err, faults.ErrExceeded) {
		t.Errorf("cancel err = %v, want plain context.Canceled", err)
	}
}
