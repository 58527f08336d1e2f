package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"marion"
	"marion/internal/cache"
	"marion/internal/metrics"
)

// TestConcurrentCompile exercises the documented guarantee that one
// CodeGenerator (with one shared cache) is safe for concurrent Compile
// calls: many goroutines compile overlapping translation units on the
// same generator, under `go test -race`, and every result must be
// byte-identical to a sequential compile of the same unit.
func TestConcurrentCompile(t *testing.T) {
	gen, err := marion.New("r2000", marion.Postpass)
	if err != nil {
		t.Fatal(err)
	}
	gen.Verify = true
	ch, err := cache.New(cache.Options{Registry: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	gen.Cache = ch

	// A few distinct units so goroutines both share cache keys (hits
	// race with stores) and miss (parallel back end runs race with each
	// other).
	units := make([]string, 4)
	for i := range units {
		units[i] = fmt.Sprintf(
			"int f%d(int a, int b) { int s; int i; s = %d; for (i = 0; i < a; i = i + 1) s = s + b * i; return s; }\n",
			i, i)
	}
	want := make([]string, len(units))
	for i, src := range units {
		res, err := gen.CompileCtx(context.Background(), fmt.Sprintf("u%d.c", i), src)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Program.Print()
	}

	const goroutines = 16
	const rounds = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g + r) % len(units)
				res, err := gen.CompileCtx(context.Background(), fmt.Sprintf("u%d.c", i), units[i])
				if err != nil {
					errs <- fmt.Errorf("goroutine %d round %d: %w", g, r, err)
					return
				}
				if got := res.Program.Print(); got != want[i] {
					errs <- fmt.Errorf("goroutine %d round %d: unit %d compiled differently", g, r, i)
					return
				}
				if res.Verify == nil || !res.Verify.Empty() {
					errs <- fmt.Errorf("goroutine %d round %d: verify findings", g, r)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := ch.Stats()
	if st.Stores == 0 || st.Hits() == 0 {
		t.Errorf("shared cache never exercised both paths: %+v", st)
	}
}
