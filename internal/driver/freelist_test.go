package driver

import (
	"context"
	"runtime"
	"testing"

	"marion/internal/gentest"
	"marion/internal/strategy"
	"marion/internal/targets"
)

// TestFreeListKeepsGOMAXPROCS: a Run with twice GOMAXPROCS claim loops
// puts its workers back, and at most GOMAXPROCS of them wait after it.
// Of twice GOMAXPROCS workers put back one after another, the list
// keeps the last GOMAXPROCS and hands them out newest first; the nil
// list keeps none.
func TestFreeListKeepsGOMAXPROCS(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	m, err := targets.Load("r2000")
	if err != nil {
		t.Fatal(err)
	}
	big := gentest.Fixture(gentest.BigBlock)
	mod, err := Lower(big.Lang, big.Name, big.Text)
	if err != nil {
		t.Fatal(err)
	}
	var ran freeList[worker]
	if _, err := compileModule(context.Background(), m, mod, Config{Strategy: strategy.Postpass, Workers: 2 * procs}, &ran); err != nil {
		t.Fatal(err)
	}
	if n := len(ran.idle); n == 0 || n > procs {
		t.Errorf("%d workers wait after %d claim loops, want 1 to GOMAXPROCS (%d)", n, 2*procs, procs)
	}

	var l freeList[worker]
	put := make([]*worker, 2*procs)
	for i := range put {
		put[i] = new(worker)
		l.put(put[i])
	}
	if n := len(l.idle); n != procs {
		t.Fatalf("%d of %d workers put back wait, want GOMAXPROCS (%d)", n, len(put), procs)
	}
	for i := len(put) - 1; i >= procs; i-- {
		if w := l.get(); w != put[i] {
			t.Fatalf("get %d gave a worker other than the one put back %d", len(put)-i, i)
		}
	}
	var none *freeList[worker]
	none.put(put[0])
	if w := none.get(); w == nil || w == put[0] {
		t.Error("the nil list kept a worker")
	}
}
