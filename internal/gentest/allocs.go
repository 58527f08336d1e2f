package gentest

import (
	"runtime"
	"runtime/debug"
)

// AllocsPerRun is testing.AllocsPerRun reporting bytes beside the
// count: what one call of f allocates on average over runs calls, after
// a warm-up call, with one P from the warm-up on, so that nothing else
// runs in between. prepare, when not nil, runs before each call of f,
// outside the count. The collector runs only when asked: once before
// each call, so every call starts from the same heap, and never during
// f. What f puts back in the driver's free lists waits there through
// the collections, so every call after the warm-up borrows the worker
// and the front end the one before it put back.
func AllocsPerRun(runs int, prepare, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	for i := range runs + 1 {
		if prepare != nil {
			prepare()
		}
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		if i > 0 {
			allocs += float64(after.Mallocs - before.Mallocs)
			bytes += float64(after.TotalAlloc - before.TotalAlloc)
		}
	}
	return allocs / float64(runs), bytes / float64(runs)
}
