package gentest

import "runtime"

// AllocsPerRun is testing.AllocsPerRun reporting bytes beside the
// count: what one call of f allocates on average over runs calls, after
// a warm-up call, with one P from the warm-up on, so that nothing else
// runs in between and whatever f puts back in a sync.Pool stays on the
// P that takes it again. prepare, when not nil, runs before each call
// of f, outside the count.
func AllocsPerRun(runs int, prepare, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	for i := range runs + 1 {
		if prepare != nil {
			prepare()
		}
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
