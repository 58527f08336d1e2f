package server

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"testing"

	"marion/internal/gentest"
)

// What tracing adds to a warm hit, per function, with the ring on
// (TraceRing 256) and a JSON access log (to io.Discard) against neither:
// each bound is about 15 % above the difference measured when it was
// set (5.9 allocations and 1 000 bytes a function, over the serve
// corpus on r2000 under postpass: 101.0 against 95.1 allocations and
// 19 942 against 18 943 bytes). Tracing's cost is in bytes, not in time
// (ROADMAP 15(e)).
const (
	traceAllocsPerFn = 6.8
	traceBytesPerFn  = 1150
)

// TestTracingCostPerHit sends every serve unit, warm, through Handler()
// once traced and logged and once not, and bounds the difference in
// what one request allocates per function served.
func TestTracingCostPerHit(t *testing.T) {
	measure := func(cfg Config) (allocs, bytes float64, funcs int) {
		s := newTestServer(t, cfg)
		var bodies [][]byte
		for _, u := range gentest.Serve() {
			body, err := json.Marshal(CompileRequest{Source: u.Text, Lang: u.Lang, Filename: u.Name, Target: "r2000"})
			if err != nil {
				t.Fatal(err)
			}
			postRaw(s, body, nil) // fills the cache
			w := postRaw(s, body, nil)
			resp := decode[CompileResponse](t, w)
			if w.Code != http.StatusOK || resp.CacheHits == 0 || resp.CacheHits != len(resp.Stats) {
				t.Fatalf("%s: status %d, %d hits of %d functions", u.Name, w.Code, resp.CacheHits, len(resp.Stats))
			}
			funcs += resp.CacheHits
			bodies = append(bodies, body)
		}
		allocs, bytes = perRun(20, func() {
			for _, body := range bodies {
				postRaw(s, body, nil)
			}
		})
		return allocs, bytes, funcs
	}
	tracedAllocs, tracedBytes, n := measure(Config{
		TraceRing: 256,
		AccessLog: slog.New(slog.NewJSONHandler(io.Discard, nil)),
	})
	plainAllocs, plainBytes, _ := measure(Config{})
	fn := float64(n)
	dAllocs, dBytes := (tracedAllocs-plainAllocs)/fn, (tracedBytes-plainBytes)/fn
	t.Logf("per function over %d: traced %.1f allocations and %.0f bytes, untraced %.1f and %.0f; tracing adds %.1f and %.0f",
		n, tracedAllocs/fn, tracedBytes/fn, plainAllocs/fn, plainBytes/fn, dAllocs, dBytes)
	if raceEnabled {
		return
	}
	if dAllocs > traceAllocsPerFn {
		t.Errorf("tracing adds %.1f allocations a function, budget %.1f", dAllocs, traceAllocsPerFn)
	}
	if dBytes > traceBytesPerFn {
		t.Errorf("tracing adds %.0f bytes a function, budget %d", dBytes, traceBytesPerFn)
	}
}

// perRun reports what one call of f allocates on average over runs
// calls, after a warm-up call, with one P so that nothing else runs in
// between.
func perRun(runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
