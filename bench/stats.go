package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
	"unsafe"
)

// quantile returns the q-quantile of xs by the nearest-rank rule; xs is
// sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n := len(xs); n%2 == 0 {
		return (xs[n/2-1] + xs[n/2]) / 2
	}
	return xs[len(xs)/2]
}

// typical is the mean of xs without its lowest and its highest tenth;
// xs is sorted in place. One op's latencies over a run's passes are
// spread broadly and evenly between the repetitions no collection
// touched and those one ran through, so their median sits where samples
// are sparse and moves with a handful of them; the trimmed mean does
// not, and still drops the host's hiccups.
func typical(xs []float64) float64 {
	sort.Float64s(xs)
	k := len(xs) / 10
	return mean(xs[k : len(xs)-k])
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, 0 when b is 0 (a layer the workload never entered).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// shaOf hashes assembly text without copying it: the digest sits inside
// the library workloads' allocation window, and a copy per operation
// would be the benchmark's own garbage in alloc_kb_per_fn.
func shaOf(text string) [32]byte {
	return sha256.Sum256(unsafe.Slice(unsafe.StringData(text), len(text)))
}

// rssMeter measures the peak resident set of a process pass by pass.
// VmHWM is a maximum over the process's whole life, and a maximum over a
// whole run of a garbage-collected program moves with a single
// unlucky collection; so the meter reads VmHWM at the end of every pass,
// resets it (writing 5 to /proc/<pid>/clear_refs), and reports the
// median of the per-pass peaks. Where the reset is not permitted every
// lap reads the same growing maximum and the median degrades to the
// plain high-water mark.
type rssMeter struct {
	pid  int
	mu   sync.Mutex // two clients can end two passes at once
	laps []float64  // MiB
	err  error
}

// lap records the peak since the previous lap and starts a new one.
func (r *rssMeter) lap() {
	r.mu.Lock()
	defer r.mu.Unlock()
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", r.pid))
	if err != nil {
		r.err = err
		return
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				r.err = fmt.Errorf("VmHWM of %d: %w", r.pid, err)
				return
			}
			r.laps = append(r.laps, kb/1024)
		}
	}
	// Failure to reset is not an error: see the type's comment.
	_ = os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", r.pid), []byte("5"), 0)
}

// restart begins the first lap: whatever peaked before is forgotten.
func (r *rssMeter) restart() {
	r.lap()
	r.mu.Lock()
	r.laps = nil
	r.mu.Unlock()
}

// peakMiB is the median per-pass peak.
func (r *rssMeter) peakMiB() (float64, error) {
	if r.err != nil {
		return 0, r.err
	}
	if len(r.laps) == 0 {
		return 0, fmt.Errorf("no VmHWM sample for pid %d", r.pid)
	}
	return median(r.laps), nil
}

// heapAllocs returns the bytes and objects allocated since process
// start. runtime.ReadMemStats stops the world, but unlike
// runtime/metrics it flushes every P's allocation cache first, and the
// traced run needs deltas that are exact around a single layer call.
// Callers keep it outside their timers.
func heapAllocs() (bytes, objects uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc, m.Mallocs
}
