// Package metrics is Marion's lightweight observability layer: a named
// registry of lock-free counters and fixed-bucket histograms, shared by
// the compilation cache (hit/miss/eviction counts) and the back end
// (per-phase wall-time distributions). A Snapshot is what /statz and the
// Prometheus exposition (prom.go) render.
//
// All instruments are safe for concurrent use from the parallel
// per-function back end workers: counters are single atomics and
// histogram buckets are atomic arrays, so recording never takes a lock
// (only instrument *lookup* takes a read lock; hot paths should resolve
// instruments once and hold the pointer).
package metrics

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable atomic level — a value that goes up AND down
// (current concurrency limit, brownout level), unlike a Counter.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket distribution. An observation lands in the
// first bucket whose upper bound is >= the value; values beyond the
// last bound land in the implicit overflow bucket.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last = overflow
	sum    atomic.Int64   // sum of observations, in micro-units (1e-6)
	n      atomic.Int64
}

// observe records one value.
func (h *Histogram) observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	addSaturating(&h.sum, microUnits(v))
	h.n.Add(1)
}

// microUnits converts a value to micro-units, saturating at the int64
// bounds instead of letting the float conversion wrap: one absurd
// observation must not flip the running sum negative.
func microUnits(v float64) int64 {
	µ := v * 1e6
	switch {
	case µ >= math.MaxInt64: // 2^63 is exactly representable
		return math.MaxInt64
	case µ <= math.MinInt64:
		return math.MinInt64
	}
	return int64(µ)
}

// addSaturating adds d to an atomic accumulator, pegging at the int64
// bounds on overflow rather than wrapping.
func addSaturating(a *atomic.Int64, d int64) {
	for {
		old := a.Load()
		sum := old + d
		if d > 0 && sum < old {
			sum = math.MaxInt64
		} else if d < 0 && sum > old {
			sum = math.MinInt64
		}
		if a.CompareAndSwap(old, sum) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.observe(d.Seconds()) }

// HistogramSnapshot is a consistent-enough copy of a histogram: counts
// are read bucket by bucket, so a snapshot taken under concurrent
// observation may be off by in-flight increments but never corrupt.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"` // len(Bounds)+1, last = overflow
	Sum    float64   `json:"sum"`
	Count  int64     `json:"count"`
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Sum:    float64(h.sum.Load()) / 1e6,
		Count:  h.n.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// TimeBuckets is the default bucket ladder for phase timings, in
// seconds: 100µs .. ~100s, roughly ×3 per step.
var TimeBuckets = []float64{
	0.0001, 0.0003, 0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1, 3, 10, 30, 100,
}

// Registry is a named set of instruments. The zero value is NOT ready;
// use NewRegistry or the package-level Default registry.
type Registry struct {
	mu     sync.RWMutex
	ctrs   map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		ctrs:   map[string]*Counter{},
		gauges: map[string]*Gauge{},
		hists:  map[string]*Histogram{},
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.ctrs[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.ctrs[name]; c == nil {
		c = &Counter{}
		r.ctrs[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds (ascending) on first use; later calls ignore bounds.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]atomic.Int64, len(bounds)+1),
		}
		r.hists[name] = h
	}
	return h
}

// Snapshot captures every instrument: counter values and histogram
// snapshots, keyed by name.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot returns a copy of all current instrument values.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.ctrs)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for n, c := range r.ctrs {
		s.Counters[n] = c.Value()
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for n, g := range r.gauges {
			s.Gauges[n] = g.Value()
		}
	}
	for n, h := range r.hists {
		s.Histograms[n] = h.Snapshot()
	}
	return s
}
