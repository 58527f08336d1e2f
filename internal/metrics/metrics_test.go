package metrics

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("hits")
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits").Value(); got != 8000 {
		t.Fatalf("hits = %d, want 8000", got)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("limit")
	g.Set(8)
	g.Add(-3)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
	if r.Gauge("limit") != g {
		t.Fatal("same name returned different gauges")
	}
	if s := r.Snapshot(); s.Gauges["limit"] != 5 {
		t.Fatalf("snapshot gauges = %v", s.Gauges)
	}
	// A registry with no gauges omits the section entirely, keeping old
	// snapshot consumers byte-compatible.
	if NewRegistry().Snapshot().Gauges != nil {
		t.Fatal("empty registry reported gauges")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 5, 50, 500, 7} {
		h.observe(v)
	}
	s := h.Snapshot()
	want := []int64{1, 2, 1, 1} // <=1, <=10, <=100, overflow
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 5 {
		t.Fatalf("count = %d", s.Count)
	}
	h.ObserveDuration(50 * time.Millisecond) // 0.05s -> first bucket (<=1)
	if h.Snapshot().Counts[0] != 2 {
		t.Fatal("duration observation missed its bucket")
	}
}

func TestHistogramSameInstance(t *testing.T) {
	r := NewRegistry()
	a := r.Histogram("x", TimeBuckets)
	b := r.Histogram("x", nil) // later bounds ignored
	if a != b {
		t.Fatal("same name returned different histograms")
	}
}

// TestSnapshotJSON: a snapshot survives a JSON round trip with its
// counters and histograms intact.
func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(3)
	r.Histogram("h", []float64{1}).observe(0.5)
	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	if s.Counters["a"] != 3 || s.Histograms["h"].Count != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
}

// TestHistogramSnapshotConcurrent snapshots a histogram while writers
// hammer it: every snapshot must be internally sane (counts bounded by
// the total, never negative) and the final one exact.
func TestHistogramSnapshotConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("x", []float64{1, 10, 100})
	const writers = 8
	const perWriter = 5000
	vals := []float64{0.5, 5, 50, 500}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h.observe(vals[(w+i)%len(vals)])
			}
		}(w)
	}
	var snapErr error
	go func() {
		defer close(stop)
		total := int64(writers * perWriter)
		for i := 0; i < 1000; i++ {
			s := h.Snapshot()
			var bucketSum int64
			for _, c := range s.Counts {
				if c < 0 || c > total {
					snapErr = fmt.Errorf("bucket count %d out of range", c)
					return
				}
				bucketSum += c
			}
			if s.Count < 0 || s.Count > total || bucketSum > total {
				snapErr = fmt.Errorf("snapshot out of range: count %d, buckets %d", s.Count, bucketSum)
				return
			}
		}
	}()
	wg.Wait()
	<-stop
	if snapErr != nil {
		t.Fatal(snapErr)
	}

	s := h.Snapshot()
	total := int64(writers * perWriter)
	var bucketSum int64
	for _, c := range s.Counts {
		bucketSum += c
	}
	if s.Count != total || bucketSum != total {
		t.Fatalf("final snapshot: count %d, bucket sum %d, want %d", s.Count, bucketSum, total)
	}
	// Each value lands one observation per writer pass; the split is
	// exactly even across the four buckets.
	for i, c := range s.Counts {
		if c != total/int64(len(vals)) {
			t.Fatalf("bucket %d = %d, want %d", i, c, total/int64(len(vals)))
		}
	}
}
