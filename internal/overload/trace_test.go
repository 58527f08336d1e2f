package overload

import (
	"context"
	"testing"
	"time"

	"marion/internal/trace"
)

// findEvent returns the attrs of the first span named name, nil if
// absent.
func findEvent(tr *trace.Trace, name string) map[string]string {
	for _, s := range tr.Spans {
		if s.Name == name {
			out := map[string]string{}
			for _, a := range s.Attrs {
				out[a.Key] = a.Value
			}
			return out
		}
	}
	return nil
}

// An up-front doomed shed leaves an overload.evict event on the span,
// carrying the estimate that doomed the request.
func TestAcquireTracedDoomedEvent(t *testing.T) {
	l := NewLimiter(LimiterConfig{Initial: 1, MaxQueue: 4})
	rel, _ := l.Acquire(context.Background(), nil)
	defer rel(Done)
	l.Prime(10 * time.Second)

	root := trace.New("req", "compile")
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, dec := l.Acquire(ctx, root.Child("admission")); dec != ShedDoomed {
		t.Fatalf("decision = %v, want ShedDoomed", dec)
	}
	attrs := findEvent(root.Finish("shed-doomed", 429), "overload.evict")
	if attrs == nil {
		t.Fatal("no overload.evict event recorded")
	}
	if attrs["reason"] != "doomed-upfront" || attrs["estimate_ms"] == "" {
		t.Fatalf("evict attrs = %v", attrs)
	}
}

// A waiter evicted from the queue by the sweep gets the event too,
// with the in-queue reason.
func TestAcquireTracedQueueEvictionEvent(t *testing.T) {
	l := NewLimiter(LimiterConfig{Initial: 1, MaxQueue: 4})
	rel, _ := l.Acquire(context.Background(), nil)

	root := trace.New("req", "compile")
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	done := make(chan Decision, 1)
	go func() {
		_, d := l.Acquire(ctx, root.Child("admission"))
		done <- d
	}()
	waitFor(t, func() bool { return l.Snapshot().Queued == 1 })
	l.Prime(10 * time.Second)
	rel(Done)
	if d := <-done; d != ShedDoomed {
		t.Fatalf("decision = %v, want ShedDoomed", d)
	}
	attrs := findEvent(root.Finish("shed-doomed", 429), "overload.evict")
	if attrs == nil || attrs["reason"] != "doomed-in-queue" {
		t.Fatalf("evict attrs = %v", attrs)
	}
}

// A nil span is free: same decisions, no trace required.
func TestAcquireNilSpan(t *testing.T) {
	l := NewLimiter(LimiterConfig{Initial: 1, MaxQueue: 4})
	rel, dec := l.Acquire(context.Background(), nil)
	if dec != admitted {
		t.Fatalf("decision = %v, want admitted", dec)
	}
	rel(Done)
}

// Breaker failures annotate the trace: a sub-threshold failure as
// breaker.failure with the streak, the tripping failure as
// breaker.trip.
func TestFailureTracedEvents(t *testing.T) {
	clk := &fakeClock{t: time.Unix(3000, 0)}
	bs := NewBreakers(BreakerConfig{Threshold: 2, Cooldown: time.Second, Clock: clk.now})
	key := Key("r2000", "rase")

	root := trace.New("req1", "compile")
	if bs.Failure(key, root) {
		t.Fatal("tripped below threshold")
	}
	attrs := findEvent(root.Finish("failed", 422), "breaker.failure")
	if attrs == nil || attrs["key"] != key || attrs["fails"] != "1" {
		t.Fatalf("failure attrs = %v", attrs)
	}

	root2 := trace.New("req2", "compile")
	if !bs.Failure(key, root2) {
		t.Fatal("threshold failure did not trip")
	}
	tr2 := root2.Finish("failed", 422)
	if attrs := findEvent(tr2, "breaker.trip"); attrs == nil || attrs["key"] != key {
		t.Fatalf("trip attrs = %v", attrs)
	}
	if findEvent(tr2, "breaker.failure") != nil {
		t.Fatal("trip also recorded a breaker.failure event")
	}

	// Nil span: same verdicts, no trace.
	bs2 := NewBreakers(BreakerConfig{Threshold: 1, Cooldown: time.Second, Clock: clk.now})
	if !bs2.Failure(key, nil) {
		t.Fatal("nil-span failure did not trip")
	}
}
