package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
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
	l := newLimiter(1, 0, 4, nil)
	rel, _ := l.acquire(context.Background(), nil)
	defer rel(slotDone)
	l.prime(10 * time.Second)

	root := trace.New("req", "compile")
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, dec := l.acquire(ctx, root.Child("admission")); dec != shedDoomed {
		t.Fatalf("decision = %v, want shedDoomed", dec)
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
	l := newLimiter(1, 0, 4, nil)
	rel, _ := l.acquire(context.Background(), nil)

	root := trace.New("req", "compile")
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	done := make(chan decision, 1)
	go func() {
		_, d := l.acquire(ctx, root.Child("admission"))
		done <- d
	}()
	waitFor(t, func() bool { return limiterStatz(l).Queued == 1 })
	l.prime(10 * time.Second)
	rel(slotDone)
	if d := <-done; d != shedDoomed {
		t.Fatalf("decision = %v, want shedDoomed", d)
	}
	attrs := findEvent(root.Finish("shed-doomed", 429), "overload.evict")
	if attrs == nil || attrs["reason"] != "doomed-in-queue" {
		t.Fatalf("evict attrs = %v", attrs)
	}
}

// A queued request the sweep has already evicted as doomed, whose
// context finishes before it wakes, answers with the limiter's decision:
// 429 shed-doomed. Its trace, /statz and /metrics count the one eviction.
func TestEvictionCountedOnce(t *testing.T) {
	s := newTestServer(t, Config{MaxInflight: 1, MaxQueue: 4, TraceRing: 16})
	rel := occupySlot(t, s)
	defer rel(slotDone)

	body, err := json.Marshal(CompileRequest{Source: addC, Target: "r2000"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := httptest.NewRequest(http.MethodPost, "/compile", bytes.NewReader(body)).WithContext(ctx)
	r.Header.Set(DeadlineHeader, "5000")
	r.Header.Set(RequestIDHeader, "evicted-1")
	w := httptest.NewRecorder()
	served := make(chan struct{})
	go func() {
		defer close(served)
		s.Handler().ServeHTTP(w, r)
	}()
	waitFor(t, func() bool { return limiterStatz(s.lim).Queued == 1 })

	// Both under the limiter's lock, so the waiter wakes to both: its
	// context finishes, and a sweep with an estimate above its 5 s
	// deadline evicts it.
	s.lim.mu.Lock()
	cancel()
	s.lim.est = 10
	s.lim.sweepLocked(time.Now())
	s.lim.mu.Unlock()
	<-served

	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("evicted request: status %d, want 429: %s", w.Code, w.Body.String())
	}
	if resp := decode[ErrorResponse](t, w); !strings.Contains(resp.Error, "shed") {
		t.Errorf("error %q does not explain the shed", resp.Error)
	}
	tr, ok := s.ring.Get("evicted-1")
	if !ok {
		t.Fatal("no trace kept for the evicted request")
	}
	if tr.Outcome != "shed-doomed" {
		t.Errorf("trace outcome %q, want shed-doomed", tr.Outcome)
	}
	if attrs := findEvent(tr, "overload.evict"); attrs["reason"] != "doomed-in-queue" {
		t.Errorf("evict event attrs = %v", attrs)
	}
	st := decode[Statz](t, get(s, "/statz"))
	if st.Evicted != 1 || st.Shed != 1 || st.Expired != 0 {
		t.Errorf("statz evicted/shed/expired = %d/%d/%d, want 1/1/0", st.Evicted, st.Shed, st.Expired)
	}
	if m := get(s, "/metrics").Body.String(); !strings.Contains(m, "\nmarion_server_evicted 1\n") {
		t.Errorf("/metrics lacks marion_server_evicted 1:\n%s", m)
	}
}

// A nil span is free: same decisions, no trace required.
func TestAcquireNilSpan(t *testing.T) {
	l := newLimiter(1, 0, 4, nil)
	rel, dec := l.acquire(context.Background(), nil)
	if dec != admitted {
		t.Fatalf("decision = %v, want admitted", dec)
	}
	rel(slotDone)
}

// Breaker failures annotate the trace: a sub-threshold failure as
// breaker.failure with the streak, the tripping failure as
// breaker.trip.
func TestFailureTracedEvents(t *testing.T) {
	clk := &stepClock{now: time.Unix(3000, 0)}
	bs := newBreakerSet(2, time.Second, clk.time)
	key := breakerKey("r2000", "rase")

	root := trace.New("req1", "compile")
	if bs.failure(key, root) {
		t.Fatal("tripped below threshold")
	}
	attrs := findEvent(root.Finish("failed", 422), "breaker.failure")
	if attrs == nil || attrs["key"] != key || attrs["fails"] != "1" {
		t.Fatalf("failure attrs = %v", attrs)
	}

	root2 := trace.New("req2", "compile")
	if !bs.failure(key, root2) {
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
	bs2 := newBreakerSet(1, time.Second, clk.time)
	if !bs2.failure(key, nil) {
		t.Fatal("nil-span failure did not trip")
	}
}
