// Package trace is Marion's zero-dependency request tracer: the
// Dapper-style span model for the compile service. One request becomes
// one Trace — a tree of named, timed spans (admission wait, brownout
// decision, cache lookup, per-function pipeline phases, fallback-ladder
// attempts, breaker events) with string attributes — so a slow or
// degraded request carries its own story of where the time went,
// instead of dissolving into aggregate counters.
//
// The recording side is built for the hot path: a live trace is a
// single append-only buffer behind one mutex (taken for nanoseconds per
// span operation, never across user code), and every *Span method is
// nil-safe, so instrumented code pays one nil check when tracing is
// off. Finishing the root span freezes the buffer into an immutable
// Trace with durations resolved, safe to share, marshal, and retain.
//
// ring.go keeps finished traces in a bounded in-memory ring with an
// always-keep-slowest + SLO-breach retention policy; internal/server
// serves it at GET /tracez.
package trace

import (
	"crypto/rand"
	"encoding/hex"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// SpanRecord is one finished span inside an immutable Trace. Offsets
// and durations are microseconds (integers, so the JSON encoding is
// stable across runs and platforms).
type SpanRecord struct {
	// ID is the span's index in Trace.Spans; Parent is the parent
	// span's ID, -1 for the root.
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	// StartUs is the span's start offset from the trace start.
	StartUs int64  `json:"start_us"`
	DurUs   int64  `json:"dur_us"`
	Attrs   []Attr `json:"attrs,omitempty"`
}

// Trace is one finished request: the immutable result of Span.Finish.
type Trace struct {
	ID    string    `json:"id"`
	Name  string    `json:"name"`
	Start time.Time `json:"start"`
	// DurationUs is the root span's wall time in microseconds.
	DurationUs int64 `json:"duration_us"`
	// Outcome classifies how the request ended ("ok", "shed-full",
	// "expired", "failed", ...); Status is the HTTP status when the
	// trace came from the compile service, 0 for offline compiles.
	Outcome string `json:"outcome"`
	Status  int    `json:"status,omitempty"`
	// Breach marks a trace whose duration met or exceeded the ring's
	// SLO threshold; the ring sets it at admission time.
	Breach bool `json:"slo_breach,omitempty"`
	// Spans is the span tree in creation order; Spans[0] is the root.
	Spans []SpanRecord `json:"spans"`
}

// Duration returns the root span's wall time.
func (t *Trace) Duration() time.Duration {
	return time.Duration(t.DurationUs) * time.Microsecond
}

// Coverage reports what fraction of the root span's wall time is
// accounted for by its direct children (clamped to [0, 1]). Children
// of a request trace are sequential (admission, lower, compile), so
// high coverage means the span tree explains the latency; low coverage
// means time vanished between spans.
func (t *Trace) Coverage() float64 {
	if len(t.Spans) == 0 || t.Spans[0].DurUs <= 0 {
		return 0
	}
	var sum int64
	for _, s := range t.Spans[1:] {
		if s.Parent == 0 {
			sum += s.DurUs
		}
	}
	c := float64(sum) / float64(t.Spans[0].DurUs)
	if c > 1 {
		c = 1
	}
	return c
}

// active is the mutable recording buffer behind a live trace. One
// mutex guards the span slice; every operation is a short append or
// field write, so concurrent per-function workers contend only for
// nanoseconds.
type active struct {
	mu    sync.Mutex
	id    string
	start time.Time
	spans []spanData
}

type spanData struct {
	parent int
	name   string
	start  time.Time
	end    time.Time // zero while the span is open
	attrs  []Attr
}

// Span is a handle onto one span of a live trace. The zero of *Span is
// nil, and every method on a nil *Span is a no-op, so callers thread
// spans unconditionally and disabled tracing costs one nil check.
type Span struct {
	tr  *active
	idx int
}

// New starts a trace: a root span with the given request ID and name.
func New(id, name string) *Span {
	now := time.Now()
	tr := &active{id: id, start: now}
	tr.spans = append(tr.spans, spanData{parent: -1, name: name, start: now})
	return &Span{tr: tr}
}

// Child opens a nested span under s. Returns nil on a nil receiver.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	now := time.Now()
	s.tr.mu.Lock()
	idx := len(s.tr.spans)
	s.tr.spans = append(s.tr.spans, spanData{parent: s.idx, name: name, start: now})
	s.tr.mu.Unlock()
	return &Span{tr: s.tr, idx: idx}
}

// End closes the span. Ending twice keeps the first end time; spans
// still open when the root finishes are closed at finish time.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := time.Now()
	s.tr.mu.Lock()
	if s.tr.spans[s.idx].end.IsZero() {
		s.tr.spans[s.idx].end = now
	}
	s.tr.mu.Unlock()
}

// Attr annotates the span with one key/value pair.
func (s *Span) Attr(key, value string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	d := &s.tr.spans[s.idx]
	d.attrs = append(d.attrs, Attr{Key: key, Value: value})
	s.tr.mu.Unlock()
}

// AttrInt annotates the span with an integer value.
func (s *Span) AttrInt(key string, value int64) {
	s.Attr(key, strconv.FormatInt(value, 10))
}

// Event records an instantaneous occurrence (a breaker trip, a queue
// eviction) as a zero-duration child span with the given attributes
// (alternating key/value strings).
func (s *Span) Event(name string, kv ...string) {
	if s == nil {
		return
	}
	now := time.Now()
	var attrs []Attr
	for i := 0; i+1 < len(kv); i += 2 {
		attrs = append(attrs, Attr{Key: kv[i], Value: kv[i+1]})
	}
	s.tr.mu.Lock()
	s.tr.spans = append(s.tr.spans, spanData{
		parent: s.idx, name: name, start: now, end: now, attrs: attrs,
	})
	s.tr.mu.Unlock()
}

// Finish ends the ROOT span (closing any spans still open at the same
// instant) and freezes the buffer into an immutable Trace tagged with
// the outcome and status. Call it on the root span exactly once, after
// all workers recording into the trace have stopped; the handles become
// inert afterwards. Returns nil on a nil span.
func (s *Span) Finish(outcome string, status int) *Trace {
	if s == nil {
		return nil
	}
	now := time.Now()
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	t := &Trace{
		ID:      s.tr.id,
		Name:    s.tr.spans[0].name,
		Start:   s.tr.start,
		Outcome: outcome,
		Status:  status,
		Spans:   make([]SpanRecord, len(s.tr.spans)),
	}
	for i, d := range s.tr.spans {
		end := d.end
		if end.IsZero() {
			end = now
		}
		t.Spans[i] = SpanRecord{
			ID:      i,
			Parent:  d.parent,
			Name:    d.name,
			StartUs: d.start.Sub(s.tr.start).Microseconds(),
			DurUs:   end.Sub(d.start).Microseconds(),
			Attrs:   d.attrs,
		}
	}
	t.DurationUs = t.Spans[0].DurUs
	return t
}

// idFallback feeds NewID when the system entropy source fails; the
// counter alone still yields unique (if predictable) IDs.
var idFallback atomic.Uint64

// NewID returns a fresh 16-hex-character request ID.
func NewID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "f" + strconv.FormatUint(idFallback.Add(1), 16)
	}
	return hex.EncodeToString(b[:])
}

// ValidID reports whether a client-supplied request ID is safe to echo
// and log: 1..64 characters drawn from [A-Za-z0-9._-]. Anything else
// is rejected and replaced with a server-generated ID, so a hostile
// header cannot inject log or JSON content.
func ValidID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}
