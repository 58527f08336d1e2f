package trace

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestSpanTree(t *testing.T) {
	root := New("req1", "compile")
	a := root.Child("admission")
	a.Attr("decision", "admitted")
	a.End()
	c := root.Child("compile")
	fn := c.Child("fn:f0")
	fn.AttrInt("n", 2)
	fn.End()
	c.End()
	root.Event("brownout", "level", "1")
	tr := root.Finish("ok", 200)

	if tr.ID != "req1" || tr.Name != "compile" || tr.Outcome != "ok" || tr.Status != 200 {
		t.Fatalf("trace header = %+v", tr)
	}
	// Creation order: root, admission, compile, fn:f0, brownout event.
	wantNames := []string{"compile", "admission", "compile", "fn:f0", "brownout"}
	wantParents := []int{-1, 0, 0, 2, 0}
	if len(tr.Spans) != len(wantNames) {
		t.Fatalf("got %d spans, want %d", len(tr.Spans), len(wantNames))
	}
	for i, s := range tr.Spans {
		if s.ID != i || s.Name != wantNames[i] || s.Parent != wantParents[i] {
			t.Errorf("span %d = {id %d name %q parent %d}, want {id %d name %q parent %d}",
				i, s.ID, s.Name, s.Parent, i, wantNames[i], wantParents[i])
		}
	}
	if got := tr.Spans[1].Attrs; len(got) != 1 || got[0] != (Attr{Key: "decision", Value: "admitted"}) {
		t.Errorf("admission attrs = %v", got)
	}
	if got := tr.Spans[3].Attrs; len(got) != 1 || got[0] != (Attr{Key: "n", Value: "2"}) {
		t.Errorf("fn attrs = %v", got)
	}
	if got := tr.Spans[4].Attrs; len(got) != 1 || got[0] != (Attr{Key: "level", Value: "1"}) {
		t.Errorf("event attrs = %v", got)
	}
	if tr.Spans[4].DurUs != 0 {
		t.Errorf("event duration = %dus, want 0", tr.Spans[4].DurUs)
	}
	if tr.DurationUs != tr.Spans[0].DurUs {
		t.Errorf("DurationUs %d != root DurUs %d", tr.DurationUs, tr.Spans[0].DurUs)
	}
}

func TestNilSpanIsNoOp(t *testing.T) {
	var s *Span
	c := s.Child("x")
	if c != nil {
		t.Errorf("nil Child = %v, want nil", c)
	}
	c.Attr("k", "v")
	c.AttrInt("k", 1)
	c.Event("e", "k", "v")
	c.End()
	if tr := c.Finish("ok", 0); tr != nil {
		t.Errorf("nil Finish = %v, want nil", tr)
	}
}

// Open spans are closed when the root finishes, so an abandoned span
// (deadline blew past an End call) still gets a duration.
func TestFinishClosesOpenSpans(t *testing.T) {
	root := New("id", "r")
	open := root.Child("hung")
	_ = open // never ended
	time.Sleep(2 * time.Millisecond)
	tr := root.Finish("expired", 504)
	if tr.Spans[1].DurUs <= 0 {
		t.Errorf("open span duration = %dus, want > 0", tr.Spans[1].DurUs)
	}
	if tr.Spans[1].DurUs > tr.DurationUs {
		t.Errorf("open span duration %dus exceeds trace %dus",
			tr.Spans[1].DurUs, tr.DurationUs)
	}
}

// End keeps the first end time: a late double-End must not stretch the
// span.
func TestDoubleEndKeepsFirst(t *testing.T) {
	root := New("id", "r")
	c := root.Child("x")
	c.End()
	first := root.Finish("ok", 0).Spans[1].DurUs

	root2 := New("id2", "r")
	c2 := root2.Child("x")
	c2.End()
	time.Sleep(2 * time.Millisecond)
	c2.End()
	second := root2.Finish("ok", 0).Spans[1].DurUs
	// Both spans closed immediately; the sleep between the two Ends of
	// c2 must not count. Allow 1ms of scheduling noise.
	if second-first > 1000 {
		t.Errorf("double End stretched span: %dus vs %dus", second, first)
	}
}

// Concurrent workers record children into one trace; run under -race.
func TestConcurrentChildren(t *testing.T) {
	root := New("id", "r")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c := root.Child("fn")
				c.Attr("k", "v")
				c.Event("e")
				c.End()
			}
		}(w)
	}
	wg.Wait()
	tr := root.Finish("ok", 200)
	// 8 workers x 50 x (child + event) + root.
	if want := 1 + 8*50*2; len(tr.Spans) != want {
		t.Fatalf("got %d spans, want %d", len(tr.Spans), want)
	}
	// Every non-root span's parent must be an earlier span (children of
	// root, plus each worker's events under its own child).
	for i, s := range tr.Spans[1:] {
		if s.Parent < 0 || s.Parent >= i+1 {
			t.Fatalf("span %d parent = %d, want an earlier span", i+1, s.Parent)
		}
	}
}

func TestCoverage(t *testing.T) {
	tr := &Trace{Spans: []SpanRecord{
		{ID: 0, Parent: -1, DurUs: 1000},
		{ID: 1, Parent: 0, DurUs: 400},
		{ID: 2, Parent: 0, DurUs: 580},
		{ID: 3, Parent: 2, DurUs: 575}, // grandchild: not counted
	}}
	tr.DurationUs = 1000
	if got := tr.Coverage(); got < 0.979 || got > 0.981 {
		t.Errorf("Coverage = %v, want 0.98", got)
	}
	// Clamped at 1 even if children overlap past the root.
	over := &Trace{Spans: []SpanRecord{
		{ID: 0, Parent: -1, DurUs: 100},
		{ID: 1, Parent: 0, DurUs: 90},
		{ID: 2, Parent: 0, DurUs: 90},
	}}
	if got := over.Coverage(); got != 1 {
		t.Errorf("overlapping Coverage = %v, want 1", got)
	}
	if got := (&Trace{}).Coverage(); got != 0 {
		t.Errorf("empty Coverage = %v, want 0", got)
	}
}

// The JSON encoding is part of the /tracez contract: integer
// microseconds, span IDs as indices, attrs as {k, v}.
func TestTraceJSONStable(t *testing.T) {
	root := New("req", "compile")
	c := root.Child("admission")
	c.Attr("decision", "admitted")
	c.End()
	tr := root.Finish("ok", 200)

	b, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	var back Trace
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.ID != tr.ID || len(back.Spans) != len(tr.Spans) ||
		back.Spans[1].Attrs[0] != tr.Spans[1].Attrs[0] {
		t.Errorf("round-trip mismatch: %+v vs %+v", back, tr)
	}
}

func TestNewID(t *testing.T) {
	a, b := NewID(), NewID()
	if a == b {
		t.Fatalf("NewID returned %q twice", a)
	}
	if !ValidID(a) || !ValidID(b) {
		t.Fatalf("NewID produced invalid IDs %q %q", a, b)
	}
}

func TestValidID(t *testing.T) {
	for _, ok := range []string{"a", "req-1", "A.b_c-9", "0123456789abcdef"} {
		if !ValidID(ok) {
			t.Errorf("ValidID(%q) = false", ok)
		}
	}
	long := make([]byte, 65)
	for i := range long {
		long[i] = 'a'
	}
	for _, bad := range []string{"", "a b", "x\n", `a"b`, "{}", string(long), "héllo"} {
		if ValidID(bad) {
			t.Errorf("ValidID(%q) = true", bad)
		}
	}
}
