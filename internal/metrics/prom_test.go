package metrics

import (
	"bytes"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"marion/internal/gentest"
)

func TestQuantile(t *testing.T) {
	s := HistogramSnapshot{
		Bounds: []float64{1, 2, 4},
		Counts: []int64{2, 2, 2, 0},
		Count:  6,
	}
	cases := []struct{ q, want float64 }{
		{0.50, 1.5}, // rank 3: halfway through (1, 2]
		{0.90, 3.4}, // rank 5.4: 0.7 into (2, 4]
		{0.25, 0.75},
		{1, 4},
		{-1, 0}, // clamped to 0
		{2, 4},  // clamped to 1
	}
	for _, c := range cases {
		if got := s.Quantile(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}

	// Rank in the overflow bucket attests only to the last finite bound.
	over := HistogramSnapshot{
		Bounds: []float64{1, 2, 4},
		Counts: []int64{0, 0, 0, 5},
		Count:  5,
	}
	if got := over.Quantile(0.5); got != 4 {
		t.Errorf("overflow Quantile = %v, want 4", got)
	}

	if got := (HistogramSnapshot{}).Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile = %v, want 0", got)
	}
}

// One absurd observation must peg the sum at the int64 ceiling, not
// wrap it negative.
func TestObserveSumSaturates(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("x", []float64{1})
	huge := math.MaxInt64 / 1e6 * 2 // micro-units overflow int64
	h.observe(huge)
	h.observe(huge)
	h.observe(1)
	s := h.Snapshot()
	if s.Sum < 0 {
		t.Fatalf("sum wrapped negative: %v", s.Sum)
	}
	if want := float64(math.MaxInt64) / 1e6; s.Sum != want {
		t.Fatalf("sum = %v, want saturated %v", s.Sum, want)
	}
	if s.Count != 3 {
		t.Fatalf("count = %d, want 3", s.Count)
	}
}

func TestAddSaturating(t *testing.T) {
	var a atomic.Int64
	a.Store(math.MaxInt64 - 1)
	addSaturating(&a, 10)
	if a.Load() != math.MaxInt64 {
		t.Errorf("positive overflow = %d, want MaxInt64", a.Load())
	}
	a.Store(math.MinInt64 + 1)
	addSaturating(&a, -10)
	if a.Load() != math.MinInt64 {
		t.Errorf("negative overflow = %d, want MinInt64", a.Load())
	}
	a.Store(5)
	addSaturating(&a, 7)
	if a.Load() != 12 {
		t.Errorf("plain add = %d, want 12", a.Load())
	}
}

func TestMicroUnits(t *testing.T) {
	if got := microUnits(1.5); got != 1_500_000 {
		t.Errorf("microUnits(1.5) = %d", got)
	}
	if got := microUnits(1e300); got != math.MaxInt64 {
		t.Errorf("microUnits(1e300) = %d, want MaxInt64", got)
	}
	if got := microUnits(-1e300); got != math.MinInt64 {
		t.Errorf("microUnits(-1e300) = %d, want MinInt64", got)
	}
}

func TestPromName(t *testing.T) {
	if got := promName("server.compile.seconds"); got != "marion_server_compile_seconds" {
		t.Errorf("promName = %q", got)
	}
	if got := promName("a b/c"); got != "marion_a_b_c" {
		t.Errorf("promName = %q", got)
	}
}

// What WritePrometheus renders must satisfy the strict parser — the
// invariant cmd/mariond's TestServeDrills enforces against a live server.
func TestPromRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("server.requests").Add(7)
	r.Gauge("server.limit").Set(4)
	h := r.Histogram("server.compile.seconds", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.observe(v)
	}

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE marion_server_requests counter",
		"marion_server_requests 7",
		"# TYPE marion_server_limit gauge",
		"# TYPE marion_server_compile_seconds histogram",
		`marion_server_compile_seconds_bucket{le="+Inf"} 4`,
		"marion_server_compile_seconds_count 4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	n, err := gentest.ParsePrometheusText(strings.NewReader(out))
	if err != nil {
		t.Fatalf("own output rejected: %v\n%s", err, out)
	}
	// 1 counter + 1 gauge + histogram (3 buckets + Inf + sum + count).
	if n != 8 {
		t.Errorf("parsed %d samples, want 8", n)
	}
	// Buckets are cumulative: le="1" holds 3 of the 4 observations.
	if !strings.Contains(out, `marion_server_compile_seconds_bucket{le="1"} 3`) {
		t.Errorf("cumulative le=1 bucket wrong:\n%s", out)
	}
}

func TestPromParserRejects(t *testing.T) {
	cases := []struct{ name, text string }{
		{"no TYPE", "foo 1\n"},
		{"bad name", "# TYPE 9foo counter\n9foo 1\n"},
		{"bad value", "# TYPE foo counter\nfoo one\n"},
		{"duplicate", "# TYPE foo counter\nfoo 1\nfoo 2\n"},
		{"unknown type", "# TYPE foo widget\nfoo 1\n"},
		{"unterminated labels", "# TYPE foo counter\nfoo{a=\"x 1\n"},
		{"bad label name", "# TYPE foo counter\nfoo{9a=\"x\"} 1\n"},
		{"histogram missing +Inf",
			"# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n"},
		{"histogram Inf != count",
			"# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n"},
		{"histogram non-cumulative",
			"# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n"},
	}
	for _, c := range cases {
		if _, err := gentest.ParsePrometheusText(strings.NewReader(c.text)); err == nil {
			t.Errorf("%s: parser accepted:\n%s", c.name, c.text)
		}
	}

	// Valid corner cases must pass: escapes, timestamps, Inf/NaN values.
	good := "# TYPE foo counter\n" +
		"foo{path=\"a\\\\b\\\"c\\nd\"} 1 1700000000\n" +
		"# TYPE bar gauge\nbar +Inf\n"
	if n, err := gentest.ParsePrometheusText(strings.NewReader(good)); err != nil || n != 2 {
		t.Errorf("valid corner cases rejected: %d, %v", n, err)
	}
}
