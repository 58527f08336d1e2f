package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"marion/internal/driver"
	"marion/internal/faults"
	"marion/internal/metrics"
	"marion/internal/strategy"
	"marion/internal/targets"
	"marion/internal/trace"
)

const addC = `
int add3(int a, int b) {
	return a + b * 3;
}
`

const handIL = `
module hand.il
func addmul ret int
reg t0 int "a"
reg t1 int "b"
reg t2 int
param a int size 4 offset 0 reg t0
param b int size 4 offset 0 reg t1
frame 0
block L0 depth 0
(asgn int t2 (add int (reg int t0) (mul int (reg int t1) (const int 3))))
(ret int (reg int t2))
`

func newTestServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = metrics.NewRegistry()
	}
	if len(cfg.Targets) == 0 {
		cfg.Targets = []string{"r2000", "m88000"}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Warning() != nil {
		t.Fatalf("setup warning: %v", s.Warning())
	}
	return s
}

func post(t *testing.T, s *Server, req CompileRequest, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return postRaw(s, body, hdr)
}

func postRaw(s *Server, body []byte, hdr map[string]string) *httptest.ResponseRecorder {
	r := httptest.NewRequest(http.MethodPost, "/compile", bytes.NewReader(body))
	for k, v := range hdr {
		r.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	return w
}

func decode[T any](t *testing.T, w *httptest.ResponseRecorder) *T {
	t.Helper()
	v := new(T)
	if err := json.Unmarshal(w.Body.Bytes(), v); err != nil {
		t.Fatalf("bad JSON body (%d): %v\n%s", w.Code, err, w.Body.String())
	}
	return v
}

// TestCompileMatchesDriver requires the served assembly to be
// byte-identical to an in-process driver compile of the same unit —
// the same guarantee cmd/mariond's TestServeDrills checks over TCP.
func TestCompileMatchesDriver(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, target := range []string{"r2000", "m88000"} {
		w := post(t, s, CompileRequest{Source: addC, Filename: "add.c", Target: target, Strategy: "postpass"}, nil)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", target, w.Code, w.Body.String())
		}
		resp := decode[CompileResponse](t, w)
		want, err := driver.Compile(target, "c", "add.c", addC, driver.Config{Strategy: strategy.Postpass})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Assembly != want.Prog.Print() {
			t.Errorf("%s: served assembly differs from driver output", target)
		}
		if resp.Stats["add3"] == nil {
			t.Errorf("%s: missing per-function stats", target)
		}
	}
}

// TestCompileIL drives the textual-IL front door.
func TestCompileIL(t *testing.T) {
	s := newTestServer(t, Config{})
	w := post(t, s, CompileRequest{Source: handIL, Lang: "il", Target: "r2000"}, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	resp := decode[CompileResponse](t, w)
	if !strings.Contains(resp.Assembly, "addmul") {
		t.Errorf("assembly missing function label:\n%s", resp.Assembly)
	}
}

// TestCacheSharedAcrossRequests: the second identical request must hit
// the server's shared cache.
func TestCacheSharedAcrossRequests(t *testing.T) {
	s := newTestServer(t, Config{})
	req := CompileRequest{Source: addC, Filename: "add.c", Target: "r2000"}
	a := post(t, s, req, nil)
	before := s.cache.Stats().Hits()
	b := post(t, s, req, nil)
	if a.Code != 200 || b.Code != 200 {
		t.Fatalf("status %d/%d", a.Code, b.Code)
	}
	if hits := s.cache.Stats().Hits(); hits <= before {
		t.Errorf("second request did not hit the shared cache (hits %d -> %d)", before, hits)
	}
	if a.Body.String() != b.Body.String() {
		// QueueMs/ElapsedMs vary; compare the assembly instead.
		ra, rb := decode[CompileResponse](t, a), decode[CompileResponse](t, b)
		if ra.Assembly != rb.Assembly {
			t.Error("cache hit produced different assembly")
		}
	}
}

// TestLinearSelectNotOnWire: linear_select, which older clients send,
// names no option. A request naming it is the plain request, so it hits
// every function the plain request stored instead of compiling them
// again.
func TestLinearSelectNotOnWire(t *testing.T) {
	s := newTestServer(t, Config{})
	req := CompileRequest{Source: addC, Filename: "add.c", Target: "r2000"}
	if w := post(t, s, req, nil); w.Code != http.StatusOK {
		t.Fatalf("plain request: status %d: %s", w.Code, w.Body.String())
	}
	body, err := json.Marshal(map[string]any{"source": addC, "filename": "add.c", "target": "r2000",
		"options": map[string]bool{"linear_select": true}})
	if err != nil {
		t.Fatal(err)
	}
	w := postRaw(s, body, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("linear_select request: status %d: %s", w.Code, w.Body.String())
	}
	if resp := decode[CompileResponse](t, w); resp.CacheHits != len(resp.Stats) {
		t.Errorf("linear_select request: cache_hits %d, want all %d functions", resp.CacheHits, len(resp.Stats))
	}
}

// badRequests are requests the server refuses, and the status each
// gets; FuzzCompileRequest starts from their bodies.
var badRequests = []struct {
	name string
	body string
	hdr  map[string]string
	want int
}{
	{"bad json", "{", nil, http.StatusBadRequest},
	{"unknown target", `{"source":"int f(){return 0;}","target":"vax"}`, nil, http.StatusBadRequest},
	{"unknown strategy", `{"source":"int f(){return 0;}","target":"r2000","strategy":"magic"}`, nil, http.StatusBadRequest},
	{"unknown lang", `{"source":"x","lang":"fortran","target":"r2000"}`, nil, http.StatusBadRequest},
	{"c syntax error", `{"source":"int f( {","target":"r2000"}`, nil, http.StatusBadRequest},
	{"il syntax error", `{"source":"(bogus)","lang":"il","target":"r2000"}`, nil, http.StatusBadRequest},
	{"c object past 2^31 bytes", `{"source":"int a[1073741824][8]; int g;","target":"r2000"}`, nil, http.StatusBadRequest},
	{"il negative size", `{"source":"global a int size -16\nglobal b int size 4\n","lang":"il","target":"r2000"}`, nil, http.StatusBadRequest},
	{"data past 2^31 bytes", `{"source":"char a[2147483647];","target":"r2000"}`, nil, http.StatusUnprocessableEntity},
	{"bad deadline header", `{"source":"int f(){return 0;}","target":"r2000"}`,
		map[string]string{DeadlineHeader: "soon"}, http.StatusBadRequest},
}

func TestBadRequests(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, c := range badRequests {
		w := postRaw(s, []byte(c.body), c.hdr)
		if w.Code != c.want {
			t.Errorf("%s: status %d, want %d: %s", c.name, w.Code, c.want, w.Body.String())
		}
		resp := decode[ErrorResponse](t, w)
		if resp.Error == "" {
			t.Errorf("%s: empty error message", c.name)
		}
	}

	r := httptest.NewRequest(http.MethodGet, "/compile", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /compile: status %d, want 405", w.Code)
	}
}

// hugeDeadlines are deadline headers whose milliseconds overflow a
// time.Duration.
var hugeDeadlines = []string{"10000000000000", "9223372036854775807"}

// TestHugeDeadlineClamped sends hugeDeadlines: each must be clamped to
// MaxDeadline and compile, not wrap negative and answer 504.
func TestHugeDeadlineClamped(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, ms := range hugeDeadlines {
		w := post(t, s, CompileRequest{Source: addC, Target: "r2000"}, map[string]string{DeadlineHeader: ms})
		if w.Code != http.StatusOK {
			t.Errorf("%s ms: status %d, want 200: %s", ms, w.Code, w.Body.String())
		}
	}
}

// occupySlot takes the server's admission slot directly through the
// limiter, returning its release; tests use it to force queueing
// deterministically.
func occupySlot(t *testing.T, s *Server) func(slotOutcome) {
	t.Helper()
	rel, dec := s.lim.acquire(context.Background(), nil)
	if rel == nil {
		t.Fatalf("could not occupy slot: %v", dec)
	}
	return rel
}

// TestAdmissionShed fills the only compile slot and the whole wait
// queue, then requires the next request to be shed with 429 and a
// Retry-After header — deterministically, no timing involved.
func TestAdmissionShed(t *testing.T) {
	s := newTestServer(t, Config{MaxInflight: 1, MaxQueue: 1})
	rel := occupySlot(t, s)

	req := CompileRequest{Source: addC, Target: "r2000"}
	queued := make(chan *httptest.ResponseRecorder)
	go func() { queued <- post(t, s, req, nil) }()
	waitFor(t, func() bool { return limiterStatz(s.lim).Queued == 1 })

	w := post(t, s, req, nil)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-queue request: status %d, want 429: %s", w.Code, w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	if resp := decode[ErrorResponse](t, w); resp.RetryAfterSeconds < 1 {
		t.Errorf("429 body retry_after_seconds = %v, want >= 1", resp.RetryAfterSeconds)
	}

	rel(slotDone) // free the slot; the queued request proceeds
	if w := <-queued; w.Code != http.StatusOK {
		t.Fatalf("queued request: status %d, want 200: %s", w.Code, w.Body.String())
	}
	if got := s.shed.Value(); got != 1 {
		t.Errorf("shed counter = %d, want 1", got)
	}
}

// TestQueuedDeadline parks a request in the wait queue past its
// deadline and requires a structured 504, not a hang. (With no service
// samples yet the estimate is zero, so doomed-shedding stays out of
// the way — the request genuinely queues and expires.)
func TestQueuedDeadline(t *testing.T) {
	s := newTestServer(t, Config{MaxInflight: 1, MaxQueue: 4})
	rel := occupySlot(t, s)
	defer rel(slotDone)

	w := post(t, s, CompileRequest{Source: addC, Target: "r2000"},
		map[string]string{DeadlineHeader: "30"})
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", w.Code, w.Body.String())
	}
	resp := decode[ErrorResponse](t, w)
	if !strings.Contains(resp.Error, "queued") {
		t.Errorf("error %q does not mention queueing", resp.Error)
	}
	if resp.RetryAfterSeconds < 1 {
		t.Errorf("504 body retry_after_seconds = %v, want >= 1", resp.RetryAfterSeconds)
	}
}

// TestDoomedShed primes the service-time estimate well above a tiny
// request deadline: the request must be shed up front with 429 and a
// computed Retry-After hint, NOT parked until a 504 — the whole point
// of deadline-aware eviction.
func TestDoomedShed(t *testing.T) {
	s := newTestServer(t, Config{MaxInflight: 1, MaxQueue: 4})
	s.lim.prime(2 * time.Second) // est >> the 30ms deadline below
	rel := occupySlot(t, s)
	defer rel(slotDone)

	start := time.Now()
	w := post(t, s, CompileRequest{Source: addC, Target: "r2000"},
		map[string]string{DeadlineHeader: "30"})
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("doomed request: status %d, want 429: %s", w.Code, w.Body.String())
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("doomed request waited %v before shedding; want immediate", elapsed)
	}
	if ra := w.Header().Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("Retry-After = %q, want computed >= 1", ra)
	}
	resp := decode[ErrorResponse](t, w)
	if resp.RetryAfterSeconds < 2 {
		// est 2s, one queued slot -> at least the estimate itself.
		t.Errorf("retry_after_seconds = %v, want >= 2 (est-based)", resp.RetryAfterSeconds)
	}
	if !strings.Contains(resp.Error, "shed") {
		t.Errorf("error %q does not explain the shed", resp.Error)
	}
	if st := decode[Statz](t, get(s, "/statz")); st.Evicted != 1 {
		t.Errorf("evicted = %d, want 1", st.Evicted)
	}
}

// TestCompileDeadline cancels the request context under the compiler
// and requires structured per-function diagnostics in a 504 body.
func TestCompileDeadline(t *testing.T) {
	s := newTestServer(t, Config{})
	body, _ := json.Marshal(CompileRequest{Source: addC, Target: "r2000"})
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // client gone before the back end starts
	r := httptest.NewRequest(http.MethodPost, "/compile", bytes.NewReader(body)).WithContext(ctx)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", w.Code, w.Body.String())
	}
	resp := decode[ErrorResponse](t, w)
	if len(resp.Diagnostics) == 0 {
		t.Fatalf("504 without structured diagnostics: %s", w.Body.String())
	}
	if d := resp.Diagnostics[0]; d.Phase == "" || d.Error == "" {
		t.Errorf("diagnostic missing phase/error: %+v", d)
	}
}

// TestDrain: an already-admitted request finishes during drain; new
// requests are rejected 503; readyz flips; Close flushes the disk tier.
func TestDrain(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{MaxInflight: 1, MaxQueue: 4, CacheDir: dir})
	req := CompileRequest{Source: addC, Filename: "add.c", Target: "r2000"}

	rel := occupySlot(t, s) // make the next request queue after admission
	inflight := make(chan *httptest.ResponseRecorder)
	go func() { inflight <- post(t, s, req, nil) }()
	waitFor(t, func() bool { return limiterStatz(s.lim).Queued == 1 })

	s.BeginDrain()

	if w := post(t, s, req, nil); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("compile while draining: status %d, want 503", w.Code)
	} else if w.Header().Get("Retry-After") == "" {
		t.Error("503 without Retry-After header")
	}
	if w := get(s, "/readyz"); w.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining: status %d, want 503", w.Code)
	}
	if w := get(s, "/healthz"); w.Code != http.StatusOK {
		t.Errorf("healthz while draining: status %d, want 200", w.Code)
	}

	rel(slotDone) // the admitted request now runs to completion
	if w := <-inflight; w.Code != http.StatusOK {
		t.Fatalf("in-flight request during drain: status %d, want 200: %s", w.Code, w.Body.String())
	}

	// Lose the disk tier, then Close: the flush must restore it.
	files, err := filepath.Glob(filepath.Join(dir, "*.mce"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no disk-tier entries before drain (err %v)", err)
	}
	for _, f := range files {
		os.Remove(f)
	}
	if n := s.Close(); n == 0 {
		t.Error("Close flushed nothing after disk tier was lost")
	}
	if files, _ = filepath.Glob(filepath.Join(dir, "*.mce")); len(files) == 0 {
		t.Error("disk tier still empty after Close")
	}
}

func TestStatzAndAux(t *testing.T) {
	s := newTestServer(t, Config{})
	post(t, s, CompileRequest{Source: addC, Target: "r2000"}, nil)

	w := get(s, "/statz")
	if w.Code != http.StatusOK {
		t.Fatalf("statz: status %d", w.Code)
	}
	st := decode[Statz](t, w)
	if st.Requests < 1 || st.Accepted < 1 {
		t.Errorf("statz counters not advancing: %+v", st)
	}
	if st.Capacity <= 0 || len(st.Targets) == 0 {
		t.Errorf("statz missing config echo: %+v", st)
	}
	if st.Limit != st.Capacity {
		t.Errorf("statz limit = %d, want the static capacity %d without an SLO", st.Limit, st.Capacity)
	}
	if st.PressureLevel != 0 || st.Pressure < 0 || st.Pressure > 1 {
		t.Errorf("statz pressure fields: level %d, pressure %v", st.PressureLevel, st.Pressure)
	}
	if st.Cache.Stores < 1 {
		t.Errorf("statz cache stats not wired: %+v", st.Cache)
	}

	if w := get(s, "/readyz"); w.Code != http.StatusOK {
		t.Errorf("readyz: status %d", w.Code)
	}
	if w := get(s, "/debug/vars"); w.Code != http.StatusOK {
		t.Errorf("expvar: status %d", w.Code)
	} else if !strings.Contains(w.Body.String(), "cmdline") {
		t.Errorf("expvar body missing standard vars")
	}
	if w := get(s, "/debug/pprof/cmdline"); w.Code != http.StatusOK {
		t.Errorf("pprof cmdline: status %d", w.Code)
	}
	if w := get(s, "/nosuch"); w.Code != http.StatusNotFound {
		t.Errorf("unknown path: status %d, want 404", w.Code)
	}
}

// The server runs nothing of its own between requests: the brownout
// ladder advances where admission state changes, so New with every
// overload control and tracing on starts no goroutine.
func TestNewStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	for range 4 {
		s := newTestServer(t, Config{Brownout: true, SLO: time.Second, BreakerThreshold: 3, TraceRing: 16})
		defer s.Close()
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("four servers took the goroutine count from %d to %d", before, after)
	}
}

// fixedClock never advances: brownout hysteresis can neither raise nor
// lower a Force()d level, and breakers never leave Open by cooldown.
func fixedClock() func() time.Time {
	t0 := time.Now()
	return func() time.Time { return t0 }
}

// stepClock is an advanceable clock for driving breaker cooldowns
// deterministically.
type stepClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *stepClock) time() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *stepClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// TestBrownoutLadder forces each level and checks what the request
// loses — verify, then expensive strategies, then compilation itself
// (cache-only) — with every cut named in the response.
func TestBrownoutLadder(t *testing.T) {
	s := newTestServer(t, Config{Brownout: true, Clock: fixedClock()})
	defer s.Close()
	req := CompileRequest{Source: addC, Filename: "add.c", Target: "r2000",
		Strategy: "rase", Options: &CompileOptions{Verify: true}}

	// Level 0: full fidelity.
	w := post(t, s, req, nil)
	resp := decode[CompileResponse](t, w)
	if w.Code != 200 || resp.BrownoutLevel != 0 || len(resp.Brownout) != 0 {
		t.Fatalf("level 0: code %d, resp %+v", w.Code, resp)
	}
	if resp.Strategy != "rase" {
		t.Fatalf("level 0 strategy = %q", resp.Strategy)
	}

	// Level 1: verify is dropped, the strategy is kept.
	s.lim.force(levelNoVerify)
	resp = decode[CompileResponse](t, post(t, s, req, nil))
	if resp.BrownoutLevel != 1 || resp.Strategy != "rase" {
		t.Fatalf("level 1: %+v", resp)
	}
	if len(resp.Brownout) != 1 || !strings.Contains(resp.Brownout[0], "verify") {
		t.Fatalf("level 1 notes = %v", resp.Brownout)
	}

	// Level 2: expensive strategies are capped at postpass.
	s.lim.force(levelCheapStrategy)
	resp = decode[CompileResponse](t, post(t, s, req, nil))
	if resp.Strategy != "postpass" {
		t.Fatalf("level 2 strategy = %q, want postpass (%v)", resp.Strategy, resp.Brownout)
	}

	// Level 3: everything runs safe.
	s.lim.force(levelSafe)
	resp = decode[CompileResponse](t, post(t, s, req, nil))
	if resp.Strategy != "safe" {
		t.Fatalf("level 3 strategy = %q, want safe", resp.Strategy)
	}

	// Level 4: only cache hits are served. addC was compiled as rase at
	// level 0, so the identical request is a hit; a cold unit is shed.
	s.lim.force(levelCacheOnly)
	w = post(t, s, req, nil)
	resp = decode[CompileResponse](t, w)
	if w.Code != 200 {
		t.Fatalf("level 4 warm request: code %d: %s", w.Code, w.Body.String())
	}
	if resp.Strategy != "rase" || resp.BrownoutLevel != 4 {
		t.Fatalf("level 4 warm: %+v", resp)
	}
	cold := req
	cold.Source = "int coldfn(int x) { return x - 7; }"
	w = post(t, s, cold, nil)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("level 4 cold request: code %d, want 429: %s", w.Code, w.Body.String())
	}
	er := decode[ErrorResponse](t, w)
	if er.BrownoutLevel != 4 || er.RetryAfterSeconds < 1 {
		t.Fatalf("level 4 cold rejection: %+v", er)
	}

	// Statz reports the level.
	if st := decode[Statz](t, get(s, "/statz")); st.PressureLevel != 4 {
		t.Fatalf("statz pressure_level = %d, want 4", st.PressureLevel)
	}
}

// TestBreakerTripRerouteReset drives one (target, strategy) through the
// whole breaker lifecycle with deterministically injected serve faults:
// two failures trip it, the next request reroutes down the fallback
// chain while another target stays untouched, the cooldown admits one
// probe, and the probe's success closes the breaker.
func TestBreakerTripRerouteReset(t *testing.T) {
	clk := &stepClock{now: time.Now()}
	fset, err := faults.Parse("serve:err@fn=r2000/rase@max=2")
	if err != nil {
		t.Fatal(err)
	}
	qdir := t.TempDir()
	s := newTestServer(t, Config{
		BreakerThreshold: 2,
		BreakerCooldown:  time.Minute,
		QuarantineDir:    qdir,
		Faults:           fset,
		Clock:            clk.time,
	})
	rase := CompileRequest{Source: addC, Filename: "add.c", Target: "r2000", Strategy: "rase"}

	// Failures one and two: injected serve faults; the second trips.
	for i := 0; i < 2; i++ {
		if w := post(t, s, rase, nil); w.Code != http.StatusUnprocessableEntity {
			t.Fatalf("faulted request %d: code %d: %s", i, w.Code, w.Body.String())
		}
	}
	st := decode[Statz](t, get(s, "/statz"))
	if st.Breakers["r2000/rase"] != "open" || st.BreakerTrips != 1 {
		t.Fatalf("after trip: %+v", st.Breakers)
	}

	// The trip wrote a replayable quarantine bundle.
	b, il, err := LoadBundle(filepath.Join(qdir, "r2000-rase-1"))
	if err != nil {
		t.Fatalf("quarantine bundle: %v", err)
	}
	if b.Key != "r2000/rase" || b.Strategy != "rase" || !strings.Contains(b.Reason, "injected") {
		t.Fatalf("bundle = %+v", b)
	}
	if rep, err := driver.Compile(b.Target, "il", "replay.il", il, driver.Config{Strategy: strategy.RASE}); err != nil || len(rep.Prog.Funcs) == 0 {
		t.Fatalf("bundle does not replay: %v", err)
	}

	// While open, rase requests reroute down the chain; the compile
	// still succeeds, under ips, and says so.
	w := post(t, s, rase, nil)
	resp := decode[CompileResponse](t, w)
	if w.Code != 200 || resp.Strategy != "ips" {
		t.Fatalf("rerouted request: code %d, strategy %q", w.Code, resp.Strategy)
	}
	if resp.BreakerReroute != "r2000/rase -> r2000/ips" {
		t.Fatalf("reroute note = %q", resp.BreakerReroute)
	}

	// Other targets with the same strategy are unaffected.
	other := rase
	other.Target = "m88000"
	if resp := decode[CompileResponse](t, post(t, s, other, nil)); resp.Strategy != "rase" || resp.BreakerReroute != "" {
		t.Fatalf("m88000/rase affected by r2000/rase breaker: %+v", resp)
	}

	// Cooldown elapses: the next rase request is the probe. The fault's
	// @max=2 is spent (this is r2000/rase's third serve), so it
	// succeeds and closes the breaker.
	clk.advance(2 * time.Minute)
	resp = decode[CompileResponse](t, post(t, s, rase, nil))
	if resp.Strategy != "rase" || resp.BreakerReroute != "" {
		t.Fatalf("probe request: %+v", resp)
	}
	st = decode[Statz](t, get(s, "/statz"))
	if st.Breakers["r2000/rase"] != "closed" || st.BreakerResets != 1 {
		t.Fatalf("after probe: %v trips=%d resets=%d", st.Breakers, st.BreakerTrips, st.BreakerResets)
	}

	// Closed again: requests run the requested strategy directly.
	if resp := decode[CompileResponse](t, post(t, s, rase, nil)); resp.Strategy != "rase" {
		t.Fatalf("post-reset request: %+v", resp)
	}
}

// TestBreakerAllTripped trips safe itself (the last rung) and requires
// a 503 with a retry hint instead of an infinite reroute hunt.
func TestBreakerAllTripped(t *testing.T) {
	fset, err := faults.Parse("serve:err@fn=r2000/safe")
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour,
		Faults:           fset,
		Clock:            fixedClock(),
	})
	safe := CompileRequest{Source: addC, Target: "r2000", Strategy: "safe"}
	if w := post(t, s, safe, nil); w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("tripping request: code %d", w.Code)
	}
	w := post(t, s, safe, nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("all-tripped request: code %d, want 503: %s", w.Code, w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
}

// TestBreakerRelevant: a service fault counts toward a trip wherever it
// sits in the error, a client's deadline and a cache-only miss never do.
func TestBreakerRelevant(t *testing.T) {
	diags := func(err error) error {
		d := &driver.Diagnostics{}
		d.Add(0, "ok", "strategy", errors.New("fine"))
		d.Add(1, "f", "strategy", err)
		return d
	}
	deadline := fmt.Errorf("sched: stopped at cycle 0, 2 of 2 unscheduled: %w", context.DeadlineExceeded)
	for _, c := range []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"user error", diags(errors.New("no template")), false},
		{"deadline", diags(deadline), false},
		{"cache-only miss", diags(driver.ErrCacheOnlyMiss), false},
		{"budget", diags(&faults.LimitError{Stage: "strategy", Elapsed: time.Millisecond, Detail: deadline.Error()}), true},
		{"step cap", diags(fmt.Errorf("%w (1 fallback attempt(s) also failed)", &faults.LimitError{Stage: "sched", Steps: 9})), true},
		{"panic", diags(&driver.PanicError{Phase: "select", Func: "f", Value: "boom"}), true},
		{"injected", diags(&faults.InjectedError{Site: "select", Fn: "f"}), true},
		{"injected serve", &faults.InjectedError{Site: "serve", Fn: "r2000/rase"}, true},
		{"serve panic", &servePanicError{val: "boom"}, true},
	} {
		if got := breakerRelevant(c.err); got != c.want {
			t.Errorf("%s: breakerRelevant(%v) = %v, want %v", c.name, c.err, got, c.want)
		}
	}
}

// TestServeFaultKeepsCache: a spec arming only the serve site reaches
// the back end whole but switches no cache off, so a repeated compile
// under a key the fault does not name is still a hit.
func TestServeFaultKeepsCache(t *testing.T) {
	fset, err := faults.Parse("serve:err@fn=r2000/rase@max=1")
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Faults: fset})
	req := CompileRequest{Source: addC, Filename: "add.c", Target: "r2000", Strategy: "postpass"}
	for i, want := range []int{0, 1} {
		w := post(t, s, req, nil)
		if w.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, w.Code, w.Body.String())
		}
		if got := decode[CompileResponse](t, w).CacheHits; got != want {
			t.Errorf("request %d: %d cache hit(s), want %d", i, got, want)
		}
	}
}

func get(s *Server, path string) *httptest.ResponseRecorder {
	r := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	return w
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRegisterTypeRefused: a function whose registers no general
// register set of the target holds (float, on every shipped target) is
// answered 422 with the refusal as its one diagnostic, naming the target
// and the type. Nothing of the back end runs: the trace holds no
// function span, so no ladder rung was tried and no retry time spent.
func TestRegisterTypeRefused(t *testing.T) {
	s := newTestServer(t, Config{Targets: targets.Names(), TraceRing: 8})
	src := "float fa(float a, float b) { return a * b; }\nint ok(int x) { return x; }\n"
	for _, target := range targets.Names() {
		w := post(t, s, CompileRequest{Source: src, Filename: "fa.c", Target: target, Strategy: "rase"}, nil)
		if w.Code != http.StatusUnprocessableEntity {
			t.Fatalf("%s: status %d, want 422: %s", target, w.Code, w.Body.String())
		}
		resp := decode[ErrorResponse](t, w)
		reason := "target " + s.machines[target].Name + " has no general register set for type float"
		want := []Diag{{Func: "fa", Phase: "registers", Error: reason}}
		if !reflect.DeepEqual(resp.Diagnostics, want) || resp.RetryAfterSeconds != 0 {
			t.Errorf("%s: answer %+v, want diagnostics %+v and no retry hint", target, resp, want)
		}
		tr := decode[trace.Trace](t, get(s, "/tracez?id="+w.Header().Get(RequestIDHeader)))
		for _, sp := range tr.Spans {
			if strings.HasPrefix(sp.Name, "fn:") || sp.Name == "attempt" {
				t.Errorf("%s: the refused compile ran the back end: span %q", target, sp.Name)
			}
		}
	}
}
