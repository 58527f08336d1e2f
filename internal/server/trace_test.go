package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"strings"
	"testing"
	"time"

	"marion/internal/faults"
	"marion/internal/gentest"
	"marion/internal/trace"
)

// A compiled request must leave a full span tree in the ring,
// retrievable by the ID echoed to the client. Coverage is wall time, so
// the request is a long cold compile (the register-pressure unit under
// RASE, several milliseconds): over one small function, which lasts
// well under a millisecond, a single OS preemption in a gap between
// spans could halve it on a loaded box.
func TestTraceRingCapturesCompile(t *testing.T) {
	unit := gentest.Fixture(gentest.Pressure)
	s := newTestServer(t, Config{TraceRing: 8})
	w := post(t, s, CompileRequest{Source: unit.Text, Filename: unit.Name, Target: "r2000", Strategy: "rase"}, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("compile: %d: %s", w.Code, w.Body.String())
	}
	resp := decode[CompileResponse](t, w)
	if resp.RequestID == "" {
		t.Fatal("response carries no request ID")
	}
	if hdr := w.Header().Get(RequestIDHeader); hdr != resp.RequestID {
		t.Fatalf("header ID %q != body ID %q", hdr, resp.RequestID)
	}
	if resp.CacheHits != 0 || len(resp.Stats) < 2 {
		t.Fatalf("want a cold compile of several functions, got %d hits of %d", resp.CacheHits, len(resp.Stats))
	}

	lw := get(s, "/tracez")
	if lw.Code != http.StatusOK {
		t.Fatalf("/tracez: %d", lw.Code)
	}
	tz := decode[tracez](t, lw)
	if tz.Capacity != 8 || len(tz.Traces) != 1 || tz.Traces[0].ID != resp.RequestID {
		t.Fatalf("/tracez = %+v", tz)
	}
	if tz.Traces[0].Outcome != "ok" || tz.Traces[0].Status != http.StatusOK {
		t.Fatalf("trace summary = %+v", tz.Traces[0])
	}

	gw := get(s, "/tracez?id="+resp.RequestID)
	if gw.Code != http.StatusOK {
		t.Fatalf("/tracez?id: %d: %s", gw.Code, gw.Body.String())
	}
	tr := decode[trace.Trace](t, gw)
	names := map[string]bool{}
	for _, sp := range tr.Spans {
		names[sp.Name] = true
	}
	want := []string{"compile", "admission", "lower"}
	for fn := range resp.Stats {
		want = append(want, "fn:"+fn)
	}
	for _, want := range want {
		if !names[want] {
			t.Errorf("trace lacks span %q (have %v)", want, names)
		}
	}
	if cov := tr.Coverage(); cov < 0.5 {
		t.Errorf("span coverage = %v, want >= 0.5 for an in-process compile", cov)
	}

	if nf := get(s, "/tracez?id=nosuch"); nf.Code != http.StatusNotFound {
		t.Errorf("/tracez?id=nosuch: %d, want 404", nf.Code)
	}
}

// A well-formed and a hostile client-supplied request ID.
const (
	clientID  = "client-id.7"
	hostileID = `bad id"}\n{"fake`
)

// A well-formed client-supplied ID is honored; a hostile one is
// replaced, never echoed.
func TestRequestIDValidation(t *testing.T) {
	s := newTestServer(t, Config{TraceRing: 8})

	w := post(t, s, CompileRequest{Source: addC, Target: "r2000"},
		map[string]string{RequestIDHeader: clientID})
	resp := decode[CompileResponse](t, w)
	if resp.RequestID != clientID {
		t.Fatalf("valid client ID not honored: %q", resp.RequestID)
	}
	if _, ok := s.ring.Get(clientID); !ok {
		t.Fatal("trace not retained under the client's ID")
	}

	w = post(t, s, CompileRequest{Source: addC, Target: "r2000"},
		map[string]string{RequestIDHeader: hostileID})
	resp = decode[CompileResponse](t, w)
	if resp.RequestID == hostileID || !trace.ValidID(resp.RequestID) {
		t.Fatalf("hostile ID echoed or replacement invalid: %q", resp.RequestID)
	}
}

// Rejected requests get traces and IDs too: the ring must tell the
// story of a shed or failed request, not only successes.
func TestTraceOnRejection(t *testing.T) {
	s := newTestServer(t, Config{TraceRing: 8})
	w := post(t, s, CompileRequest{Source: addC, Target: "nosuch"}, nil)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("bad target: %d", w.Code)
	}
	id := w.Header().Get(RequestIDHeader)
	if id == "" {
		t.Fatal("rejection carries no request ID header")
	}
	tr, ok := s.ring.Get(id)
	if !ok {
		t.Fatal("rejection left no trace")
	}
	if tr.Outcome != "bad-request" || tr.Status != http.StatusBadRequest {
		t.Fatalf("rejection trace = outcome %q status %d", tr.Outcome, tr.Status)
	}
}

// TraceRing 0 disables the surface: /tracez is 404, compiles still
// work and carry request IDs.
func TestTracingDisabled(t *testing.T) {
	s := newTestServer(t, Config{})
	if w := get(s, "/tracez"); w.Code != http.StatusNotFound {
		t.Fatalf("/tracez with tracing off: %d, want 404", w.Code)
	}
	w := post(t, s, CompileRequest{Source: addC, Target: "r2000"}, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("compile: %d", w.Code)
	}
	if decode[CompileResponse](t, w).RequestID == "" {
		t.Fatal("request ID missing with tracing off")
	}
}

// Every request writes exactly one structured access line with the
// contract's keys, parseable as JSON.
func TestAccessLog(t *testing.T) {
	var buf bytes.Buffer
	s := newTestServer(t, Config{
		TraceRing: 8,
		AccessLog: slog.New(slog.NewJSONHandler(&buf, nil)),
	})
	ok := post(t, s, CompileRequest{Source: addC, Target: "r2000"},
		map[string]string{RequestIDHeader: "logged-1"})
	if ok.Code != http.StatusOK {
		t.Fatalf("compile: %d", ok.Code)
	}
	bad := post(t, s, CompileRequest{Source: addC, Target: "nosuch"}, nil)
	if bad.Code != http.StatusBadRequest {
		t.Fatalf("bad target: %d", bad.Code)
	}

	lines := accessLines(t, &buf)
	if len(lines) != 2 {
		t.Fatalf("got %d access lines, want 2", len(lines))
	}
	for i, rec := range lines {
		if rec["msg"] != "access" {
			t.Errorf("line %d msg = %v", i, rec["msg"])
		}
		for _, k := range []string{"id", "status", "latency_ms", "outcome", "target", "strategy"} {
			if _, present := rec[k]; !present {
				t.Errorf("line %d lacks %q: %v", i, k, rec)
			}
		}
	}
	if lines[0]["id"] != "logged-1" || lines[0]["outcome"] != "ok" ||
		lines[0]["status"] != float64(200) {
		t.Errorf("success line = %v", lines[0])
	}
	if lines[1]["outcome"] != "bad-request" || lines[1]["status"] != float64(400) {
		t.Errorf("rejection line = %v", lines[1])
	}
}

// accessLines parses everything the access log has written so far, one
// JSON record per line.
func accessLines(t *testing.T, buf *bytes.Buffer) []map[string]any {
	t.Helper()
	var lines []map[string]any
	sc := bufio.NewScanner(buf)
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("access line is not JSON: %v: %s", err, sc.Text())
		}
		lines = append(lines, rec)
	}
	return lines
}

// queue_ms is the wait for an admission slot — the same figure in the
// response body, the access log and server.queue.seconds — not the
// whole request. A compile held ~100ms by a hang fault (its budget
// converts the hang into a degradation, so the request still succeeds)
// must report a queue_ms far below its elapsed_ms.
func TestQueueMsIsAdmissionWait(t *testing.T) {
	fset, err := faults.Parse("select:hang")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	s := newTestServer(t, Config{
		Faults:    fset,
		AccessLog: slog.New(slog.NewJSONHandler(&buf, nil)),
	})
	w := post(t, s, CompileRequest{Source: addC, Target: "r2000",
		Options: &CompileOptions{BudgetMs: 100}}, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("compile: %d: %s", w.Code, w.Body.String())
	}
	resp := decode[CompileResponse](t, w)
	if len(resp.Degradations) == 0 || resp.ElapsedMs < 100 {
		t.Fatalf("compile was not held by the fault: elapsed %vms, degradations %v",
			resp.ElapsedMs, resp.Degradations)
	}
	if resp.QueueMs*10 > resp.ElapsedMs {
		t.Errorf("queue_ms = %v includes the compile (elapsed_ms = %v)", resp.QueueMs, resp.ElapsedMs)
	}
	lines := accessLines(t, &buf)
	if len(lines) != 1 || lines[0]["queue_ms"] != resp.QueueMs {
		t.Errorf("access-log queue_ms = %v, response queue_ms = %v", lines, resp.QueueMs)
	}
}

// TestStageOutcomes drives one request into every early exit of the
// request stages and checks each exit's contract: its HTTP status,
// exactly one access-log line carrying its outcome, the admission slot
// handed back (inflight returns to 0), and the right slotOutcome
// on release — only a request that reached the compile may feed the
// limiter's service-time estimate.
func TestStageOutcomes(t *testing.T) {
	mustFaults := func(spec string) *faults.Set {
		fset, err := faults.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		return fset
	}
	addReq := CompileRequest{Source: addC, Target: "r2000"}
	short := map[string]string{DeadlineHeader: "30"}
	// hold takes the only slot without ever feeding the estimate.
	hold := func(t *testing.T, s *Server) func() {
		rel := occupySlot(t, s)
		return func() { rel(slotSkipped) }
	}
	cases := []struct {
		name    string // defaults to outcome
		outcome string
		cfg     Config
		// prep puts the server in the state that forces the exit; the
		// returned func undoes it so in-flight work can finish.
		prep    func(t *testing.T, s *Server) (undo func())
		req     CompileRequest
		hdr     map[string]string
		status  int
		sampled bool // the slot's release fed the service estimate
	}{
		{name: "bad-request@identify", outcome: "bad-request", status: http.StatusBadRequest,
			req: CompileRequest{Source: addC, Target: "vax"}},
		{name: "bad-request@lower", outcome: "bad-request", status: http.StatusBadRequest,
			req: CompileRequest{Source: "int f( {", Target: "r2000"}}, // rejected holding a slot
		{outcome: "draining", req: addReq, status: http.StatusServiceUnavailable,
			prep: func(t *testing.T, s *Server) func() { s.BeginDrain(); return nil }},
		{outcome: "shed-full", req: addReq, status: http.StatusTooManyRequests,
			cfg: Config{MaxInflight: 1, MaxQueue: 1},
			prep: func(t *testing.T, s *Server) func() {
				undo := hold(t, s)
				queued := make(chan int)
				go func() { queued <- post(t, s, addReq, nil).Code }()
				waitFor(t, func() bool { return limiterStatz(s.lim).Queued == 1 })
				return func() {
					undo()
					if code := <-queued; code != http.StatusOK {
						t.Errorf("queued request: status %d", code)
					}
				}
			}},
		{outcome: "shed-doomed", req: addReq, hdr: short, status: http.StatusTooManyRequests,
			cfg: Config{MaxInflight: 1, MaxQueue: 4},
			prep: func(t *testing.T, s *Server) func() {
				s.lim.prime(2 * time.Second) // est >> the 30ms deadline
				return hold(t, s)
			}},
		{outcome: "expired", req: addReq, hdr: short, status: http.StatusGatewayTimeout,
			cfg: Config{MaxInflight: 1, MaxQueue: 4}, prep: hold},
		{outcome: "circuit-open", status: http.StatusServiceUnavailable,
			req: CompileRequest{Source: addC, Target: "r2000", Strategy: "safe"},
			cfg: Config{BreakerThreshold: 1, BreakerCooldown: time.Hour, Clock: fixedClock()},
			prep: func(t *testing.T, s *Server) func() {
				s.breakers.failure("r2000/safe", nil) // safe is the last rung
				return nil
			}},
		{outcome: "shed-cache-only", req: addReq, status: http.StatusTooManyRequests, sampled: true,
			cfg: Config{Brownout: true, Clock: fixedClock()},
			prep: func(t *testing.T, s *Server) func() {
				s.lim.force(levelCacheOnly)
				return func() { s.Close() }
			}},
		{outcome: "failed", req: addReq, status: http.StatusUnprocessableEntity, sampled: true,
			cfg: Config{Faults: mustFaults("serve:err")}},
	}
	for _, c := range cases {
		if c.name == "" {
			c.name = c.outcome
		}
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			c.cfg.AccessLog = slog.New(slog.NewJSONHandler(&buf, nil))
			s := newTestServer(t, c.cfg)
			var undo func()
			if c.prep != nil {
				undo = c.prep(t, s)
			}
			before := limiterStatz(s.lim).EstimateMs
			w := post(t, s, c.req, c.hdr)
			sampled := limiterStatz(s.lim).EstimateMs != before
			if undo != nil {
				undo()
			}

			if w.Code != c.status {
				t.Errorf("status %d, want %d: %s", w.Code, c.status, w.Body.String())
			}
			if sampled != c.sampled {
				t.Errorf("service estimate sampled = %v, want %v", sampled, c.sampled)
			}
			if st := decode[Statz](t, get(s, "/statz")); st.Inflight != 0 || st.Queued != 0 {
				t.Errorf("slot not released: inflight %d, queued %d", st.Inflight, st.Queued)
			}
			n := 0
			for _, rec := range accessLines(t, &buf) {
				if rec["outcome"] == c.outcome {
					n++
					if rec["status"] != float64(c.status) {
						t.Errorf("access line status = %v, want %d", rec["status"], c.status)
					}
				}
			}
			if n != 1 {
				t.Errorf("%d access lines with outcome %q, want exactly 1", n, c.outcome)
			}
		})
	}
}

// GET /metrics must satisfy the same strict Prometheus parser
// cmd/mariond's TestServeDrills uses.
func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	post(t, s, CompileRequest{Source: addC, Target: "r2000"}, nil)

	w := get(s, "/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	if _, err := gentest.ParsePrometheusText(bytes.NewReader(w.Body.Bytes())); err != nil {
		t.Fatalf("/metrics rejected by parser: %v\n%s", err, w.Body.String())
	}
	if !strings.Contains(w.Body.String(), "marion_server_requests 1") {
		t.Errorf("request counter missing:\n%s", w.Body.String())
	}
}

// /statz reports server-side latency quantiles and the ring's shape.
func TestStatzLatencyAndTraceCount(t *testing.T) {
	s := newTestServer(t, Config{TraceRing: 8, TraceSLO: time.Hour})
	post(t, s, CompileRequest{Source: addC, Target: "r2000"}, nil)

	st := decode[Statz](t, get(s, "/statz"))
	q, ok := st.Latency["server.compile.seconds"]
	if !ok {
		t.Fatalf("no compile latency quantiles: %+v", st.Latency)
	}
	for _, p := range []string{"p50", "p90", "p99"} {
		if _, ok := q[p]; !ok {
			t.Errorf("latency lacks %s: %v", p, q)
		}
	}
	if q["p50"] > q["p99"] {
		t.Errorf("p50 %v > p99 %v", q["p50"], q["p99"])
	}
	if st.TraceCount != 1 || st.TraceCapacity != 8 {
		t.Errorf("trace ring stats = %d/%d, want 1/8", st.TraceCount, st.TraceCapacity)
	}
}
