// Package server is mariond's HTTP front door: Marion's code generator
// behind a network API, built only on net/http.
//
// One Server owns one finalized mach.Machine per shipped target (loaded
// and fingerprinted once, then shared read-only by every request) and
// one content-addressed cache.Cache shared across all requests — a hit
// produced by any client serves every later client asking for the same
// (canonical IR, machine, config) triple.
//
// Admission control is an adaptive concurrency limiter (limiter.go):
// Config.MaxInflight seeds the limit, and with an SLO configured, AIMD
// walks it against measured compile latency. The bounded wait queue
// (Config.MaxQueue) sheds overflow with 429 and a COMPUTED Retry-After
// (queue depth x EWMA service estimate), and evicts queued requests
// whose remaining deadline is below the service estimate —
// shed-before-doomed, so load beyond capacity degrades to fast, honest
// rejections instead of unbounded queueing. Per-request deadlines (the
// X-Marion-Deadline-Ms header, or Config.DefaultDeadline)
// propagate through context.Context into the pipeline's
// budget/degradation machinery: an expired request returns structured
// per-function diagnostics, never a hung connection.
//
// Sustained pressure engages the brownout ladder (Config.Brownout;
// brownout.go holds the levels and what each one cuts): verify off ->
// strategies capped at postpass -> safe only -> cache-hits only, each
// level recorded in responses and /statz, and recovered level by level
// with hysteresis once pressure falls.
//
// A per-(target, strategy) circuit breaker (Config.BreakerThreshold;
// breaker.go, with the reroute) trips on repeated panics, budget
// exhaustions and injected server faults, reroutes that combination
// down strategy.FallbackChain while other combinations keep serving,
// and writes a replayable quarantine bundle (Config.QuarantineDir;
// bundle.go) that `marionc -replay` reproduces.
//
// Graceful drain: BeginDrain flips /readyz to 503 and rejects new
// compiles; the owner then lets http.Server.Shutdown finish in-flight
// requests and calls Close, which flushes the cache's disk tier.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"marion/internal/cache"
	"marion/internal/driver"
	"marion/internal/faults"
	"marion/internal/ir"
	"marion/internal/mach"
	"marion/internal/metrics"
	"marion/internal/strategy"
	"marion/internal/targets"
	"marion/internal/trace"
)

// maxSourceBytes bounds a /compile request body.
const maxSourceBytes = 4 << 20

// Config tunes a Server. The zero value serves every shipped target
// with sensible production defaults.
type Config struct {
	// Targets lists the machine descriptions to preload; empty means
	// every shipped target.
	Targets []string
	// MaxInflight bounds concurrently compiling requests; <= 0 means
	// GOMAXPROCS.
	MaxInflight int
	// MaxQueue bounds requests waiting for a compile slot; beyond it,
	// requests are shed with 429. <= 0 means 2*MaxInflight.
	MaxQueue int
	// DefaultDeadline applies when a request carries no deadline
	// header; <= 0 means 30s.
	DefaultDeadline time.Duration
	// MaxDeadline caps the client-supplied deadline; <= 0 means 2m.
	MaxDeadline time.Duration
	// Budget is the default per-function compilation budget (0 = the
	// request deadline alone bounds each function).
	Budget time.Duration
	// Workers is the default per-function worker pool per request;
	// <= 0 means 1 (cross-request parallelism is the daemon's bread and
	// butter; within-request parallelism is the client's opt-in).
	Workers int
	// CacheBytes sizes the shared in-memory cache tier (<= 0: 64 MiB).
	CacheBytes int64
	// CacheDir, when non-empty, persists the shared cache on disk.
	CacheDir string
	// Registry receives the server's instruments; nil means
	// metrics.Default().
	Registry *metrics.Registry

	// SLO is the target compile latency driving the adaptive concurrency
	// limiter: in-SLO completions grow the limit additively (up to
	// 4*MaxInflight), breaches shrink it multiplicatively. Zero keeps
	// the limit fixed at MaxInflight (the static-semaphore behavior).
	SLO time.Duration
	// Brownout enables the hysteretic degradation ladder driven by
	// admission pressure; off, every request runs at full fidelity.
	Brownout bool
	// BreakerThreshold enables per-(target, strategy) circuit breakers:
	// that many consecutive panics/budget exhaustions trip the
	// combination open. 0 disables breakers entirely.
	BreakerThreshold int
	// BreakerCooldown is how long a tripped combination stays open
	// before one probe is admitted; <= 0 means 1s.
	BreakerCooldown time.Duration
	// QuarantineDir, when non-empty, receives a replayable bundle
	// (config.json + input.il) for every breaker trip.
	QuarantineDir string
	// Faults arms server-level fault injection: the "serve" site fires
	// around each admitted compile with the breaker key as the function
	// name and the per-key request sequence as the index, so
	// serve:err@fn=r2000/rase@max=3 fails exactly that key's first
	// three requests. The whole set goes down to the back end, which
	// fires only its pipeline sites.
	Faults *faults.Set
	// Clock is the time source for brownout/breaker pacing (default
	// time.Now), injectable for deterministic tests.
	Clock func() time.Time

	// TraceRing sizes the in-memory ring of finished request traces
	// served at GET /tracez; <= 0 disables tracing entirely (every span
	// operation degenerates to one nil check, so compile output and
	// throughput are identical to a traceless build).
	TraceRing int
	// TraceSLO marks traces at or above this duration as SLO breaches,
	// which the ring preferentially retains. <= 0 falls back to SLO,
	// then to 1s.
	TraceSLO time.Duration
	// AccessLog, when non-nil, receives one structured line per request
	// ("access": request ID, status, latency, outcome, admission and
	// brownout detail). Nil disables access logging.
	AccessLog *slog.Logger
}

func (c *Config) fill() {
	if c.MaxInflight <= 0 {
		c.MaxInflight = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 2 * c.MaxInflight
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 2 * time.Minute
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if len(c.Targets) == 0 {
		c.Targets = targets.Names()
	}
	if c.Registry == nil {
		c.Registry = metrics.Default()
	}
	if c.TraceSLO <= 0 {
		c.TraceSLO = c.SLO
	}
	if c.TraceSLO <= 0 {
		c.TraceSLO = time.Second
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = time.Second
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
}

// Server is the compile service. Create with New; all methods are safe
// for concurrent use.
type Server struct {
	cfg      Config
	machines map[string]*mach.Machine
	cache    *cache.Cache
	mux      *http.ServeMux
	start    time.Time

	lim      *limiter    // adaptive admission controller
	brown    *brownout   // nil unless Config.Brownout
	breakers *breakerSet // nil unless Config.BreakerThreshold > 0
	ring     *trace.Ring // nil unless Config.TraceRing > 0
	draining atomic.Bool
	warn     error // non-fatal setup problems (cache disk tier)

	// base is the back end configuration every request starts from: the
	// server's Workers and Budget defaults, the shared cache, and
	// Config.Faults whole. The driver fires only its pipeline sites, and
	// only a set arming one switches the cache off, so a serve-only spec
	// leaves the cache (and the cache-only brownout level) working.
	base driver.Config

	seqMu sync.Mutex
	seq   map[string]int // per-breaker-key request sequence (fault index)

	stop     chan struct{} // stops the brownout observer goroutine
	stopOnce sync.Once

	requests, accepted, shed  *metrics.Counter
	expired, failed           *metrics.Counter
	evictedC, rerouted, quarC *metrics.Counter
	limitGauge, levelGauge    *metrics.Gauge
	compileSec, queueSec      *metrics.Histogram
}

// New loads and finalizes every configured target exactly once (each
// machine is fingerprinted as its description is parsed) and builds the
// shared cache. A cache disk-tier error disables only the disk tier;
// it is reported by Warning, not returned.
func New(cfg Config) (*Server, error) {
	cfg.fill()
	s := &Server{
		cfg:      cfg,
		machines: make(map[string]*mach.Machine, len(cfg.Targets)),
		start:    time.Now(),
		seq:      map[string]int{},
		lim:      newLimiter(cfg.MaxInflight, cfg.SLO, cfg.MaxQueue),

		requests:   cfg.Registry.Counter("server.requests"),
		accepted:   cfg.Registry.Counter("server.accepted"),
		shed:       cfg.Registry.Counter("server.shed"),
		expired:    cfg.Registry.Counter("server.expired"),
		failed:     cfg.Registry.Counter("server.failed"),
		evictedC:   cfg.Registry.Counter("server.evicted"),
		rerouted:   cfg.Registry.Counter("server.breaker.rerouted"),
		quarC:      cfg.Registry.Counter("server.breaker.quarantined"),
		limitGauge: cfg.Registry.Gauge("server.limit"),
		levelGauge: cfg.Registry.Gauge("server.brownout.level"),
		compileSec: cfg.Registry.Histogram("server.compile.seconds", metrics.TimeBuckets),
		queueSec:   cfg.Registry.Histogram("server.queue.seconds", metrics.TimeBuckets),
	}
	s.limitGauge.Set(int64(s.lim.currentLimit()))
	s.ring = trace.NewRing(cfg.TraceRing, cfg.TraceSLO)
	if cfg.Brownout {
		s.brown = &brownout{clock: cfg.Clock}
		s.stop = make(chan struct{})
		go s.observeLoop()
	}
	if cfg.BreakerThreshold > 0 {
		s.breakers = newBreakerSet(cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.Clock)
	}
	for _, t := range cfg.Targets {
		m, err := targets.Load(t)
		if err != nil {
			return nil, err
		}
		s.machines[t] = m
	}
	ch, warn := cache.New(cache.Options{
		MaxBytes: cfg.CacheBytes,
		Dir:      cfg.CacheDir,
		Registry: cfg.Registry,
	})
	s.cache, s.warn = ch, warn
	s.base = driver.Config{
		Workers: cfg.Workers,
		Budget:  cfg.Budget,
		Cache:   ch,
		Faults:  cfg.Faults,
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/compile", s.handleCompile)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/statz", s.handleStatz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/tracez", s.handleTracez)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.mux = mux
	return s, nil
}

// Warning reports non-fatal setup problems (a disabled cache disk
// tier); nil when setup was clean.
func (s *Server) Warning() error { return s.warn }

// Handler returns the daemon's root handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Targets returns the names of the machines this server serves.
func (s *Server) Targets() []string { return s.cfg.Targets }

// BeginDrain stops admitting new compiles: /readyz turns 503 (so load
// balancers stop routing here) and /compile starts answering 503 with
// Retry-After. In-flight requests are unaffected; the owner finishes
// them with http.Server.Shutdown and then calls Close.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Close stops the brownout observer, flushes the shared cache's disk
// tier (entries whose disk write was lost are rewritten) and returns
// the number of entries flushed. Call after in-flight requests have
// drained.
func (s *Server) Close() int {
	if s.stop != nil {
		s.stopOnce.Do(func() { close(s.stop) })
	}
	return s.cache.Flush()
}

// observeLoop feeds admission pressure into the brownout controller on
// a fixed cadence, so recovery happens even when no requests arrive to
// observe it.
func (s *Server) observeLoop() {
	t := time.NewTicker(100 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.levelGauge.Set(int64(s.brown.observe(s.lim.pressure())))
			s.limitGauge.Set(int64(s.lim.currentLimit()))
		}
	}
}

// level is the current brownout level (0 when brownout is disabled).
func (s *Server) level() int {
	if s.brown == nil {
		return 0
	}
	return s.brown.level()
}

// nextSeq returns and advances the per-breaker-key request sequence
// number — the serve fault site's index.
func (s *Server) nextSeq(key string) int {
	s.seqMu.Lock()
	defer s.seqMu.Unlock()
	n := s.seq[key]
	s.seq[key] = n + 1
	return n
}

// ---------------------------------------------------------------------
// Handlers
// ---------------------------------------------------------------------

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	fmt.Fprintf(w, "mariond: Marion compile service\n\nPOST /compile   {source, lang, target, strategy, options} -> assembly JSON\nGET  /healthz   liveness\nGET  /readyz    readiness (503 while draining)\nGET  /statz     load, admission and cache statistics\nGET  /metrics   Prometheus text exposition of every instrument\nGET  /tracez    retained request traces (?id=<request id> for one span tree)\nGET  /debug/vars, /debug/pprof/\n")
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.lim.retryAfter())))
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ready")
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	st := Statz{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Targets:       s.cfg.Targets,
		Draining:      s.draining.Load(),
		Capacity:      s.cfg.MaxInflight,
		QueueLimit:    s.cfg.MaxQueue,
		Requests:      s.requests.Value(),
		Accepted:      s.accepted.Value(),
		Shed:          s.shed.Value(),
		Expired:       s.expired.Value(),
		Failed:        s.failed.Value(),
		PressureLevel: s.level(),
		Cache:         s.cache.Stats(),
	}
	s.lim.statz(&st)
	if s.breakers != nil {
		s.breakers.statz(&st)
	}
	if s.ring != nil {
		st.TraceCount, st.TraceCapacity = s.ring.Len(), s.ring.Cap()
	}
	st.Latency = latencyQuantiles(s.cfg.Registry.Snapshot())
	writeJSON(w, http.StatusOK, st)
}

// latencyQuantiles computes p50/p90/p99 in milliseconds for every
// duration histogram (names ending ".seconds") that has samples.
func latencyQuantiles(snap metrics.Snapshot) map[string]map[string]float64 {
	var out map[string]map[string]float64
	for name, h := range snap.Histograms {
		if !strings.HasSuffix(name, ".seconds") || h.Count == 0 {
			continue
		}
		if out == nil {
			out = map[string]map[string]float64{}
		}
		out[name] = map[string]float64{
			"p50": h.Quantile(0.50) * 1e3,
			"p90": h.Quantile(0.90) * 1e3,
			"p99": h.Quantile(0.99) * 1e3,
		}
	}
	return out
}

// handleMetrics renders the whole registry in the Prometheus text
// exposition format (version 0.0.4).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = metrics.WritePrometheus(w, s.cfg.Registry.Snapshot())
}

// handleTracez serves the trace ring: the summary list, or one full
// span tree with ?id=<request id>.
func (s *Server) handleTracez(w http.ResponseWriter, r *http.Request) {
	if s.ring == nil {
		writeJSON(w, http.StatusNotFound,
			&ErrorResponse{Error: "tracing disabled (start with a trace ring > 0)"})
		return
	}
	if id := r.URL.Query().Get("id"); id != "" {
		t, ok := s.ring.Get(id)
		if !ok {
			writeJSON(w, http.StatusNotFound,
				&ErrorResponse{Error: "no retained trace with id " + strconv.Quote(id)})
			return
		}
		writeJSON(w, http.StatusOK, t)
		return
	}
	writeJSON(w, http.StatusOK, &tracez{
		Capacity: s.ring.Cap(),
		SLOMs:    float64(s.ring.SLO()) / float64(time.Millisecond),
		Traces:   s.ring.List(),
	})
}

// compileReq is one POST /compile as it moves through the request
// stages (identify -> admit -> lower -> plan -> compile -> respond).
// Each stage reads what earlier stages filled in and adds its own part;
// the access log and the finished trace read the same struct.
type compileReq struct {
	w       *statusWriter
	r       *http.Request
	started time.Time
	id      string
	root    *trace.Span // nil when tracing is off
	// outcome is the request's one-word verdict: "ok", or whatever the
	// rejecting stage reported.
	outcome string

	// identify
	req      CompileRequest
	m        *mach.Machine
	kind     strategy.Kind // the strategy asked for
	deadline time.Duration
	ctx      context.Context // the request context bounded by deadline

	// admit
	queueMs float64 // wait for an admission slot
	level   int     // brownout level observed at admission
	// slot is what the release of the admission slot will report; only a
	// request that reached the compile upgrades it from Skipped.
	slot slotOutcome

	// lower
	mod *ir.Module
	// done gives mod's nodes back to the front end's pool (LowerScoped);
	// nil before lower, and after a panic, which drops them instead.
	done func()

	// plan
	opts     CompileOptions // the wire options as planned (brownout applied)
	cfg      driver.Config  // what the back end runs under
	strategy string         // cfg.Strategy once planned; "" before
	bkey     string         // breaker key the compile runs under
	reroute  string
	notes    []string // what brownout changed

	// compile
	elapsed time.Duration // server-side time up to the end of the compile
	cache   string        // "hit" / "partial" / "miss"
}

// statusWriter captures the response status for the trace and the
// access log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// handleCompile wraps one compile in its observability envelope —
// request identity, root trace span, access log — and delegates the
// actual work to serveCompile. Every answer, success or rejection,
// echoes the request ID, lands one access-log line, and (with tracing
// on) leaves one finished trace in the ring.
func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	rq := &compileReq{
		w:       &statusWriter{ResponseWriter: w, status: http.StatusOK},
		r:       r,
		started: time.Now(),
		outcome: "ok",
		slot:    slotSkipped,
	}
	s.requests.Inc()

	// Request identity: the client's ID when it is safe to echo and log
	// (trace.ValidID), a server-generated one otherwise. Set on the
	// answer before any handler path can write headers.
	rq.id = r.Header.Get(RequestIDHeader)
	if !trace.ValidID(rq.id) {
		rq.id = trace.NewID()
	}
	w.Header().Set(RequestIDHeader, rq.id)
	if s.ring != nil {
		rq.root = trace.New(rq.id, "compile")
	}
	defer s.finishRequest(rq)

	s.serveCompile(rq)
}

// finishRequest closes out one request: finishes the root span into the
// ring and emits the structured access-log line.
func (s *Server) finishRequest(rq *compileReq) {
	s.ring.Add(rq.root.Finish(rq.outcome, rq.w.status))
	if s.cfg.AccessLog == nil {
		return
	}
	s.cfg.AccessLog.LogAttrs(context.Background(), slog.LevelInfo, "access",
		slog.String("id", rq.id),
		slog.Int("status", rq.w.status),
		slog.Float64("latency_ms", float64(time.Since(rq.started))/float64(time.Millisecond)),
		slog.String("outcome", rq.outcome),
		slog.String("target", rq.req.Target),
		slog.String("strategy", rq.strategy),
		slog.Float64("queue_ms", rq.queueMs),
		slog.Int("brownout_level", rq.level),
		slog.String("cache", rq.cache),
	)
}

// serveCompile drives one request through the stages. A stage that
// rejects the request has already answered it and recorded its outcome;
// the driver just stops. It alone owns the two cleanups that must run
// on every path: the deadline's cancel and the admission slot's
// release.
//
// Lowering runs before planning: plan may be handed a breaker's single
// half-open probe, which only a compile can resolve, so everything that
// can still reject the request for its own content comes first.
func (s *Server) serveCompile(rq *compileReq) {
	if !s.identify(rq) {
		return
	}
	// The request deadline propagates through context into the scheduler
	// and allocator loops.
	ctx, cancel := context.WithTimeout(rq.r.Context(), rq.deadline)
	defer cancel()
	rq.ctx = ctx

	release, ok := s.admit(rq)
	if !ok {
		return
	}
	// The release feeds the AIMD/EWMA controller only when the request
	// reached the compile; pre-compile rejections (lowering errors,
	// circuit-broken strategies) return the slot without a sample, so a
	// flood of invalid requests can neither shrink the service estimate
	// (mass-evicting queued work as doomed) nor inflate the adaptive
	// limit past what real compiles sustain.
	defer func() { release(rq.slot) }()

	if !s.lower(rq) {
		return
	}
	// The IL is the request's own: once the answer is written, whatever
	// it was, its nodes go back to the front end's pool.
	defer func() {
		if rq.done != nil {
			rq.done()
		}
	}()
	if !s.plan(rq) {
		return
	}
	if res, ok := s.compile(rq); ok {
		s.respond(rq, res)
	}
}

// identify decodes the request and resolves what it names: target ->
// machine, strategy -> kind, deadline header -> duration.
func (s *Server) identify(rq *compileReq) bool {
	if rq.r.Method != http.MethodPost {
		rq.w.Header().Set("Allow", http.MethodPost)
		return s.answer(rq, "bad-request", http.StatusMethodNotAllowed, "POST only", nil)
	}
	if s.draining.Load() {
		return s.answer(rq, "draining", http.StatusServiceUnavailable, "draining", nil)
	}
	body := http.MaxBytesReader(rq.w, rq.r.Body, maxSourceBytes)
	if err := json.NewDecoder(body).Decode(&rq.req); err != nil {
		return s.answer(rq, "bad-request", http.StatusBadRequest, "bad request body: "+err.Error(), nil)
	}
	rq.root.Attr("target", rq.req.Target)
	var ok bool
	if rq.m, ok = s.machines[rq.req.Target]; !ok {
		return s.answer(rq, "bad-request", http.StatusBadRequest,
			fmt.Sprintf("unknown target %q (serving %v)", rq.req.Target, s.cfg.Targets), nil)
	}
	stratName := rq.req.Strategy
	if stratName == "" {
		stratName = "postpass"
	}
	var err error
	if rq.kind, err = strategy.ParseKind(stratName); err != nil {
		return s.answer(rq, "bad-request", http.StatusBadRequest, err.Error(), nil)
	}
	// The request deadline: client header, clamped, or the default.
	rq.deadline = s.cfg.DefaultDeadline
	if h := rq.r.Header.Get(DeadlineHeader); h != "" {
		ms, perr := strconv.ParseInt(h, 10, 64)
		if perr != nil || ms <= 0 {
			return s.answer(rq, "bad-request", http.StatusBadRequest, "bad "+DeadlineHeader+" header", nil)
		}
		// Clamp before the multiply: a huge ms overflows Duration.
		rq.deadline = s.cfg.MaxDeadline
		if ms < int64(s.cfg.MaxDeadline/time.Millisecond) {
			rq.deadline = time.Duration(ms) * time.Millisecond
		}
	}
	return true
}

// admit takes an admission slot: a free slot admits immediately;
// otherwise the request waits in the bounded queue, is shed (queue
// full, or doomed: remaining deadline below the service estimate), or
// expires while queued. The measured wait is the request's queue_ms —
// in the response, the access log and server.queue.seconds alike. The
// brownout level is observed here, at admission, and decides how much
// fidelity plan gives the request.
func (s *Server) admit(rq *compileReq) (release func(slotOutcome), ok bool) {
	queued := time.Now()
	asp := rq.root.Child("admission")
	release, dec := s.lim.acquire(rq.ctx, asp)
	asp.Attr("decision", dec.String())
	asp.End()
	wait := time.Since(queued)
	rq.queueMs = float64(wait) / float64(time.Millisecond)
	s.queueSec.ObserveDuration(wait)
	switch dec {
	case shedFull:
		s.shed.Inc()
		return nil, s.answer(rq, "shed-full", http.StatusTooManyRequests, "over capacity, retry later", nil)
	case shedDoomed:
		s.shed.Inc()
		s.evictedC.Inc()
		return nil, s.answer(rq, "shed-doomed", http.StatusTooManyRequests,
			"remaining deadline below the service estimate; shed instead of queued", nil)
	case expired:
		s.expired.Inc()
		return nil, s.answer(rq, "expired", http.StatusGatewayTimeout, "deadline expired while queued", nil)
	}
	s.limitGauge.Set(int64(s.lim.currentLimit()))
	if s.brown != nil {
		rq.level = s.brown.observe(s.lim.pressure())
		s.levelGauge.Set(int64(rq.level))
		if rq.level > 0 {
			rq.root.Event("brownout", "level", strconv.Itoa(rq.level))
		}
	}
	return release, true
}

// lower runs the front end: request source to an IL module.
func (s *Server) lower(rq *compileReq) bool {
	lsp := rq.root.Child("lower")
	mod, done, err := driver.LowerScoped(rq.req.Lang, rq.req.unitName(), rq.req.Source)
	lsp.End()
	if err != nil {
		s.failed.Inc()
		return s.answer(rq, "bad-request", http.StatusBadRequest, err.Error(), nil)
	}
	rq.mod, rq.done = mod, done
	return true
}

// plan decides what the back end will run under: the brownout level
// cuts fidelity, the circuit breakers pick the (target, strategy) that
// may run, and the wire options are mapped onto the server's base
// configuration.
func (s *Server) plan(rq *compileReq) bool {
	if rq.req.Options != nil {
		rq.opts = *rq.req.Options
	}
	kind, verifyOn, cacheOnly, notes := applyBrownout(rq.level, rq.kind, rq.opts.Verify)
	rq.opts.Verify, rq.notes = verifyOn, notes

	kind, ok := s.route(rq, kind)
	if !ok {
		s.failed.Inc()
		return s.answer(rq, "circuit-open", http.StatusServiceUnavailable,
			"every strategy for this target is circuit-broken, retry later", nil)
	}
	rq.strategy = kind.String()
	rq.root.Attr("strategy", rq.strategy)

	rq.cfg = rq.opts.Config(s.base)
	rq.cfg.Strategy, rq.cfg.CacheOnly = kind, cacheOnly
	return true
}

// compile runs the planned compile, settles the admission slot's and
// the breaker's verdicts, and answers a failed compile itself.
func (s *Server) compile(rq *compileReq) (*driver.Compiled, bool) {
	rq.cfg.Span = rq.root.Child("compile")
	res, err := s.compileGuarded(rq)
	rq.cfg.Span.End()
	// This request reached the compile: its service time is an SLO
	// sample, counted against the SLO when its deadline cut it off.
	rq.slot = slotDone
	if rq.ctx.Err() != nil {
		rq.slot = slotBreached
	}
	s.settleBreaker(rq, err)
	if err != nil {
		s.compileFailed(rq, err)
		return nil, false
	}
	rq.cache = cacheStatus(res.CacheHits, len(rq.mod.Funcs))
	s.accepted.Inc()
	rq.elapsed = time.Since(rq.started)
	s.compileSec.ObserveDuration(rq.elapsed)
	return res, true
}

// compileFailed answers a compile that returned an error.
func (s *Server) compileFailed(rq *compileReq, err error) {
	diags := toDiags(err)
	switch {
	case rq.cfg.CacheOnly && cacheOnlyMiss(err):
		// Deepest brownout level: only warm functions are served.
		s.shed.Inc()
		s.answer(rq, "shed-cache-only", http.StatusTooManyRequests,
			"brownout cache-only: not in cache, retry later", diags)
	case rq.ctx.Err() != nil:
		// The request deadline (or a gone client) interrupted the back
		// end: the structured per-function diagnostics say exactly which
		// functions were cut off where.
		s.expired.Inc()
		s.answer(rq, "expired", http.StatusGatewayTimeout, "deadline exceeded: "+rq.ctx.Err().Error(), diags)
	default:
		s.failed.Inc()
		msg := "compile failed"
		if len(diags) == 0 {
			// Not a per-function diagnostic (a serve-level fault or
			// panic): the error itself is the only detail there is.
			msg = "compile failed: " + err.Error()
		}
		s.answer(rq, "failed", http.StatusUnprocessableEntity, msg, diags)
	}
}

// respond shapes the success body.
func (s *Server) respond(rq *compileReq, res *driver.Compiled) {
	resp := &CompileResponse{
		Target:         rq.req.Target,
		Strategy:       rq.strategy,
		Assembly:       res.Prog.Print(),
		Stats:          res.Stats,
		RetrySeconds:   res.RetryTime.Seconds(),
		QueueMs:        rq.queueMs,
		ElapsedMs:      float64(rq.elapsed) / float64(time.Millisecond),
		BrownoutLevel:  rq.level,
		Brownout:       rq.notes,
		BreakerReroute: rq.reroute,
		RequestID:      rq.id,
		CacheHits:      res.CacheHits,
	}
	for _, d := range res.Degradations {
		resp.Degradations = append(resp.Degradations, d.String())
	}
	if res.Verify != nil {
		for _, f := range res.Verify.Findings {
			resp.VerifyFindings = append(resp.VerifyFindings, f.String())
		}
	}
	if len(res.PhaseTimes) > 0 {
		resp.PhaseSeconds = make(map[string]float64, len(res.PhaseTimes))
		for ph, d := range res.PhaseTimes {
			resp.PhaseSeconds[ph] = d.Seconds()
		}
	}
	writeJSON(rq.w, http.StatusOK, resp)
}

// compileGuarded runs one admitted compile with the server-level fault
// site and last-resort panic isolation (the pipeline already isolates
// phase panics; this guard covers the serve site and anything outside
// the pipeline's recover).
func (s *Server) compileGuarded(rq *compileReq) (res *driver.Compiled, err error) {
	defer func() {
		if r := recover(); r != nil {
			// The back end may still hold the IL: drop it, never pool it.
			res, err, rq.done = nil, &servePanicError{val: r}, nil
		}
	}()
	if !s.cfg.Faults.Empty() {
		// The serve site under its own span: a hang-mode fault parks here
		// until the deadline, and the span is what shows it.
		fsp := rq.cfg.Span.Child("serve")
		inj := faults.New(s.cfg.Faults, rq.ctx, rq.bkey, s.nextSeq(rq.bkey), 0)
		ferr := inj.Fire("serve")
		fsp.End()
		if ferr != nil {
			fsp.Attr("error", ferr.Error())
			return nil, ferr
		}
	}
	return driver.CompileModuleCtx(rq.ctx, rq.m, rq.mod, rq.cfg)
}

// cacheStatus classifies how much of a module the compilation cache
// served: "hit" (all functions), "partial", or "miss".
func cacheStatus(hits, funcs int) string {
	switch {
	case funcs > 0 && hits >= funcs:
		return "hit"
	case hits > 0:
		return "partial"
	}
	return "miss"
}

// servePanicError is a panic recovered at the serve level, wrapped so
// breakerRelevant can classify it.
type servePanicError struct{ val any }

func (e *servePanicError) Error() string {
	return fmt.Sprintf("panic while serving compile: %v", e.val)
}

// cacheOnlyMiss reports whether a compile failed purely because the
// cache-only brownout level had no entries to serve.
func cacheOnlyMiss(err error) bool {
	var diags *driver.Diagnostics
	if !errors.As(err, &diags) {
		return false
	}
	for _, d := range diags.All() {
		if !errors.Is(d.Err, driver.ErrCacheOnlyMiss) {
			return false
		}
	}
	return true
}

// answer writes a non-2xx /compile answer and records the answering
// stage's outcome. The load-shedding statuses (429/503) carry the
// computed Retry-After in both the header and the JSON body; a 504
// (deadline expired) carries the hint and the brownout level in the
// body only: the same request may well succeed once load clears. It
// returns false — "this stage did not pass the request on" — so a
// stage can end with `return s.answer(...)`.
func (s *Server) answer(rq *compileReq, outcome string, status int, msg string, diags []Diag) bool {
	rq.outcome = outcome
	resp := &ErrorResponse{Error: msg, Diagnostics: diags}
	switch status {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		secs := retryAfterSeconds(s.lim.retryAfter())
		if status != http.StatusGatewayTimeout {
			rq.w.Header().Set("Retry-After", strconv.Itoa(secs))
		}
		resp.RetryAfterSeconds, resp.BrownoutLevel = float64(secs), s.level()
	}
	writeJSON(rq.w, status, resp)
	return false
}

// retryAfterSeconds renders a Retry-After duration as whole seconds,
// rounded up, floor 1 (the header's granularity).
func retryAfterSeconds(d time.Duration) int {
	return max(1, int(math.Ceil(d.Seconds())))
}

// unitName is the request's Filename, or the wire default for its
// language: input.il for IL, input.c otherwise.
func (req *CompileRequest) unitName() string {
	switch {
	case req.Filename != "":
		return req.Filename
	case req.Lang == "il":
		return "input.il"
	}
	return "input.c"
}

// toDiags flattens a back end error into wire diagnostics.
func toDiags(err error) []Diag {
	var diags *driver.Diagnostics
	if !errors.As(err, &diags) {
		return nil
	}
	all := diags.All()
	out := make([]Diag, len(all))
	for i, d := range all {
		out[i] = Diag{Func: d.Func, Phase: d.Phase, Error: d.Err.Error()}
	}
	return out
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}
