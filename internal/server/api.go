// JSON wire types for the mariond compile service.
package server

import (
	"runtime"
	"time"

	"marion/internal/cache"
	"marion/internal/driver"
	"marion/internal/strategy"
	"marion/internal/trace"
)

// DeadlineHeader is the request header carrying the client's compile
// deadline in milliseconds. It is clamped to Config.MaxDeadline; absent
// or invalid, Config.DefaultDeadline applies.
const DeadlineHeader = "X-Marion-Deadline-Ms"

// RequestIDHeader carries the request ID. A client may supply its own
// (1..64 chars of [A-Za-z0-9._-]; anything else is replaced), the
// server generates one otherwise, and every answer — success or
// rejection — echoes the effective ID back in the same header. The ID
// names the request's trace in GET /tracez and tags its access-log
// line.
const RequestIDHeader = "X-Marion-Request-Id"

// CompileRequest is the body of POST /compile.
type CompileRequest struct {
	// Source is the program text: C subset (default) or textual IL
	// (internal/iltext), selected by Lang.
	Source string `json:"source"`
	// Lang is "c" (default) or "il".
	Lang string `json:"lang,omitempty"`
	// Filename names the translation unit in diagnostics and in the
	// emitted module header; defaults to "input.c" / "input.il".
	Filename string `json:"filename,omitempty"`
	// Target is a shipped machine description name; required.
	Target string `json:"target"`
	// Strategy is a code generation strategy name; default "postpass".
	Strategy string `json:"strategy,omitempty"`
	// Options tune the compile; zero values mean server defaults.
	Options *CompileOptions `json:"options,omitempty"`
}

// CompileOptions are the back end options that cross a wire: a client
// sets them per request and a quarantine Bundle records them for
// replay. Zero values mean "the receiver's default".
type CompileOptions struct {
	// Workers bounds the per-function back end pool (default: the
	// server's per-request worker count), capped at GOMAXPROCS. Output
	// is byte-identical for any value.
	Workers int `json:"workers,omitempty"`
	// Verify runs the machine-description-driven verifier; findings are
	// returned (they do not fail the request).
	Verify bool `json:"verify,omitempty"`
	// Strict disables the graceful-degradation ladder.
	Strict bool `json:"strict,omitempty"`
	// BudgetMs is the per-function compilation budget in milliseconds
	// (default: the server's). A request deadline still applies on top:
	// whichever expires first interrupts the function.
	BudgetMs int64 `json:"budget_ms,omitempty"`
}

// Config maps the wire options onto the back end's option struct — the
// one place the two meet, shared by the request path and by
// `marionc -replay`. base supplies everything the wire does not carry
// (cache, faults, span) plus the Workers and Budget defaults that a zero
// wire value leaves in force. A wire Workers is capped at GOMAXPROCS:
// output is the same for any count, and more workers than cores only
// buys one request more goroutines and worker arenas.
func (o CompileOptions) Config(base driver.Config) driver.Config {
	base.Verify, base.Strict = o.Verify, o.Strict
	if o.Workers > 0 {
		base.Workers = min(o.Workers, runtime.GOMAXPROCS(0))
	}
	if o.BudgetMs > 0 {
		base.Budget = time.Duration(o.BudgetMs) * time.Millisecond
	}
	return base
}

// CompileResponse is the body of a successful POST /compile.
type CompileResponse struct {
	Target   string `json:"target"`
	Strategy string `json:"strategy"`
	// Assembly is the emitted program, byte-identical to what marionc
	// prints for the same (source, target, strategy, options).
	Assembly string `json:"assembly"`
	// Stats maps function name to its back end statistics.
	Stats map[string]*strategy.Stats `json:"stats,omitempty"`
	// Degradations lists functions emitted by a fallback rung of the
	// degradation ladder (each re-verified clean before acceptance).
	Degradations []string `json:"degradations,omitempty"`
	// VerifyFindings lists verifier findings when Options.Verify was
	// set (empty means the code proved clean).
	VerifyFindings []string `json:"verify_findings,omitempty"`
	// PhaseSeconds sums back end wall time per pipeline phase across
	// the module's functions (accepted attempts only).
	PhaseSeconds map[string]float64 `json:"phase_seconds,omitempty"`
	// RetrySeconds is the wall time failed ladder rungs burned.
	RetrySeconds float64 `json:"retry_seconds,omitempty"`
	// QueueMs is how long the request waited for an admission slot.
	QueueMs float64 `json:"queue_ms"`
	// ElapsedMs is the total server-side time, admission included.
	ElapsedMs float64 `json:"elapsed_ms"`
	// BrownoutLevel is the overload-degradation level the request ran
	// under: 0 normal, 1 no-verify, 2 cheap-strategy (capped at
	// Postpass), 3 safe-only, 4 cache-only. Brownout lists what the
	// ladder changed: verify disabled, strategy capped, cache-only.
	BrownoutLevel int      `json:"brownout_level,omitempty"`
	Brownout      []string `json:"brownout,omitempty"`
	// BreakerReroute records that an open circuit breaker routed this
	// request off its requested (target, strategy), e.g.
	// "r2000/rase -> r2000/postpass".
	BreakerReroute string `json:"breaker_reroute,omitempty"`
	// RequestID is the effective request ID (also in RequestIDHeader);
	// look the request's trace up at /tracez?id=<RequestID>.
	RequestID string `json:"request_id,omitempty"`
	// CacheHits counts the module's functions served from the
	// compilation cache without compiling.
	CacheHits int `json:"cache_hits,omitempty"`
}

// Diag is one structured per-function failure.
type Diag struct {
	Func  string `json:"func"`
	Phase string `json:"phase"`
	Error string `json:"error"`
}

// ErrorResponse is the body of any non-2xx /compile answer.
type ErrorResponse struct {
	Error string `json:"error"`
	// Diagnostics carries per-function failures (compile errors, budget
	// exhaustion, deadline expiry) when the back end produced them.
	Diagnostics []Diag `json:"diagnostics,omitempty"`
	// RetryAfterSeconds mirrors the Retry-After header on 429/503
	// answers: the server's computed estimate of when a retry could be
	// admitted (queue depth x service-time estimate), never below 1.
	RetryAfterSeconds float64 `json:"retry_after_seconds,omitempty"`
	// BrownoutLevel is the degradation level at rejection time, so a
	// shed client can tell plain overflow from deep brownout.
	BrownoutLevel int `json:"brownout_level,omitempty"`
}

// Statz is the body of GET /statz: a point-in-time view of the
// daemon's load, cache and instrument state.
type Statz struct {
	UptimeSeconds float64  `json:"uptime_seconds"`
	Targets       []string `json:"targets"`
	Draining      bool     `json:"draining"`

	// Inflight counts requests holding an admission slot; Queued counts
	// requests waiting for one. Capacity and QueueLimit are the
	// admission bounds.
	Inflight   int `json:"inflight"`
	Queued     int `json:"queued"`
	Capacity   int `json:"capacity"`
	QueueLimit int `json:"queue_limit"`

	Requests int64 `json:"requests"`
	Accepted int64 `json:"accepted"`
	Shed     int64 `json:"shed"`
	Expired  int64 `json:"expired"`
	Failed   int64 `json:"failed"`

	// Limit is the adaptive concurrency limiter's current limit (equal
	// to Capacity when no SLO is configured); Pressure its 0..1 load
	// scalar; EstimateMs the EWMA compile service-time estimate.
	Limit      int     `json:"limit"`
	Pressure   float64 `json:"pressure"`
	EstimateMs float64 `json:"estimate_ms"`
	// Evicted counts requests shed as doomed, up front or from the
	// queue: the server.evicted counter /metrics shows.
	Evicted int64 `json:"evicted"`

	// PressureLevel is the current brownout level, numbered as
	// CompileResponse.BrownoutLevel.
	PressureLevel int `json:"pressure_level"`

	// Breakers maps target/strategy to circuit-breaker state ("closed",
	// "closed(n fails)", "open", "half-open"); absent keys never failed.
	Breakers      map[string]string `json:"breakers,omitempty"`
	BreakerTrips  int64             `json:"breaker_trips,omitempty"`
	BreakerResets int64             `json:"breaker_resets,omitempty"`

	Cache cache.Stats `json:"cache"`

	// Latency reports server-side latency quantiles per histogram
	// (milliseconds), e.g. Latency["server.compile.seconds"]["p99"].
	Latency map[string]map[string]float64 `json:"latency_ms,omitempty"`

	// TraceCount and TraceCapacity describe the /tracez ring (absent
	// when tracing is disabled).
	TraceCount    int `json:"trace_count,omitempty"`
	TraceCapacity int `json:"trace_capacity,omitempty"`
}

// tracez is the body of GET /tracez (without ?id): the ring's shape
// plus a summary of every retained trace, newest first. GET
// /tracez?id=<request id> returns the one trace.Trace instead.
type tracez struct {
	Capacity int             `json:"capacity"`
	SLOMs    float64         `json:"slo_ms"`
	Traces   []trace.Summary `json:"traces"`
}
