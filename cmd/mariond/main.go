// Command mariond is the Marion compile service: marionc's pipeline
// behind a long-running HTTP daemon (internal/server).
//
// Usage:
//
//	mariond -addr :8527
//	mariond -addr 127.0.0.1:0 -addrfile /tmp/mariond.addr
//	mariond -admit 8 -queue 16 -deadline 10s
//	mariond -cachedir /var/cache/marion -cachemb 256
//	mariond -targets r2000,m88000
//
// The daemon loads each target's machine description once and shares
// the finalized machines — and one content-addressed compilation
// cache — across every request. POST /compile takes C-subset or
// textual-IL source and returns assembly plus structured diagnostics
// as JSON; accepted requests produce output byte-identical to marionc.
//
// Admission control bounds concurrent compiles (-admit) and the wait
// queue (-queue); beyond both, requests are shed immediately with
// 429 and a computed Retry-After. With -slo-ms the admission limit
// adapts (AIMD) to measured compile latency, and queued requests whose
// remaining deadline falls below the service estimate are shed before
// they are doomed. Each request runs under a deadline (the
// X-Marion-Deadline-Ms header, clamped to -maxdeadline, else
// -deadline) that propagates into the scheduler and allocator loops:
// an expired request returns per-function diagnostics, never a hung
// connection.
//
// -brownout arms the hysteretic degradation ladder (verify off ->
// strategies capped -> safe only -> cache-only) under sustained
// pressure; -breaker N arms per-(target, strategy) circuit breakers
// that reroute repeatedly failing combinations down the strategy
// fallback chain, quarantining a replayable bundle under -quarantine.
// -faults (or MARION_FAULTS) arms deterministic fault injection at
// pipeline and serve sites for chaos drills.
//
// Observability: every request carries a request ID (client-supplied
// X-Marion-Request-Id or generated), is logged as one structured JSON
// access line (-accesslog), and — with -trace-ring N — leaves a full
// span tree in the in-memory trace ring served at GET /tracez, which
// preferentially retains slow and SLO-breaching requests
// (-trace-slo-ms). GET /metrics renders every instrument in the
// Prometheus text exposition format.
//
// SIGTERM or SIGINT begins a graceful drain: /readyz flips to 503 and
// new compiles are rejected, in-flight requests finish (bounded by
// -draintimeout), the cache's disk tier is flushed, and the process
// exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"marion/internal/faults"
	"marion/internal/server"
)

func main() {
	// The signal handler is installed before anything else, so a
	// SIGTERM that arrives while the daemon boots still drains it.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// openAccessLog builds the structured access logger from the -accesslog
// flag value. The returned close func is a no-op except for file
// destinations.
func openAccessLog(dest string, stdout, stderr io.Writer) (*slog.Logger, func(), error) {
	nop := func() {}
	var w io.Writer
	switch dest {
	case "off", "":
		return nil, nop, nil
	case "stderr":
		w = stderr
	case "stdout":
		w = stdout
	default:
		f, err := os.OpenFile(dest, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nop, fmt.Errorf("accesslog: %w", err)
		}
		return slog.New(slog.NewJSONHandler(f, nil)), func() { f.Close() }, nil
	}
	return slog.New(slog.NewJSONHandler(w, nil)), nop, nil
}

// run is main with its environment made explicit: it serves until ctx
// is cancelled, then drains. Exit status: 0 clean drain, 1 runtime
// failure, 2 usage error.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mariond", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8527", "listen address (port 0 picks a free port)")
	addrFile := fs.String("addrfile", "",
		"write the actual listen address to this file once serving (for scripts with -addr :0)")
	admit := fs.Int("admit", 0, "max concurrent compiles (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 0, "max requests waiting for a compile slot (0 = 2*admit)")
	deadline := fs.Duration("deadline", 30*time.Second,
		"default per-request deadline when no "+server.DeadlineHeader+" header is sent")
	maxDeadline := fs.Duration("maxdeadline", 2*time.Minute,
		"upper clamp on client-supplied deadlines")
	budget := fs.Duration("budget", 0,
		"default per-function compilation budget (0 = the request deadline alone)")
	workers := fs.Int("workers", 1, "per-request back end workers (output is identical for any value)")
	cacheMB := fs.Int64("cachemb", 64, "in-memory cache size in MiB, shared across requests")
	cacheDir := fs.String("cachedir", "", "on-disk cache directory, flushed on drain")
	targetList := fs.String("targets", "", "comma-separated targets to serve (default: all)")
	drainTimeout := fs.Duration("draintimeout", 30*time.Second,
		"how long a drain waits for in-flight requests before closing connections")
	sloMs := fs.Int64("slo-ms", 0,
		"compile latency SLO in ms driving the adaptive admission limit (0 = fixed at -admit)")
	brownout := fs.Bool("brownout", false,
		"enable the brownout degradation ladder under sustained pressure")
	breaker := fs.Int("breaker", 0,
		"consecutive failures tripping a per-(target,strategy) circuit breaker (0 = off)")
	breakerCooldown := fs.Duration("breakercooldown", time.Second,
		"how long a tripped breaker stays open before admitting a probe")
	quarantine := fs.String("quarantine", "",
		"directory receiving replayable bundles on breaker trips (replay with marionc -replay)")
	faultSpec := fs.String("faults", os.Getenv("MARION_FAULTS"),
		"fault injection spec for chaos drills (pipeline sites plus serve); default $MARION_FAULTS")
	traceRing := fs.Int("trace-ring", 256,
		"finished request traces retained for GET /tracez (0 = tracing off)")
	traceSLOMs := fs.Int64("trace-slo-ms", 0,
		"trace duration marking an SLO breach the ring preferentially keeps (0 = -slo-ms, else 1s)")
	accessLog := fs.String("accesslog", "stderr",
		"structured JSON access log destination: stderr, stdout, off, or a file path")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "usage: mariond [flags]")
		return 2
	}
	fset, err := faults.Parse(*faultSpec)
	if err != nil {
		fmt.Fprintln(stderr, "mariond:", err)
		return 2
	}
	alog, closeLog, err := openAccessLog(*accessLog, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "mariond:", err)
		return 2
	}
	defer closeLog()

	cfg := server.Config{
		MaxInflight:      *admit,
		MaxQueue:         *queue,
		DefaultDeadline:  *deadline,
		MaxDeadline:      *maxDeadline,
		Budget:           *budget,
		Workers:          *workers,
		CacheBytes:       *cacheMB << 20,
		CacheDir:         *cacheDir,
		SLO:              time.Duration(*sloMs) * time.Millisecond,
		Brownout:         *brownout,
		BreakerThreshold: *breaker,
		BreakerCooldown:  *breakerCooldown,
		QuarantineDir:    *quarantine,
		Faults:           fset,
		TraceRing:        *traceRing,
		TraceSLO:         time.Duration(*traceSLOMs) * time.Millisecond,
		AccessLog:        alog,
	}
	if *targetList != "" {
		for _, t := range strings.Split(*targetList, ",") {
			if t = strings.TrimSpace(t); t != "" {
				cfg.Targets = append(cfg.Targets, t)
			}
		}
	}
	s, err := server.New(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "mariond:", err)
		return 1
	}
	if warn := s.Warning(); warn != nil {
		fmt.Fprintln(stderr, "mariond: warning:", warn)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "mariond:", err)
		return 1
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			fmt.Fprintln(stderr, "mariond:", err)
			return 1
		}
	}

	hs := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	fmt.Fprintf(stdout, "mariond: serving %s on %s\n",
		strings.Join(s.Targets(), ","), ln.Addr())

	select {
	case err := <-errc:
		fmt.Fprintln(stderr, "mariond:", err)
		return 1
	case <-ctx.Done():
		fmt.Fprintln(stdout, "mariond: draining")
		s.BeginDrain()
		dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := hs.Shutdown(dctx); err != nil {
			fmt.Fprintln(stderr, "mariond: drain timed out:", err)
			hs.Close()
		}
		n := s.Close()
		fmt.Fprintf(stdout, "mariond: drained, flushed %d cache entries\n", n)
		return 0
	}
}
