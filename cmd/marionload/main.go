// Command marionload is a concurrent load generator for mariond.
//
// Usage:
//
//	marionload -addr 127.0.0.1:8527 -n 200 -c 16
//	marionload -addr $ADDR -n 400 -c 32 -json serve.json
//	marionload -addr $ADDR -n 300 -c 24 -deadline 30,5000 -retries 2
//
// It fires -n compile requests from -c concurrent clients, cycling
// through the sources, the targets and the strategies, and reports
// throughput, client-observed latency quantiles (p50/p99), the
// 2xx/429/other split, and the server's cache hit rate and brownout
// state (read from /statz). With -json the same numbers are written to
// a file.
//
// Requests go through internal/client, so -retries, -backoff, and
// -hedge exercise the resilient-client path: shed requests back off
// per the server's computed Retry-After, and hedged requests race a
// second attempt against tail latency. -deadline sets the per-request
// deadline; a comma list cycles a mix of deadlines across requests to
// provoke deadline-aware queue eviction.
//
// Every answer carries the server-echoed X-Marion-Request-Id; after a
// burst, -slowest N lists the IDs of the N slowest answered requests
// so they can be looked up in the server's trace ring
// (GET /tracez?id=<id>).
//
// The exit status is 0 when the burst ran, whatever the server
// answered, 1 when it could not (unreadable sources, an unwritable
// -json file), and 2 on a usage error. cmd/mariond's TestServeDrills
// is where the service's behaviour under such a burst is asserted.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"marion/internal/client"
	"marion/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// Report is the run's summary, printed and (with -json) written out.
type Report struct {
	Requests    int     `json:"requests"`
	Concurrency int     `json:"concurrency"`
	Seconds     float64 `json:"seconds"`
	Throughput  float64 `json:"throughput_rps"`

	OK    int `json:"ok"`    // 2xx
	Shed  int `json:"shed"`  // 429 as the final answer
	Other int `json:"other"` // anything else (failures)

	// TransientSheds counts 429s the client retried into an eventual
	// success — the server shed, even though no request failed for it.
	TransientSheds int `json:"transient_sheds"`

	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`

	// ShedRate is shed / requests; HitRate is the server's cache hits
	// over lookups at the end of the run (from /statz).
	ShedRate float64 `json:"shed_rate"`
	HitRate  float64 `json:"hit_rate"`

	// Client-side resilience counters.
	Retries int `json:"retries"` // backoff rounds taken across all requests
	Hedged  int `json:"hedged"`  // requests won by a hedge

	// Overload-behavior counters observed during the run.
	Degraded    int `json:"degraded"`     // 2xx answers compiled at brownout level > 0
	BrownoutMax int `json:"brownout_max"` // highest brownout level seen in any answer
	Rerouted    int `json:"rerouted"`     // answers rerouted by a circuit breaker

	// Server-side state read from /statz after the run.
	Evicted            int64 `json:"evicted"`              // doomed requests shed from the queue
	BreakersOpen       int   `json:"breakers_open"`        // breakers still open at the end
	FinalPressureLevel int   `json:"final_pressure_level"` // brownout level at the end
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("marionload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8527", "mariond address (host:port)")
	n := fs.Int("n", 100, "total requests")
	c := fs.Int("c", 8, "concurrent clients")
	jsonOut := fs.String("json", "", "write the report as JSON to this file")
	targetList := fs.String("targets", "r2000,m88000", "comma-separated targets to cycle")
	stratList := fs.String("strategies", "postpass", "comma-separated strategies to cycle")
	srcGlob := fs.String("sources", "", "glob of .c sources to cycle (default: built-in snippets)")
	deadlines := fs.String("deadline", "0",
		"per-request deadline header in ms (0 = server default); a comma list is cycled across requests")
	retries := fs.Int("retries", 0, "client retries per request on shed/unavailable answers")
	backoff := fs.Duration("backoff", 100*time.Millisecond, "base client backoff between retries")
	hedge := fs.Duration("hedge", 0, "hedge delay: race a second request after this wait (0 = off)")
	slowest := fs.Int("slowest", 5,
		"after the burst, print the request IDs of the N slowest answered requests")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	deadlineList, err := parseDeadlines(*deadlines)
	if err != nil {
		fmt.Fprintln(stderr, "marionload:", err)
		return 2
	}

	cl := client.New(client.Config{
		BaseURL:     "http://" + *addr,
		HTTPClient:  &http.Client{Timeout: 5 * time.Minute},
		MaxRetries:  *retries,
		BaseBackoff: *backoff,
		Hedge:       *hedge,
	})

	srcs, err := loadSources(*srcGlob)
	if err != nil {
		fmt.Fprintln(stderr, "marionload:", err)
		return 1
	}
	targets := splitList(*targetList)
	strats := splitList(*stratList)

	type job struct {
		req      *server.CompileRequest
		deadline time.Duration
	}
	jobs := make([]job, *n)
	for i := range jobs {
		src := srcs[i%len(srcs)]
		jobs[i] = job{
			req: &server.CompileRequest{
				Source:   src.text,
				Filename: src.name,
				Target:   targets[(i/len(srcs))%len(targets)],
				Strategy: strats[(i/len(srcs)/len(targets))%len(strats)],
			},
			deadline: deadlineList[i%len(deadlineList)],
		}
	}

	var (
		mu          sync.Mutex
		latencies   []float64
		samples     []sample // every answered request, 2xx or not
		brownoutMax int
		ok, shed    atomic.Int64
		other       atomic.Int64
		retried     atomic.Int64
		sheds       atomic.Int64
		hedged      atomic.Int64
		degraded    atomic.Int64
		rerouted    atomic.Int64
		next        atomic.Int64
	)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				t0 := time.Now()
				res, err := cl.Compile(context.Background(), jobs[i].req, jobs[i].deadline)
				lat := time.Since(t0)
				if err != nil {
					fmt.Fprintln(stderr, "marionload:", err)
					other.Add(1)
					continue
				}
				retried.Add(int64(res.Retries))
				sheds.Add(int64(res.Sheds))
				if res.Hedged {
					hedged.Add(1)
				}
				ms := float64(lat) / float64(time.Millisecond)
				mu.Lock()
				samples = append(samples, sample{ms: ms, id: res.RequestID, status: res.Status})
				mu.Unlock()
				switch {
				case res.Status >= 200 && res.Status < 300:
					ok.Add(1)
					mu.Lock()
					latencies = append(latencies, ms)
					if res.Resp != nil {
						if res.Resp.BrownoutLevel > 0 {
							degraded.Add(1)
						}
						if res.Resp.BreakerReroute != "" {
							rerouted.Add(1)
						}
						brownoutMax = max(brownoutMax, res.Resp.BrownoutLevel)
					}
					mu.Unlock()
				case res.Status == http.StatusTooManyRequests:
					shed.Add(1)
				default:
					other.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := Report{
		Requests:       *n,
		Concurrency:    *c,
		Seconds:        elapsed.Seconds(),
		OK:             int(ok.Load()),
		Shed:           int(shed.Load()),
		Other:          int(other.Load()),
		ShedRate:       float64(shed.Load()) / float64(*n),
		Retries:        int(retried.Load()),
		TransientSheds: int(sheds.Load()) - int(shed.Load()),
		Hedged:         int(hedged.Load()),
		Degraded:       int(degraded.Load()),
		BrownoutMax:    brownoutMax,
		Rerouted:       int(rerouted.Load()),
	}
	if rep.Seconds > 0 {
		rep.Throughput = float64(*n) / rep.Seconds
	}
	sort.Float64s(latencies)
	rep.P50Ms = quantile(latencies, 0.50)
	rep.P99Ms = quantile(latencies, 0.99)
	fillStatz(cl, &rep, stderr)

	fmt.Fprintf(stdout,
		"marionload: %d requests, %d clients, %.2fs (%.1f rps)\n"+
			"  2xx %d, 429 %d (+%d transient), other %d (shed rate %.2f), retries %d, hedged %d\n"+
			"  latency p50 %.1fms p99 %.1fms, server cache hit rate %.2f\n"+
			"  brownout: %d degraded answers (max level %d), %d rerouted, %d evicted, "+
			"%d breakers open, final level %d\n",
		rep.Requests, rep.Concurrency, rep.Seconds, rep.Throughput,
		rep.OK, rep.Shed, rep.TransientSheds, rep.Other, rep.ShedRate, rep.Retries, rep.Hedged,
		rep.P50Ms, rep.P99Ms, rep.HitRate,
		rep.Degraded, rep.BrownoutMax, rep.Rerouted, rep.Evicted,
		rep.BreakersOpen, rep.FinalPressureLevel)
	printSlowest(stdout, samples, *slowest)

	if *jsonOut != "" {
		b, _ := json.MarshalIndent(rep, "", "  ")
		if err := os.WriteFile(*jsonOut, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, "marionload:", err)
			return 1
		}
	}
	return 0
}

// sample is one answered request: its client-observed latency, the
// server-echoed request ID, and the final HTTP status. Unlike the
// latency quantiles (2xx only), samples cover every answer so the
// slowest listing surfaces expired and failed requests too — those
// are exactly the ones worth pulling from /tracez.
type sample struct {
	ms     float64
	id     string
	status int
}

// printSlowest lists the n slowest answered requests with their
// request IDs, the handle into the server's trace ring.
func printSlowest(stdout io.Writer, samples []sample, n int) {
	if n <= 0 || len(samples) == 0 {
		return
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].ms > samples[j].ms })
	n = min(n, len(samples))
	fmt.Fprintf(stdout, "  slowest %d (look up with GET /tracez?id=<id>):\n", n)
	for _, s := range samples[:n] {
		fmt.Fprintf(stdout, "    %8.1fms  status %d  id=%s\n", s.ms, s.status, s.id)
	}
}

// fillStatz reads the server's end-of-run state into the report.
func fillStatz(cl *client.Client, rep *Report, stderr io.Writer) {
	st, err := cl.Statz(context.Background())
	if err != nil {
		fmt.Fprintln(stderr, "marionload: statz:", err)
		return
	}
	rep.Evicted = st.Evicted
	rep.FinalPressureLevel = st.PressureLevel
	for _, state := range st.Breakers {
		if state == "open" {
			rep.BreakersOpen++
		}
	}
	if lookups := st.Cache.Hits() + st.Cache.Misses; lookups > 0 {
		rep.HitRate = float64(st.Cache.Hits()) / float64(lookups)
	}
}

// parseDeadlines builds the per-request deadline cycle from -deadline:
// one value or a comma list of milliseconds, 0 meaning the server
// default.
func parseDeadlines(list string) ([]time.Duration, error) {
	var out []time.Duration
	for _, p := range strings.Split(list, ",") {
		if p = strings.TrimSpace(p); p == "" {
			continue
		}
		ms, err := strconv.Atoi(p)
		if err != nil || ms < 0 {
			return nil, fmt.Errorf("bad -deadline entry %q", p)
		}
		out = append(out, time.Duration(ms)*time.Millisecond)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-deadline given but empty")
	}
	return out, nil
}

type source struct{ name, text string }

// loadSources reads the cycle set: a glob, or small built-in snippets
// so the tool works with no checkout around it.
func loadSources(glob string) ([]source, error) {
	if glob == "" {
		return []source{
			{"load0.c", "int f0(int a, int b) { return a * b + 7; }\n"},
			{"load1.c", "int f1(int n) { int s; int i; s = 0; for (i = 0; i < n; i = i + 1) s = s + i * i; return s; }\n"},
			{"load2.c", "double f2(double x) { return x * x - 2.0 * x + 1.0; }\n"},
		}, nil
	}
	files, err := filepath.Glob(glob)
	if err != nil || len(files) == 0 {
		return nil, fmt.Errorf("no sources match %q (%v)", glob, err)
	}
	var out []source
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		out = append(out, source{f, string(b)})
	}
	return out, nil
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		out = []string{""}
	}
	return out
}

// quantile returns the q-th quantile of sorted xs (nearest rank).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(q*float64(len(xs)-1) + 0.5)
	return xs[i]
}
