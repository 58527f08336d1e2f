package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"marion/bench/corpus"
	"marion/internal/server"
)

// clientCount is the closed loop's size: one keep-alive connection per
// core but one, at most four. The daemon compiles one request per
// connection, each on one core (-workers 1); the core left over takes
// the generator and the daemon's collector, so nothing that is timed
// waits for a core. With a connection for every core, two compiles, the
// collector and the generator shared two cores, and the latencies
// measured the scheduler.
func clientCount() int {
	return max(1, min(runtime.NumCPU()-1, 4))
}

// daemon is one running mariond.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	boot    time.Duration
	stopped bool
	rss     *rssMeter // when set, every pass of a loop ends with a lap
}

// startDaemon execs mariond on an ephemeral loopback port and waits for
// the first 200 from /readyz; boot is the time from exec to that answer.
// The daemon's output goes nowhere: with the default access log on,
// that is one JSON line per request, formatted and written to a
// descriptor nobody reads — the cost a default deployment pays, without
// a pipe reader stealing cycles from the measurement.
func (h *harness) startDaemon(extra ...string) (*daemon, error) {
	if h.mariond == "" {
		return nil, fmt.Errorf("no mariond binary: pass -mariond (bench/run.sh builds one)")
	}
	if err := os.MkdirAll(h.outDir, 0o755); err != nil {
		return nil, err
	}
	addrFile := filepath.Join(h.outDir, fmt.Sprintf("addr.%d", os.Getpid()))
	_ = os.Remove(addrFile) // a stale file from a killed run would be read as this daemon's address
	args := append([]string{
		"-addr", "127.0.0.1:0", "-addrfile", addrFile,
		"-admit", fmt.Sprint(clientCount()), "-workers", "1",
	}, extra...)
	cmd := exec.Command(h.mariond, args...)
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd}
	deadline := start.Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if d.base == "" {
			if raw, err := os.ReadFile(addrFile); err == nil && len(raw) > 0 {
				d.base = "http://" + strings.TrimSpace(string(raw))
			}
		}
		if d.base != "" {
			resp, err := http.Get(d.base + "/readyz")
			if err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					d.boot = time.Since(start)
					_ = os.Remove(addrFile)
					return d, nil
				}
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	d.stop()
	return nil, fmt.Errorf("mariond %v did not answer /readyz within 20s", args)
}

// stop drains the daemon (SIGTERM) and waits for it to exit; a daemon
// that ignores the drain is killed.
func (d *daemon) stop() {
	if d.stopped {
		return
	}
	d.stopped = true
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = d.cmd.Wait() // exit status is irrelevant once the numbers are in
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
	}
}

// served is what the harness keeps of one /compile answer.
type served struct {
	status    int
	body      server.CompileResponse
	reqBytes  int
	respBytes int
}

// newHTTPClient returns a plain keep-alive client: no retries, no
// hedging, so a 429 is a failure and every op is exactly one request.
func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: clientCount(), MaxIdleConns: clientCount()},
	}
}

// requestBody is the /compile body of one op. verify is on in every
// request: on the miss path the cache's admission check would run the
// verifier anyway (the phase's report is reused), on the hit path it
// costs nothing, and the answer then carries the findings to check.
func requestBody(o op, src string) ([]byte, error) {
	cfg := corpus.Configs[o.cfg]
	return json.Marshal(&server.CompileRequest{
		Source: src, Lang: o.unit.Lang, Filename: o.unit.Name,
		Target: cfg.Target, Strategy: cfg.Strategy,
		Options: &server.CompileOptions{Verify: true},
	})
}

// post sends one op and returns the answer with the client-observed
// latency: request written to last body byte read. JSON encoding before
// and decoding after sit outside the timer.
func (d *daemon) post(c *http.Client, body []byte) (*served, time.Duration, error) {
	start := time.Now()
	resp, err := c.Post(d.base+"/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	s := &served{status: resp.StatusCode, reqBytes: len(body), respBytes: len(raw)}
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &s.body); err != nil {
			return nil, 0, err
		}
	}
	return s, lat, nil
}

// getJSON fetches one of the daemon's JSON endpoints.
func (d *daemon) getJSON(path string, v interface{}) error {
	resp, err := http.Get(d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// heap reads the daemon's cumulative allocation counters from the
// memstats block expvar publishes at /debug/vars.
func (d *daemon) heap() (bytes, objects uint64, err error) {
	var vars struct {
		Memstats struct {
			TotalAlloc uint64
			Mallocs    uint64
		} `json:"memstats"`
	}
	if err := d.getJSON("/debug/vars", &vars); err != nil {
		return 0, 0, err
	}
	return vars.Memstats.TotalAlloc, vars.Memstats.Mallocs, nil
}

// servedOK is the per-answer correctness rule shared by both service
// workloads: 200, full fidelity (no brownout, no reroute, no degraded
// function), a clean verifier report, as many cache hits as the
// workload predicts and, when same is given, the assembly it accepts.
func (h *harness) servedOK(o op, s *served, wantHits int, same func(text string) bool) bool {
	b := &s.body
	ok := s.status == http.StatusOK && b.BrownoutLevel == 0 && b.BreakerReroute == "" &&
		len(b.Degradations) == 0 && len(b.VerifyFindings) == 0 && b.CacheHits == wantHits
	sameText := !ok || same == nil || same(b.Assembly)
	return h.check(ok && sameText,
		"%s %v: status %d, brownout %d, reroute %q, %d degradations, %d verifier findings, %d cache hits (want %d), expected assembly %v",
		o.unit.Name, corpus.Configs[o.cfg], s.status, b.BrownoutLevel, b.BreakerReroute,
		len(b.Degradations), len(b.VerifyFindings), b.CacheHits, wantHits, sameText)
}

// serveLoop drives the daemon with the closed loop. pass0 pins the
// source of every pass to the unperturbed corpus (the warm workload and
// the fill); otherwise pass p of the loop sends pass firstPass+p, each
// one fresh literals. expect decides what a correct answer looks like.
func (h *harness) serveLoop(d *daemon, maxPasses int, until time.Duration, passOf func(loopPass int) int,
	expect func(o op, idx int, s *served) bool) []sample {
	var passEnd func()
	if d.rss != nil {
		passEnd = d.rss.lap
	}
	n := len(h.order)
	client := newHTTPClient()
	defer client.CloseIdleConnections()
	return closedLoop(clientCount(), n, maxPasses, until, func(i int) sample {
		o := h.order[i%n]
		body, err := requestBody(o, h.source(o, passOf(i/n)))
		if err != nil {
			h.check(false, "%s: encode request: %v", o.unit.Name, err)
			return sample{}
		}
		s, lat, err := d.post(client, body)
		if !h.check(err == nil, "%s %v: %v", o.unit.Name, corpus.Configs[o.cfg], err) {
			return sample{}
		}
		return sample{lat: lat, funcs: o.unit.Funcs, ok: expect(o, i%n, s), resp: s}
	}, passEnd)
}

// bootMedian boots and drains the daemon `rounds` times and returns the
// median exec-to-ready time in seconds: the service's set-up cost.
func (h *harness) bootMedian(rounds int, extra ...string) (float64, error) {
	var boots []float64
	for r := 0; r < rounds; r++ {
		d, err := h.startDaemon(extra...)
		if err != nil {
			return 0, err
		}
		boots = append(boots, d.boot.Seconds())
		d.stop()
	}
	return median(boots), nil
}

// coldCacheMiB sizes serve_cold's cache. An entry of this corpus is
// about 1 KiB and the reference box stores some 1600 a second, so 4 MiB
// fills within the first seconds and the LRU evicts for the rest of the
// window, while pass 0 (1152 functions) still fits for the prime check.
const coldCacheMiB = 4

// daemonFlags are the workload's mariond flags beyond admission: the
// cold workload shrinks the cache so the LRU's eviction path runs.
func (h *harness) daemonFlags() []string {
	if h.name == "serve_cold" {
		return []string{"-cachemb", fmt.Sprint(coldCacheMiB)}
	}
	return nil
}

// primeService brings a fresh daemon to the workload's starting state
// and checks the served path against the library on the way:
//
//   - pass 0 is sent cold: every answer must have zero hits and match
//     the library's reference compile (library path == served path);
//   - pass 0 is sent again: every function must hit and the bytes must
//     be exactly those of the first answer (a cold answer == its later
//     cache hit), which become h.served.
//
// For serve_warm that leaves the cache holding exactly the corpus the
// timed loop repeats. For serve_cold it is the warm-up; the timed loop
// starts at pass 1 and never sees pass 0 again.
func (h *harness) primeService(d *daemon) {
	pass0 := func(int) int { return 0 }
	h.served = make([][32]byte, len(h.order))
	h.serveLoop(d, 1, 0, pass0, func(o op, idx int, s *served) bool {
		h.served[idx] = shaOf(s.body.Assembly)
		return h.servedOK(o, s, 0, func(text string) bool { return h.ref[idx].matches(o, text) })
	})
	h.serveLoop(d, 1, 0, pass0, h.expectHit)
}

// expectHit is the rule for a repeat of pass 0: all hits, same bytes.
func (h *harness) expectHit(o op, idx int, s *served) bool {
	return h.servedOK(o, s, o.unit.Funcs, func(text string) bool { return shaOf(text) == h.served[idx] })
}

// timedService runs the workload's timed closed loop.
func (h *harness) timedService(d *daemon, length time.Duration) []sample {
	passes, until := h.window(length)
	if h.name == "serve_warm" {
		return h.serveLoop(d, passes, until, func(int) int { return 0 }, h.expectHit)
	}
	first := max(h.nextPass, 1)
	samples := h.serveLoop(d, passes, until, func(p int) int { return first + p }, func(o op, idx int, s *served) bool {
		return h.servedOK(o, s, 0, nil)
	})
	// The loop may have begun one pass beyond the last one it kept.
	h.nextPass = first + samples[len(samples)-1].i/len(h.order) + 2
	return samples
}

// runServe is a service workload's untraced run: the end-to-end metrics.
func (h *harness) runServe() error {
	setup, err := h.bootMedian(h.rounds(15), h.daemonFlags()...)
	if err != nil {
		return err
	}
	h.led.set("setup_s", setup)

	h.gateAndReference(true)

	d, err := h.startDaemon(h.daemonFlags()...)
	if err != nil {
		return err
	}
	defer d.stop()
	h.primeService(d)

	var before, after server.Statz
	if err := d.getJSON("/statz", &before); err != nil {
		return err
	}
	bytes0, objs0, err := d.heap()
	if err != nil {
		return err
	}
	d.rss = &rssMeter{pid: d.cmd.Process.Pid}
	d.rss.restart() // keep the boot and the prime out of the first pass's peak
	samples := h.timedService(d, h.seconds)
	bytes1, objs1, err := d.heap()
	if err != nil {
		return err
	}
	if err := d.getJSON("/statz", &after); err != nil {
		return err
	}
	st := summarize(samples, len(h.order), clientCount())
	h.checkCacheWindow(before, after, st.wall)
	return h.reportTimed(st, bytes1-bytes0, objs1-objs0, d.rss)
}

// checkCacheWindow applies the run-wide cache and admission conditions
// to the /statz deltas over a timed window: the cold workload must have
// exercised eviction (unless the window was a smoke test's, too short
// to fill the cache), the warm one must not have, and neither may have
// been shed.
func (h *harness) checkCacheWindow(before, after server.Statz, window time.Duration) {
	evictions := after.Cache.Evictions - before.Cache.Evictions
	if h.name == "serve_cold" {
		h.gate(evictions > 0 || window < 4*time.Second,
			"serve_cold: no cache evictions in a %.1fs window; the cache never filled", window.Seconds())
	} else {
		h.gate(evictions == 0, "serve_warm: %d cache evictions in the timed window; the working set does not fit", evictions)
	}
	h.gate(after.Shed == before.Shed && after.Expired == before.Expired,
		"%s: admission shed %d and expired %d requests; the harness is mis-sized",
		h.name, after.Shed-before.Shed, after.Expired-before.Expired)
}
