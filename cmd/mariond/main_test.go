package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"marion/internal/client"
	"marion/internal/driver"
	"marion/internal/gentest"
	"marion/internal/server"
	"marion/internal/strategy"
	"marion/internal/trace"
)

// TestServeDrills boots the real daemon in-process — flag parsing,
// addrfile, http.Server, drain — and drives it over TCP through
// internal/client. Every subtest ends the way a SIGTERM does: the
// context run watches is cancelled, and the daemon must exit 0 with a
// drained line. Where a drill needs the service saturated, it parks
// admission slots on an armed serve:hang and frees them by cancelling
// those requests, so what the drill sees never depends on how fast a
// compile is.
func TestServeDrills(t *testing.T) {
	t.Run("load", drillLoad)
	t.Run("overload", drillOverload)
	t.Run("trace", drillTrace)
	t.Run("drain-at-boot", func(t *testing.T) {
		// Cancelling the moment the address is published must still
		// drain: the signal context exists before the daemon serves.
		d := startDaemon(t)
		d.drain(t)
	})
}

// drillLoad: a 2-slot, 2-deep daemon under 24 clients splits a burst
// into 2xx and 429 only, answers a repeated key with the same bytes, and
// serves every example exactly as the library compiles it.
func drillLoad(t *testing.T) {
	d := startDaemon(t, "-admit", "2", "-queue", "2", "-accesslog", "off",
		"-faults", "serve:hang@fn=m88000/ips@max=2")
	release := d.park(t, &server.CompileRequest{Source: snippets[0], Target: "m88000", Strategy: "ips"}, 2)

	reqs := make([]*server.CompileRequest, 120)
	for i := range reqs {
		reqs[i] = snippetReq(i)
	}
	// Both slots are parked, so the first wave can queue two requests
	// and sheds the rest; the first 429 frees the slots.
	var once sync.Once
	res := d.burst(t, reqs, 24, func() { once.Do(release) })
	once.Do(release)

	var ok, shed int
	first := map[string]string{} // request key -> first 2xx assembly
	for i, r := range res {
		switch r.Status {
		case http.StatusOK:
			ok++
			key := reqKey(reqs[i])
			if prev, seen := first[key]; !seen {
				first[key] = r.Resp.Assembly
			} else if prev != r.Resp.Assembly {
				t.Errorf("%s answered with different assembly on a repeat", key)
			}
		case http.StatusTooManyRequests:
			shed++
		default:
			t.Errorf("request %d (%s): status %d, want 2xx or 429", i, reqKey(reqs[i]), r.Status)
		}
	}
	if shed == 0 || ok == 0 {
		t.Errorf("burst split %d 2xx / %d 429, want both", ok, shed)
	}
	d.requireLibraryOutput(t)
	d.drain(t)
	requireDiskTier(t, d)
}

// drillOverload: a breaker trips on injected failures, reroutes and
// leaves a bundle that replays; a burst against a parked slot sheds and
// engages brownout; the ladder recovers to level 0 and output is the
// library's again.
func drillOverload(t *testing.T) {
	quarantine := filepath.Join(t.TempDir(), "quarantine")
	d := startDaemon(t, "-admit", "1", "-queue", "4", "-accesslog", "off",
		"-brownout", "-breaker", "3", "-breakercooldown", "1m", "-quarantine", quarantine,
		"-faults", "serve:err@fn=r2000/rase@max=4;serve:hang@fn=m88000/rase@max=1")

	// Breaker: the first three r2000/rase requests fail and trip it;
	// every later one is rerouted down the fallback chain.
	ex := exampleSources()[0]
	rase := &server.CompileRequest{Source: ex.src, Filename: ex.name, Target: "r2000", Strategy: "rase"}
	for i := 0; i < 8; i++ {
		r := d.compile(t, rase)
		switch failed := i < 3; {
		case failed && (r.Status < 400 || r.Status == http.StatusTooManyRequests):
			t.Errorf("r2000/rase request %d: status %d, want the injected failure", i, r.Status)
		case !failed && (r.Status != http.StatusOK || r.Resp.BreakerReroute == ""):
			t.Errorf("r2000/rase request %d: status %d, want 200 rerouted by the open breaker", i, r.Status)
		}
	}
	bundles, _ := filepath.Glob(filepath.Join(quarantine, "*", "config.json"))
	if len(bundles) != 1 {
		t.Fatalf("breaker trip left %d quarantine bundles, want 1", len(bundles))
	}
	// The bundle replays: its IL under its options compiles to what the
	// library makes of the request's source.
	dir := filepath.Dir(bundles[0])
	b, il, err := server.LoadBundle(dir)
	if err != nil {
		t.Fatal(err)
	}
	kind, err := strategy.ParseKind(b.Strategy)
	if err != nil {
		t.Fatal(err)
	}
	got, err := driver.Compile(b.Target, "il", filepath.Join(dir, server.ILFile), il,
		b.Options.Config(driver.Config{Strategy: kind}))
	if err != nil {
		t.Fatalf("replaying %s: %v", dir, err)
	}
	if want := libraryAsm(t, "r2000", strategy.RASE, ex.name, ex.src); got.Prog.Print() != want {
		t.Errorf("bundle %s replays to different assembly than its source compiles to", dir)
	}

	// Warm the burst's keys, so a request admitted at the cache-only
	// level is still answered.
	reqs := make([]*server.CompileRequest, 24)
	for i := range reqs {
		reqs[i] = snippetReq(i)
	}
	for _, r := range reqs[:2*len(snippets)] {
		if res := d.compile(t, r); res.Status != http.StatusOK {
			t.Fatalf("warming %s: status %d", reqKey(r), res.Status)
		}
	}

	// Burst: with the only slot parked, four requests queue and twenty
	// are shed. Pressure stays at 1 until the ladder has climbed; then
	// the slot is freed and the queued four are admitted under brownout.
	release := d.park(t, &server.CompileRequest{Source: snippets[0], Target: "m88000", Strategy: "rase"}, 1)
	done := make(chan []*client.Result, 1)
	go func() { done <- d.burst(t, reqs, len(reqs), nil) }()
	d.waitStatz(t, "four queued and brownout engaged", func(st *server.Statz) bool {
		return st.Queued == 4 && st.PressureLevel > 0
	})
	release()
	var shed, degraded int
	for i, r := range <-done {
		switch {
		case r.Status == http.StatusTooManyRequests:
			shed++
		case r.Status == http.StatusOK:
			if r.Resp.BrownoutLevel > 0 {
				degraded++
			}
		default:
			t.Errorf("burst request %d (%s): status %d, want 2xx or 429", i, reqKey(reqs[i]), r.Status)
		}
	}
	if shed == 0 || degraded == 0 {
		t.Errorf("burst: %d shed, %d answered under brownout; want both > 0", shed, degraded)
	}

	d.waitStatz(t, "recovery to pressure level 0", func(st *server.Statz) bool {
		return st.PressureLevel == 0
	})
	// Each eviction is counted once, so /statz and /metrics agree.
	var st server.Statz
	if err := json.Unmarshal(d.get(t, "/statz"), &st); err != nil {
		t.Fatal(err)
	}
	if m := d.get(t, "/metrics"); !bytes.Contains(m, fmt.Appendf(nil, "\nmarion_server_evicted %d\n", st.Evicted)) {
		t.Errorf("/statz evicted = %d, but /metrics shows\n%s", st.Evicted, m)
	}
	d.requireLibraryOutput(t)
	d.drain(t)
	requireDiskTier(t, d)
}

// drillTrace: a request held past its deadline by an armed hang is
// kept by the trace ring with a full span tree, is logged exactly once
// in a well-formed access log, and /metrics stays parseable; tracing
// and logging never change the bytes served.
func drillTrace(t *testing.T) {
	accessLog := filepath.Join(t.TempDir(), "access.log")
	d := startDaemon(t, "-admit", "2", "-queue", "8",
		"-trace-ring", "64", "-trace-slo-ms", "100", "-accesslog", accessLog,
		"-faults", "serve:hang@fn=r2000/postpass@max=1")

	hung, err := d.cl.Compile(context.Background(), snippetReq(0), 400*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if hung.Status != http.StatusGatewayTimeout || hung.RequestID == "" {
		t.Fatalf("hung request: status %d, id %q; want 504 with an ID", hung.Status, hung.RequestID)
	}
	reqs := make([]*server.CompileRequest, 40)
	for i := range reqs {
		reqs[i] = snippetReq(i)
	}
	for i, r := range d.burst(t, reqs, 8, nil) {
		if r.Status != http.StatusOK {
			t.Errorf("burst request %d (%s): status %d, want 200", i, reqKey(reqs[i]), r.Status)
		}
	}

	// /metrics is Prometheus text exposition with the request counter.
	body := d.get(t, "/metrics")
	if _, err := gentest.ParsePrometheusText(bytes.NewReader(body)); err != nil {
		t.Errorf("/metrics is not Prometheus text: %v", err)
	}
	if !bytes.Contains(body, []byte("marion_server_requests")) {
		t.Errorf("/metrics lacks marion_server_requests")
	}

	// /tracez keeps the hung request as a breaching, expired trace whose
	// spans account for its wall time.
	var tz struct{ Traces []trace.Summary }
	if err := json.Unmarshal(d.get(t, "/tracez"), &tz); err != nil {
		t.Fatal(err)
	}
	var kept *trace.Summary
	for i := range tz.Traces {
		if tz.Traces[i].ID == hung.RequestID {
			kept = &tz.Traces[i]
		}
	}
	if kept == nil || !kept.Breach || kept.Outcome != "expired" {
		t.Fatalf("/tracez: hung request %s retained as %+v, want a breaching expired trace", hung.RequestID, kept)
	}
	var tr trace.Trace
	if err := json.Unmarshal(d.get(t, "/tracez?id="+hung.RequestID), &tr); err != nil {
		t.Fatal(err)
	}
	spans := map[string]bool{}
	for _, sp := range tr.Spans {
		spans[sp.Name] = true
	}
	if !spans["admission"] || !spans["compile"] {
		t.Errorf("trace %s lacks an admission or compile span: %v", tr.ID, spans)
	}
	if cov := tr.Coverage(); cov < 0.95 {
		t.Errorf("trace %s: spans cover %.0f%% of its wall time, want >= 95%%", tr.ID, cov*100)
	}

	// Observability never touches output: the traced daemon and one with
	// tracing and logging off both serve the library's bytes.
	d.requireLibraryOutput(t)
	plain := startDaemon(t, "-trace-ring", "0", "-accesslog", "off")
	plain.requireLibraryOutput(t)
	plain.drain(t)
	d.drain(t)
	requireDiskTier(t, d)

	// After the drain every handler has logged: each line is a JSON
	// access record, and the hung request's ID is on exactly one.
	requireAccessLog(t, accessLog, hung.RequestID)
}

// daemon is one in-process run of mariond.
type daemon struct {
	base     string
	httpc    *http.Client
	cl       *client.Client
	cacheDir string
	cancel   context.CancelFunc
	exit     chan int
	drained  bool
	stdout   lockedBuffer
	stderr   lockedBuffer
}

// startDaemon runs mariond on an ephemeral loopback port with its
// address file and disk cache in a temporary directory, and returns once
// the address is published. The daemon is drained at cleanup if the
// test has not drained it.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")
	ctx, cancel := context.WithCancel(context.Background())
	d := &daemon{cacheDir: filepath.Join(dir, "cache"), cancel: cancel, exit: make(chan int, 1)}
	args = append([]string{
		"-addr", "127.0.0.1:0", "-addrfile", addrFile, "-cachedir", d.cacheDir,
		"-targets", "r2000,m88000",
	}, args...)
	go func() { d.exit <- run(ctx, args, &d.stdout, &d.stderr) }()
	t.Cleanup(func() { d.drain(t) })

	deadline := time.Now().Add(30 * time.Second)
	for {
		// The file is complete once its trailing newline is there.
		if raw, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(raw, []byte("\n")) {
			d.base = "http://" + strings.TrimSpace(string(raw))
			break
		}
		select {
		case code := <-d.exit:
			d.drained = true
			t.Fatalf("mariond %v exited %d before serving:\n%s", args, code, d.stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("mariond %v wrote no address within 30s", args)
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.httpc = &http.Client{Timeout: time.Minute, Transport: &http.Transport{}}
	d.cl = client.New(client.Config{BaseURL: d.base, HTTPClient: d.httpc})
	return d
}

// drain cancels the daemon's context, as SIGTERM does, and requires a
// clean exit with a drained line.
func (d *daemon) drain(t *testing.T) {
	t.Helper()
	if d.drained {
		return
	}
	d.drained = true
	// A connection the transport dialed but never used counts as active
	// to http.Server.Shutdown for its first five seconds; hang up the
	// way an exiting client process would.
	if d.httpc != nil {
		d.httpc.CloseIdleConnections()
	}
	d.cancel()
	var code int
	select {
	case code = <-d.exit:
	case <-time.After(time.Minute):
		t.Fatal("mariond did not exit within a minute of the drain")
	}
	if code != 0 || !strings.Contains(d.stdout.String(), "drained") {
		t.Errorf("drain: exit %d\nstdout:\n%s\nstderr:\n%s", code, d.stdout.String(), d.stderr.String())
	}
}

// requireDiskTier requires the drained daemon to have flushed cache
// entries to its disk tier.
func requireDiskTier(t *testing.T, d *daemon) {
	t.Helper()
	if entries, _ := filepath.Glob(filepath.Join(d.cacheDir, "*.mce")); len(entries) == 0 {
		t.Errorf("disk cache tier %s is empty after the drain", d.cacheDir)
	}
}

// compile sends one request with the server's default deadline.
func (d *daemon) compile(t *testing.T, req *server.CompileRequest) *client.Result {
	t.Helper()
	res, err := d.cl.Compile(context.Background(), req, 0)
	if err != nil {
		t.Fatalf("%s: %v", reqKey(req), err)
	}
	return res
}

// burst sends reqs from c concurrent clients and returns the results in
// request order. onShed, when set, runs on every 429.
func (d *daemon) burst(t *testing.T, reqs []*server.CompileRequest, c int, onShed func()) []*client.Result {
	out := make([]*client.Result, len(reqs))
	var wg sync.WaitGroup
	next := make(chan int, len(reqs))
	for i := range reqs {
		next <- i
	}
	close(next)
	for w := 0; w < c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				res, err := d.cl.Compile(context.Background(), reqs[i], 0)
				if err != nil {
					t.Errorf("%s: %v", reqKey(reqs[i]), err)
					res = &client.Result{}
				}
				if res.Status == http.StatusTooManyRequests && onShed != nil {
					onShed()
				}
				out[i] = res
			}
		}()
	}
	wg.Wait()
	return out
}

// park sends n copies of req, whose key an armed serve:hang holds in
// the compile stage, and returns once all n occupy admission slots.
// release cancels them, which frees the slots; it also runs at cleanup,
// before the daemon's drain, so a failed drill does not hold the drain.
func (d *daemon) park(t *testing.T, req *server.CompileRequest, n int) (release func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if res, err := d.cl.Compile(ctx, req, 0); err == nil {
				t.Errorf("parked %s answered %d before its release", reqKey(req), res.Status)
			}
		}()
	}
	release = func() {
		cancel()
		wg.Wait()
	}
	t.Cleanup(release)
	d.waitStatz(t, fmt.Sprintf("%d parked requests", n), func(st *server.Statz) bool { return st.Inflight == n })
	return release
}

// waitStatz polls /statz until cond holds, failing after 30s.
func (d *daemon) waitStatz(t *testing.T, what string, cond func(*server.Statz) bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := d.cl.Statz(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if cond(st) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("waiting for %s: last /statz %+v", what, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// get fetches a monitoring endpoint, requiring 200.
func (d *daemon) get(t *testing.T, path string) []byte {
	t.Helper()
	resp, err := d.httpc.Get(d.base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, %v\n%s", path, resp.StatusCode, err, body)
	}
	return body
}

// requireLibraryOutput requires the served r2000/postpass assembly of
// every example to equal driver.Compile's, which is what marionc prints.
func (d *daemon) requireLibraryOutput(t *testing.T) {
	t.Helper()
	for _, ex := range exampleSources() {
		res := d.compile(t, &server.CompileRequest{Source: ex.src, Filename: ex.name, Target: "r2000"})
		if res.Status != http.StatusOK {
			t.Errorf("%s: status %d", ex.name, res.Status)
		} else if res.Resp.Assembly != libraryAsm(t, "r2000", strategy.Postpass, ex.name, ex.src) {
			t.Errorf("%s: served assembly differs from driver.Compile", ex.name)
		}
	}
}

// libraryAsm compiles src the way marionc does.
func libraryAsm(t *testing.T, target string, kind strategy.Kind, name, src string) string {
	t.Helper()
	res, err := driver.Compile(target, "c", name, src, driver.Config{Strategy: kind})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res.Prog.Print()
}

type example struct{ name, src string }

// exampleSources returns the examples/c units of gentest.Golden.
func exampleSources() []example {
	var out []example
	for _, u := range gentest.Golden() {
		if u.Name != gentest.BigBlock && u.Name != gentest.Pressure {
			out = append(out, example{u.Name, u.Text})
		}
	}
	return out
}

// snippets are the burst sources; snippetReq(i) cycles them over r2000
// and m88000 under postpass, as marionload's defaults do.
var snippets = []string{
	"int f0(int a, int b) { return a * b + 7; }\n",
	"int f1(int n) { int s; int i; s = 0; for (i = 0; i < n; i = i + 1) s = s + i * i; return s; }\n",
	"double f2(double x) { return x * x - 2.0 * x + 1.0; }\n",
}

func snippetReq(i int) *server.CompileRequest {
	return &server.CompileRequest{
		Source:   snippets[i%len(snippets)],
		Filename: fmt.Sprintf("load%d.c", i%len(snippets)),
		Target:   []string{"r2000", "m88000"}[(i/len(snippets))%2],
		Strategy: "postpass",
	}
}

func reqKey(r *server.CompileRequest) string {
	return r.Filename + "|" + r.Target + "|" + r.Strategy
}

// requireAccessLog checks the access log line by line: JSON, an
// "access" record with the six request keys, and wantID on exactly one
// line.
func requireAccessLog(t *testing.T, path, wantID string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines, hits := 0, 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		lines++
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("access log line %d is not JSON: %v\n%s", lines, err, sc.Bytes())
		}
		if rec["msg"] != "access" {
			t.Errorf("access log line %d: msg %v, want access", lines, rec["msg"])
		}
		for _, k := range []string{"id", "status", "latency_ms", "outcome", "target", "strategy"} {
			if _, ok := rec[k]; !ok {
				t.Errorf("access log line %d lacks %q", lines, k)
			}
		}
		if rec["id"] == wantID {
			hits++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 || hits != 1 {
		t.Errorf("access log: %d lines, request %s on %d of them; want it on exactly one", lines, wantID, hits)
	}
}

// lockedBuffer is a bytes.Buffer the daemon's goroutines can share.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
