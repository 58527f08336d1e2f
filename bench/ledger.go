package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"marion/bench/corpus"
	"marion/internal/asm"
	"marion/internal/cache"
	"marion/internal/cc"
	"marion/internal/cdag"
	"marion/internal/driver"
	"marion/internal/ilgen"
	"marion/internal/iltext"
	"marion/internal/ir"
	"marion/internal/livermore"
	"marion/internal/mach"
	"marion/internal/metrics"
	"marion/internal/regalloc"
	"marion/internal/sched"
	"marion/internal/sel"
	"marion/internal/server"
	"marion/internal/strategy"
	"marion/internal/targets"
	"marion/internal/trace"
	"marion/internal/verify"
	"marion/internal/xform"
)

// The traced run times the calls into each package's public functions
// from the benchmark's own code: one root span per op, one child span
// per layer call, work counts as attributes. The layer calls are leaves
// of the span tree (no layer's span contains another's), so a layer's
// busy time is the sum of its spans. Spans inside the program are a
// later change.

// path is which way a function travels through the back end, and so
// which layers make up the whole.
type path int

const (
	pathCold  path = iota // no cache: clone, xform, select, strategy
	pathStore             // miss: fingerprint, lookup, the cold path, verify, encode, store
	pathHit               // hit: fingerprint, lookup, decode
)

// layerAcc is one layer's accumulated busy time and heap deltas.
type layerAcc struct {
	Calls   int    `json:"calls"`
	BusyNs  int64  `json:"busy_ns"`
	Bytes   uint64 `json:"bytes"`
	Objects uint64 `json:"objects"`
}

// perCall is the layer's mean busy time per call, in ns.
func (a *layerAcc) perCall() float64 { return ratio(float64(a.BusyNs), float64(a.Calls)) }

// timed runs f, adding its wall time and its heap deltas (read outside
// the timer) to the accumulator.
func (a *layerAcc) timed(mem bool, f func()) {
	var b0, o0 uint64
	if mem {
		b0, o0 = heapAllocs()
	}
	start := time.Now()
	f()
	a.BusyNs += int64(time.Since(start))
	if mem {
		b1, o1 := heapAllocs()
		a.Bytes += b1 - b0
		a.Objects += o1 - o0
	}
	a.Calls++
}

// tracer records the traced run.
type tracer struct {
	h      *harness
	path   path
	layers map[string]*layerAcc
	traces []*trace.Trace // the first maxTraces ops, written out at exit

	// stepCache serves the step-through, driverCache the whole-driver
	// call; on the hit path they are one filled cache, on the miss path
	// two that are replaced every pass so nothing ever hits.
	stepCache, driverCache *cache.Cache

	ops, funcs, ilFuncs    int   // stepped through
	srcBytes, irNodes      int64 // srcBytes: C source only, what cc read
	selTried, selInsts     int64
	schedPasses, rounds    int64
	asmBytes, entryBytes   int64
	driverNs               int64
	driverCfgNs, cfgFuncs  []int64
	stepWall               time.Duration
	probe                  probeAcc
	ilPrintNs, ilParseNs   int64 // the iltext probes, over ilProbeFns functions
	ilProbeFns             int64
	handlerNs, handlerReqs int64
}

// maxTraces bounds the span trees kept for the trace file; the layer
// totals cover every op regardless.
const maxTraces = 48

func (t *tracer) acc(layer string) *layerAcc {
	a := t.layers[layer]
	if a == nil {
		a = &layerAcc{}
		t.layers[layer] = a
	}
	return a
}

// call times one call into a layer under a child span.
func (t *tracer) call(parent *trace.Span, layer string, mem bool, f func()) {
	sp := parent.Child(layer)
	t.acc(layer).timed(mem, f)
	sp.End()
}

// lowerOp runs the op's front end, each layer call through the given
// hook, and lays out the globals the way driver.CompileModuleCtx does
// before it starts the pipeline (that loop is not exported; it is ten
// lines, and the digest check at the end of every stepped op proves the
// copy faithful).
func lowerOp(o op, src string, call func(layer string, f func())) (*ir.Module, []*ir.Sym, error) {
	var mod *ir.Module
	var err error
	if o.unit.Lang == "il" {
		call("iltext.parse", func() { mod, err = iltext.Parse(o.unit.Name, src) })
	} else {
		var file *cc.File
		call("cc", func() { file, err = cc.Compile(o.unit.Name, src) })
		if err == nil {
			call("ilgen", func() { mod, err = ilgen.Lower(file) })
		}
	}
	if err != nil {
		return nil, nil, err
	}
	var globals []*ir.Sym
	addr := driver.DataBase
	for _, g := range mod.Globals {
		if g.Kind == ir.SymFunc {
			continue
		}
		if addr%8 != 0 {
			addr += 8 - addr%8
		}
		g.Offset = addr
		size := g.Size
		if size == 0 {
			size = 8
		}
		addr += size
		globals = append(globals, g)
	}
	return mod, globals, nil
}

// untimed is lowerOp's hook for a lowering nobody measures.
func untimed(_ string, f func()) { f() }

// countNodes is the size of a function's IL: distinct expression nodes.
func countNodes(fn *ir.Func) int64 {
	seen := map[*ir.Node]bool{}
	var walk func(n *ir.Node)
	walk = func(n *ir.Node) {
		if n == nil || seen[n] {
			return
		}
		seen[n] = true
		for _, k := range n.Kids {
			walk(k)
		}
	}
	for _, b := range fn.Blocks {
		for _, s := range b.Stmts {
			walk(s)
		}
	}
	return int64(len(seen))
}

func countInsts(af *asm.Func) int64 {
	n := 0
	for _, b := range af.Blocks {
		n += len(b.Insts)
	}
	return int64(n)
}

// stepOp replays one op layer by layer and checks that the stepped
// result is byte-identical to the reference compile. It then times the
// same input through the whole driver.CompileModuleCtx, the figure the
// layer sum must reconcile with.
func (t *tracer) stepOp(idx int, o op, src string) {
	h := t.h
	cfg := corpus.Configs[o.cfg]
	m, kind := h.gens[o.cfg].Machine, h.gens[o.cfg].Strategy
	keyMach, keyCfg := m.Fingerprint(), cache.ConfigKey(kind, strategy.Options{}, false)

	root := trace.New(fmt.Sprintf("%s-%d", h.name, t.ops), "op")
	root.Attr("unit", o.unit.Name)
	root.Attr("target", cfg.Target)
	root.Attr("strategy", cfg.Strategy)
	defer func() {
		if tr := root.Finish("ok", 0); len(t.traces) < maxTraces {
			t.traces = append(t.traces, tr)
		}
	}()

	mod, globals, err := lowerOp(o, src, func(layer string, f func()) { t.call(root, layer, false, f) })
	if !h.check(err == nil, "traced %s %v: front end: %v", o.unit.Name, cfg, err) {
		return
	}
	t.ops++
	if o.unit.Lang == "il" {
		t.ilFuncs += len(mod.Funcs)
	} else {
		t.srcBytes += int64(len(src))
	}
	prog := &asm.Program{Machine: m, Name: mod.Name, Globals: globals}
	for _, fn := range mod.Funcs {
		t.funcs++
		t.irNodes += countNodes(fn)
		fsp := root.Child("fn:" + fn.Name)
		var key cache.Key
		t.call(fsp, "ir.fingerprint", false, func() { key = cache.FuncKey(fn.Fingerprint(), keyMach, keyCfg) })
		var af *asm.Func
		if t.path == pathHit {
			af = t.hit(fsp, key, m, fn)
		} else {
			af = t.compile(fsp, key, m, kind, fn)
		}
		fsp.End()
		if af == nil {
			h.check(false, "traced %s %v: function %s did not come out of the back end", o.unit.Name, cfg, fn.Name)
			return
		}
		prog.Funcs = append(prog.Funcs, af)
	}
	var text string
	t.call(root, "asm", false, func() { text = prog.Print() })
	t.asmBytes += int64(len(text))
	root.AttrInt("functions", int64(len(mod.Funcs)))
	h.check(h.ref[idx].matches(o, text), "traced %s %v: stepped assembly differs from the reference compile", o.unit.Name, cfg)

	if t.path != pathHit {
		t.rehit(o, src, m, keyMach, keyCfg, shaOf(text))
	}
	t.whole(idx, o, src, m, kind)
}

// compile is the miss path of one function. The cache codec and the
// verifier run on every path: where they are not on the workload's own
// path (see path) they are probes outside the layer sum.
func (t *tracer) compile(sp *trace.Span, key cache.Key, m *mach.Machine, kind strategy.Kind, fn *ir.Func) *asm.Func {
	if t.path == pathStore {
		t.call(sp, "cache.get", false, func() { t.stepCache.Get(key) })
	}
	// The pipeline clones the IL before the primary attempt so a retry
	// down the degradation ladder can start from a pristine copy.
	t.call(sp, "ir.clone", false, func() { _ = fn.Clone() })
	t.call(sp, "xform", true, func() { xform.Apply(m, fn) })
	var af *asm.Func
	var ctr sel.Counters
	var err error
	t.call(sp, "sel", true, func() { af, ctr, err = sel.SelectOpts(m, fn, sel.Options{}) })
	if err != nil {
		return nil
	}
	t.selTried += ctr.Tried
	t.selInsts += countInsts(af)
	var st *strategy.Stats
	t.call(sp, "strategy", true, func() {
		st, err = strategy.Apply(m, af, kind, strategy.Options{Deadline: context.Background()})
	})
	if err != nil {
		return nil
	}
	t.schedPasses += int64(st.SchedulePasses)
	t.rounds += int64(st.AllocRounds)
	var rep *verify.Report
	t.call(sp, "verify", false, func() { rep = verify.Func(m, af, verify.Options{}) })
	if !rep.Empty() {
		return nil
	}
	var payload []byte
	t.call(sp, "cache.encode", false, func() { payload, err = cache.Encode(m, fn, af, st, ctr) })
	if err != nil {
		return nil
	}
	t.entryBytes += int64(len(payload))
	t.call(sp, "cache.put", false, func() { t.stepCache.Put(key, payload) })
	return af
}

// hit is the hit path of one function.
func (t *tracer) hit(sp *trace.Span, key cache.Key, m *mach.Machine, fn *ir.Func) *asm.Func {
	var payload []byte
	var ok bool
	t.call(sp, "cache.get", false, func() { payload, ok = t.stepCache.Get(key) })
	if !ok {
		return nil
	}
	if t.path == pathHit {
		t.entryBytes += int64(len(payload))
	}
	var ent *cache.Entry
	var err error
	t.call(sp, "cache.decode", false, func() { ent, err = cache.Decode(payload, m, fn) })
	if err != nil {
		return nil
	}
	return ent.Func
}

// rehit lowers the op's source again, as a later request would, and
// serves every function from the entries the step-through just stored:
// the lookup and decode probes of the miss-path workloads, and the
// check that a cold answer and its later hit are the same bytes.
func (t *tracer) rehit(o op, src string, m *mach.Machine, keyMach, keyCfg, cold [32]byte) {
	mod, globals, err := lowerOp(o, src, untimed)
	if err != nil {
		return // stepOp has already reported the same failure
	}
	prog := &asm.Program{Machine: m, Name: mod.Name, Globals: globals}
	for _, fn := range mod.Funcs {
		af := t.hit(nil, cache.FuncKey(fn.Fingerprint(), keyMach, keyCfg), m, fn)
		if af == nil {
			t.h.check(false, "traced %s: the stored entry of %s does not come back", o.unit.Name, fn.Name)
			return
		}
		prog.Funcs = append(prog.Funcs, af)
	}
	t.h.check(shaOf(prog.Print()) == cold,
		"traced %s: a cache hit prints different bytes than the cold compile", o.unit.Name)
}

// whole times driver.CompileModuleCtx on a fresh lowering of the op.
func (t *tracer) whole(idx int, o op, src string, m *mach.Machine, kind strategy.Kind) {
	mod, _, err := lowerOp(o, src, untimed)
	if err != nil {
		return
	}
	dcfg := driver.Config{Strategy: kind, Workers: 1}
	if t.path != pathCold {
		dcfg.Cache, dcfg.Verify = t.driverCache, true
	}
	start := time.Now()
	comp, err := driver.CompileModuleCtx(context.Background(), m, mod, dcfg)
	d := int64(time.Since(start))
	if !t.h.check(err == nil, "traced %s: driver: %v", o.unit.Name, err) {
		return
	}
	wantHits := 0
	if t.path == pathHit {
		wantHits = len(mod.Funcs)
	}
	t.h.check(comp.CacheHits == wantHits && t.h.ref[idx].matches(o, comp.Prog.Print()),
		"traced %s: driver run has %d hits (want %d) or differs from the reference compile", o.unit.Name, comp.CacheHits, wantHits)
	t.driverNs += d
	t.driverCfgNs[o.cfg] += d
	t.cfgFuncs[o.cfg] += int64(len(mod.Funcs))
}

// probeAcc holds the stand-alone probes of what strategy.Apply hides.
type probeAcc struct {
	funcs, blocks, insts int64
	edges, cycles        int64
	rounds, spills       int64
	blockInsts           []float64
	cdag, sched, alloc   layerAcc
}

// probeOp selects each function of the op afresh and calls the code-DAG
// builder and the list scheduler on every block, then the register
// allocator on the function. None of it is part of the layer sum: the
// same work already sits inside strategy's span. The allocator sees the
// function without the parameter-binding moves strategy.Apply inserts
// first (that step is not exported): a few instructions per function.
func (t *tracer) probeOp(o op, src string) {
	m := t.h.gens[o.cfg].Machine
	mod, _, err := lowerOp(o, src, untimed)
	if err != nil {
		return
	}
	p := &t.probe
	for _, fn := range mod.Funcs {
		xform.Apply(m, fn)
		af, err := sel.Select(m, fn)
		if err != nil {
			continue
		}
		p.funcs++
		for _, b := range af.Blocks {
			var g *cdag.Graph
			p.cdag.timed(true, func() { g = cdag.Build(m, b, cdag.Options{}) })
			var res sched.Result
			p.sched.timed(true, func() { res, err = sched.Run(m, af, b, g, sched.Options{}) })
			if err != nil {
				continue
			}
			p.blocks++
			p.insts += int64(len(b.Insts))
			p.blockInsts = append(p.blockInsts, float64(len(b.Insts)))
			p.cycles += int64(res.Cost)
			for _, n := range g.Nodes {
				p.edges += int64(len(n.Succs))
			}
		}
		var res *regalloc.Result
		p.alloc.timed(true, func() { res, err = regalloc.Allocate(m, af) })
		if err == nil {
			p.rounds += int64(res.Rounds)
			p.spills += int64(res.Spills)
		}
	}
}

// newProbeCache returns an empty in-process cache. Its registry is
// private so the probes never touch process-wide counters.
func newProbeCache() *cache.Cache {
	// No disk tier is configured, so New has nothing to warn about.
	c, _ := cache.New(cache.Options{MaxBytes: 256 << 20, Registry: metrics.NewRegistry()})
	return c
}

// runTraced is the traced run of any workload: the per-layer metrics.
func (h *harness) runTraced() error {
	t := &tracer{h: h, layers: map[string]*layerAcc{},
		driverCfgNs: make([]int64, len(corpus.Configs)), cfgFuncs: make([]int64, len(corpus.Configs))}
	switch h.name {
	case "serve_cold":
		t.path = pathStore
	case "serve_warm":
		t.path = pathHit
	}

	parse, err := parseTargets(h.rounds(60))
	if err != nil {
		return err
	}
	h.led.set("maril.parse_ms_per_target", parse*1000/float64(len(corpus.Targets())))

	h.gateAndReference(false)
	sources := make([]string, len(h.order))
	for i, o := range h.order {
		sources[i] = h.source(o, 0)
	}

	// The untraced figure the traced one is compared with and, for the
	// service workloads, everything that needs the daemon.
	var untraced float64
	if h.service() {
		if untraced, err = h.tracedService(t); err != nil {
			return err
		}
	} else {
		h.coldLoop(sources, 1, 0, nil)
		passes, until := h.window(h.seconds / 4)
		untraced = summarize(h.coldLoop(sources, passes, until, nil), len(h.order), 1).wallFnPerS
	}

	if t.path == pathHit {
		// One cache, filled with the corpus the hit path will find.
		t.stepCache = newProbeCache()
		t.driverCache = t.stepCache
		for i, o := range h.order {
			mod, _, err := lowerOp(o, sources[i], untimed)
			if err != nil {
				return err
			}
			if _, err := driver.CompileModuleCtx(context.Background(), h.gens[o.cfg].Machine, mod,
				driver.Config{Strategy: h.gens[o.cfg].Strategy, Workers: 1, Verify: true, Cache: t.stepCache}); err != nil {
				return err
			}
		}
	}

	// Step through whole passes for two fifths of the run length; the
	// service workloads, which have spent three fifths on the daemon by
	// now, for one fifth.
	budget := h.seconds * 2 / 5
	if h.service() {
		budget = h.seconds / 5
	}
	start := time.Now()
	for passes := 0; passes == 0 || (!h.tiny && time.Since(start) < budget); passes++ {
		if t.path != pathHit {
			t.stepCache, t.driverCache = newProbeCache(), newProbeCache()
		}
		for i, o := range h.order {
			t.stepOp(i, o, sources[i])
		}
	}
	t.stepWall = time.Since(start)

	if t.path != pathHit {
		for i, o := range h.order {
			t.probeOp(o, sources[i])
		}
	}
	t.ilProbes(sources)
	if !h.service() {
		speedup, err := workersSpeedup()
		if err != nil {
			return err
		}
		h.led.set("pipeline.workers_speedup", speedup)
	}
	t.report(untraced)
	return t.writeTraceFile()
}

// ilProbes times iltext.Print and iltext.Parse over the corpus, one
// unit at a time (the configuration does not matter to either).
func (t *tracer) ilProbes(sources []string) {
	seen := map[*corpus.Unit]bool{}
	for i, o := range t.h.order {
		if seen[o.unit] {
			continue
		}
		seen[o.unit] = true
		mod, _, err := lowerOp(o, sources[i], untimed)
		if err != nil {
			continue
		}
		start := time.Now()
		text := iltext.Print(mod)
		t.ilPrintNs += int64(time.Since(start))
		start = time.Now()
		_, err = iltext.Parse(o.unit.Name, text)
		t.ilParseNs += int64(time.Since(start))
		t.ilProbeFns += int64(len(mod.Funcs))
		t.h.check(err == nil, "iltext probe %s: printed module does not parse: %v", o.unit.Name, err)
	}
}

// workersSpeedup is the per-function worker pool's gain on the
// 28-function Livermore module: median wall time at one worker over
// median wall time at one worker per core.
func workersSpeedup() (float64, error) {
	m, err := targets.Load("r2000")
	if err != nil {
		return 0, err
	}
	one, err := suiteWall(m, 1)
	if err != nil {
		return 0, err
	}
	all, err := suiteWall(m, runtime.NumCPU())
	if err != nil {
		return 0, err
	}
	return ratio(one, all), nil
}

func suiteWall(m *mach.Machine, workers int) (float64, error) {
	var xs []float64
	for r := 0; r < 5; r++ {
		mod, err := livermore.SuiteModule()
		if err != nil {
			return 0, err
		}
		start := time.Now()
		if _, err := driver.CompileModule(m, mod, driver.Config{Strategy: strategy.Postpass, Workers: workers}); err != nil {
			return 0, err
		}
		xs = append(xs, time.Since(start).Seconds())
	}
	return median(xs), nil
}

// tracedService is the daemon half of a service workload's traced run.
// It returns the untraced throughput.
func (h *harness) tracedService(t *tracer) (float64, error) {
	d, err := h.startDaemon(h.daemonFlags()...)
	if err != nil {
		return 0, err
	}
	defer d.stop()
	h.primeService(d)
	base := summarize(h.timedService(d, h.seconds/5), len(h.order), clientCount())
	untraced := base.wallFnPerS

	// The replay: the same loop, keeping what each answer says about
	// where the server spent its time, with /statz on both sides.
	var before, after server.Statz
	if err := d.getJSON("/statz", &before); err != nil {
		return 0, err
	}
	samples := h.timedService(d, h.seconds/5)
	if err := d.getJSON("/statz", &after); err != nil {
		return 0, err
	}
	d.stop()
	replay := summarize(samples, len(h.order), clientCount())
	h.checkCacheWindow(before, after, replay.wall)

	var elapsed, overhead, share, reqKB, respKB []float64
	for _, s := range samples {
		if !s.ok {
			continue
		}
		b := &s.resp.body
		sum := 0.0
		for _, sec := range b.PhaseSeconds {
			sum += sec
		}
		elapsed = append(elapsed, b.ElapsedMs)
		overhead = append(overhead, ms(s.lat)-b.ElapsedMs)
		share = append(share, ratio(sum*1000, b.ElapsedMs))
		reqKB = append(reqKB, float64(s.resp.reqBytes)/1024)
		respKB = append(respKB, float64(s.resp.respBytes)/1024)
		if len(t.traces) < maxTraces {
			root := trace.New(b.RequestID, "op")
			root.Attr("unit", h.order[s.i%len(h.order)].unit.Name)
			root.AttrInt("cache_hits", int64(b.CacheHits))
			root.AttrInt("client_us", s.lat.Microseconds())
			root.AttrInt("server_elapsed_us", int64(b.ElapsedMs*1000))
			t.traces = append(t.traces, root.Finish("ok", s.resp.status))
		}
	}
	h.led.set("server.elapsed_ms_p50", quantile(elapsed, 0.50))
	h.led.set("server.elapsed_ms_p99", quantile(elapsed, 0.99))
	h.led.set("server.http_overhead_ms_p50", quantile(overhead, 0.50))
	h.led.set("server.phase_share", median(share))
	h.led.set("server.req_kb", median(reqKB))
	h.led.set("server.resp_kb", median(respKB))
	hits := float64(after.Cache.Hits() - before.Cache.Hits())
	misses := float64(after.Cache.Misses - before.Cache.Misses)
	h.led.set("cache.hit_ratio", ratio(hits, hits+misses))
	h.led.set("cache.stores", float64(after.Cache.Stores-before.Cache.Stores))
	h.led.set("cache.evictions", float64(after.Cache.Evictions-before.Cache.Evictions))
	h.led.set("overload.shed", float64(after.Shed-before.Shed))
	// The queue wait comes from the daemon's own histogram (over its
	// whole life): the answer's queue_ms field is whole milliseconds
	// measured to the end of the compile.
	h.led.set("overload.queue_ms_p99", after.Latency["server.queue.seconds"]["p99"])
	h.led.set("bench.trace_overhead_ratio", ratio(replay.wallFnPerS, untraced))

	// The cost of the daemon's own tracing and access log: the same
	// load against a daemon with both off.
	quiet, err := h.startDaemon(append(h.daemonFlags(), "-trace-ring", "0", "-accesslog", "off")...)
	if err != nil {
		return 0, err
	}
	defer quiet.stop()
	h.primeService(quiet)
	off := summarize(h.timedService(quiet, h.seconds/5), len(h.order), clientCount())
	quiet.stop()
	h.led.set("trace.overhead_ratio", ratio(off.fnPerS, base.fnPerS))

	return untraced, h.handlerProbe(t)
}

// handlerProbe sends one pass of the workload's requests through the
// server's handler with a recorder in place of a socket: the request
// path without the network. The server is configured as mariond's
// defaults would (trace ring on, an access log that goes nowhere).
func (h *harness) handlerProbe(t *tracer) error {
	cfg := server.Config{
		MaxInflight: clientCount(), Workers: 1, Registry: metrics.NewRegistry(),
		TraceRing: 256, AccessLog: slog.New(slog.NewJSONHandler(io.Discard, nil)),
	}
	if h.name == "serve_cold" {
		cfg.CacheBytes = coldCacheMiB << 20
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	defer srv.Close()
	handler := srv.Handler()
	pass := func(timed bool) error {
		for _, o := range h.order {
			body, err := requestBody(o, h.source(o, 0))
			if err != nil {
				return err
			}
			rec := httptest.NewRecorder()
			start := time.Now()
			handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/compile", bytes.NewReader(body)))
			if timed {
				t.handlerNs += int64(time.Since(start))
				t.handlerReqs++
			}
			h.check(rec.Code == http.StatusOK, "handler probe %s: status %d", o.unit.Name, rec.Code)
		}
		return nil
	}
	if h.name == "serve_warm" {
		if err := pass(false); err != nil { // fill
			return err
		}
	}
	return pass(true)
}

// report turns the accumulators into the declared per-layer metrics.
func (t *tracer) report(untraced float64) {
	h, fns := t.h, float64(t.funcs)
	perFn := func(metric, layer string) float64 {
		v := ratio(float64(t.acc(layer).BusyNs), fns)
		h.led.set(metric, v)
		return v
	}
	heap := func(prefix string, a *layerAcc, n float64) {
		h.led.set(prefix+".allocs_per_fn", ratio(float64(a.Objects), n))
		h.led.set(prefix+".kb_per_fn", ratio(float64(a.Bytes)/1024, n))
	}
	cFns := fns - float64(t.ilFuncs) // functions that came through the C front end
	h.led.set("cc.ns_per_fn", ratio(float64(t.acc("cc").BusyNs), cFns))
	h.led.set("cc.src_mb_per_s", ratio(float64(t.srcBytes)/1e6, float64(t.acc("cc").BusyNs)/1e9))
	h.led.set("ilgen.ns_per_fn", ratio(float64(t.acc("ilgen").BusyNs), cFns))
	h.led.set("ilgen.ir_nodes_per_fn", ratio(float64(t.irNodes), fns))
	fingerprint := perFn("ir.fingerprint_ns_per_fn", "ir.fingerprint")
	clone := perFn("ir.clone_ns_per_fn", "ir.clone")
	xf := perFn("xform.ns_per_fn", "xform")
	heap("xform", t.acc("xform"), fns)
	se := perFn("sel.ns_per_fn", "sel")
	heap("sel", t.acc("sel"), fns)
	h.led.set("sel.templates_tried_per_fn", ratio(float64(t.selTried), fns))
	h.led.set("sel.insts_per_fn", ratio(float64(t.selInsts), fns))
	strat := perFn("strategy.ns_per_fn", "strategy")
	heap("strategy", t.acc("strategy"), fns)
	h.led.set("strategy.sched_passes_per_fn", ratio(float64(t.schedPasses), fns))
	h.led.set("strategy.alloc_rounds_per_fn", ratio(float64(t.rounds), fns))
	ver := perFn("verify.ns_per_fn", "verify")
	perFn("asm.print_ns_per_fn", "asm")
	h.led.set("asm.bytes_per_fn", ratio(float64(t.asmBytes), fns))

	// The cache layers are per call: one function per call.
	get, put := t.acc("cache.get").perCall(), t.acc("cache.put").perCall()
	enc, dec := t.acc("cache.encode").perCall(), t.acc("cache.decode").perCall()
	h.led.set("cache.get_ns", get)
	h.led.set("cache.put_ns", put)
	h.led.set("cache.encode_ns_per_fn", enc)
	h.led.set("cache.decode_ns_per_fn", dec)
	h.led.set("cache.entry_kb_per_fn", ratio(float64(t.entryBytes)/1024, fns))

	// The whole and its reconciliation: the sum holds exactly the layers
	// on this workload's path through the back end (see path).
	whole := ratio(float64(t.driverNs), fns)
	var sum float64
	switch t.path {
	case pathCold:
		sum = clone + xf + se + strat
	case pathStore:
		sum = fingerprint + get + clone + xf + se + strat + ver + enc + put
	case pathHit:
		sum = fingerprint + get + dec
	}
	h.led.set("driver.ns_per_fn", whole)
	h.led.set("pipeline.overhead_ns_per_fn", whole-sum)
	h.led.set("driver.reconcile_ratio", ratio(sum, whole))
	for c, cfg := range corpus.Configs {
		h.led.set(fmt.Sprintf("driver.%s.%s.ns_per_fn", cfg.Target, cfg.Strategy),
			ratio(float64(t.driverCfgNs[c]), float64(t.cfgFuncs[c])))
	}

	p := &t.probe
	pf, pb, pi := float64(p.funcs), float64(p.blocks), float64(p.insts)
	h.led.set("regalloc.ns_per_fn", ratio(float64(p.alloc.BusyNs), pf))
	heap("regalloc", &p.alloc, pf)
	h.led.set("regalloc.rounds_per_fn", ratio(float64(p.rounds), pf))
	h.led.set("regalloc.spills_per_fn", ratio(float64(p.spills), pf))
	h.led.set("cdag.ns_per_inst", ratio(float64(p.cdag.BusyNs), pi))
	h.led.set("cdag.edges_per_inst", ratio(float64(p.edges), pi))
	h.led.set("cdag.allocs_per_block", ratio(float64(p.cdag.Objects), pb))
	h.led.set("sched.ns_per_inst", ratio(float64(p.sched.BusyNs), pi))
	h.led.set("sched.allocs_per_block", ratio(float64(p.sched.Objects), pb))
	h.led.set("sched.cycles_per_block", ratio(float64(p.cycles), pb))
	h.led.set("sched.insts_per_block_p99", quantile(p.blockInsts, 0.99))

	h.led.set("iltext.print_ns_per_fn", ratio(float64(t.ilPrintNs), float64(t.ilProbeFns)))
	if t.ilFuncs > 0 {
		// The IL units' parse is on the path: report what the ops paid.
		h.led.set("iltext.parse_ns_per_fn", ratio(float64(t.acc("iltext.parse").BusyNs), float64(t.ilFuncs)))
	} else {
		h.led.set("iltext.parse_ns_per_fn", ratio(float64(t.ilParseNs), float64(t.ilProbeFns)))
	}
	h.led.set("server.handler_ns_per_req", ratio(float64(t.handlerNs), float64(t.handlerReqs)))
	if !h.service() {
		h.led.set("bench.trace_overhead_ratio", ratio(ratio(fns, t.stepWall.Seconds()), untraced))
	}
}

// writeTraceFile writes the spans kept in memory, with the layer
// totals, to bench/out/<workload>.trace.json.
func (t *tracer) writeTraceFile() error {
	data, err := json.MarshalIndent(struct {
		Workload string               `json:"workload"`
		Seed     int64                `json:"seed"`
		Ops      int                  `json:"ops_stepped"`
		Funcs    int                  `json:"functions_stepped"`
		Layers   map[string]*layerAcc `json:"layers"`
		Traces   []*trace.Trace       `json:"traces"`
	}{t.h.name, t.h.seed, t.ops, t.funcs, t.layers, t.traces}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(t.h.outDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(t.h.outDir, t.h.name+".trace.json"), data, 0o644)
}
