package driver

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"marion/internal/asm"
	"marion/internal/cache"
	"marion/internal/faults"
	"marion/internal/ir"
	"marion/internal/mach"
	"marion/internal/metrics"
	"marion/internal/sel"
	"marion/internal/strategy"
	"marion/internal/trace"
	"marion/internal/verify"
	"marion/internal/xform"
)

// funcCtx carries one function through the back end. Phases read their
// inputs from it and write their outputs back into it. The runner's
// funcCtx is its claim loop's arena's, reset for every attempt and zeroed
// when the loop returns: a phase must not keep it past its own return.
type funcCtx struct {
	Machine *mach.Machine
	// IR is the lowered function entering the back end.
	IR *ir.Func
	// Func is the selected (then scheduled and allocated) target
	// function; the select phase sets it.
	Func *asm.Func

	// Cfg is the run's Config specialised to this attempt: Strategy is
	// the ladder rung being tried, Options carries the attempt's deadline
	// (Options.Deadline, the context phases poll during long
	// computations) and fault injector, and Span is the attempt's trace
	// span (nil when tracing is off; phases may annotate it).
	Cfg Config

	// Attempt is 0 for the primary compilation and counts up the
	// degradation ladder's retries.
	Attempt int
	// Undo logs every write the glue transform makes into IR. It is the
	// worker's; the ladder replays it when the attempt fails — also when
	// the xform phase panicked part-way, which is why the phase logs
	// through funcCtx.
	Undo *xform.Log
	// Nodes is where the glue transform builds the nodes it splices into
	// IR: output, like IR itself, shared by the functions the claim loop
	// compiles in this Run and by none after it.
	Nodes *ir.Slab

	// Stats is the per-function statistics sink, filled by the strategy
	// phase.
	Stats *strategy.Stats
	// Sel counts the selection phase's pattern-matching work.
	Sel sel.Counters
	// Verify is the emitted-code verifier's report, filled by the
	// verify phase when enabled (findings are data, not phase errors:
	// callers decide whether they are fatal).
	Verify *verify.Report
	// Timings records per-phase wall time, appended by the runner.
	Timings []phaseTiming

	// arena is the scratch the standard phases work in: the claim loop's,
	// set by tryOne, the only place a funcCtx is built.
	arena *arena
}

// phaseTiming is one phase's wall time for one function, tagged with
// the degradation-ladder attempt that ran the phase.
// A function's result carries the timings of every attempt, including
// failed rungs; CompileModuleCtx attributes to Compiled.PhaseTimes only
// the accepted attempt's (result.Fallback tells which) and the rest to
// Compiled.RetryTime. The synthetic phases "cache" (a hit served instead
// of compiling) and "cachestore" (admission verify + encode) appear only
// when a cache is configured.
type phaseTiming struct {
	Phase string
	Time  time.Duration
	// Attempt is the ladder rung index that ran this phase (0 = the
	// configured strategy, matching funcCtx.Attempt).
	Attempt int
}

// phase is one named back end step with the uniform signature, and the
// histogram its wall time goes to (nil for a phase a test builds, whose
// time goes nowhere).
type phase struct {
	Name string
	Run  func(*funcCtx) error
	hist *metrics.Histogram
}

// backend is the ordered list of phases the runner applies to each
// function.
type backend []phase

// standard is the back end CompileModuleCtx runs, built once per
// process.
var standard = newBackend()

// newBackend returns the paper's back end: glue transform, instruction
// selection, code generation strategy (scheduling + register allocation
// + prologue/epilogue), then the verifier when Config.Verify is set,
// each phase with its histogram. Each call returns a list of its own,
// so a test may wrap a phase.
func newBackend() backend {
	b := backend{
		{Name: "xform", Run: func(c *funcCtx) error {
			c.Undo.Apply(c.Machine, c.IR, c.Nodes)
			return nil
		}},
		{Name: "select", Run: func(c *funcCtx) error {
			af, counters, err := c.arena.sel.SelectOpts(c.Machine, c.IR, sel.Options{})
			c.Sel = counters
			if err != nil {
				return err
			}
			c.Func = af
			return nil
		}},
		{Name: "strategy", Run: func(c *funcCtx) error {
			st, err := c.arena.strategy.Apply(c.Machine, c.Func, c.Cfg.Strategy, c.Cfg.Options)
			if err != nil {
				return err
			}
			c.Stats = st
			return nil
		}},
		{Name: "verify", Run: func(c *funcCtx) error {
			if !c.Cfg.Verify || c.Func == nil {
				return nil
			}
			c.Verify = verifyFunc(&c.arena.verify, c.Machine, c.Func, &c.Cfg)
			return nil
		}},
	}
	for i := range b {
		b[i].hist = phaseHist(b[i].Name)
	}
	return b
}

// verifyFunc checks emitted code against the machine description under
// the hazard rule cfg scheduled it with.
func verifyFunc(vs *verify.Scratch, m *mach.Machine, af *asm.Func, cfg *Config) *verify.Report {
	return vs.Func(m, af, verify.Options{IssueOnly: cfg.Options.CurrentCycleOnly})
}

// Degradation records that a function was emitted by a fallback rung of
// the degradation ladder rather than the configured strategy.
type Degradation struct {
	Func string
	// From is the configured strategy; To is the rung that succeeded.
	From, To strategy.Kind
	// Attempts counts compilations tried, including the successful one.
	Attempts int
	// Phase and Reason describe the primary attempt's failure.
	Phase  string
	Reason string
}

func (d *Degradation) String() string {
	return fmt.Sprintf("%s: degraded %s -> %s after %d attempt(s): %s: %s",
		d.Func, d.From, d.To, d.Attempts, d.Phase, d.Reason)
}

// result is one function's compiled output.
type result struct {
	IR      *ir.Func
	Func    *asm.Func
	Stats   *strategy.Stats
	Sel     sel.Counters
	Verify  *verify.Report
	Timings []phaseTiming
	// Strategy is the rung that produced Func (the configured strategy
	// unless the function was degraded).
	Strategy strategy.Kind
	// Fallback is non-nil when a degradation-ladder rung produced the
	// output; its result was re-checked by internal/verify before being
	// accepted.
	Fallback *Degradation
	// CacheHit marks a result served from the compilation cache without
	// running any phase.
	CacheHit bool
}

// run compiles every function through the phases with a bounded worker
// pool, each claim loop borrowing its worker from pool. Results are
// returned indexed by source order regardless of completion order; a
// function that failed (or was cancelled) has a nil entry, with its
// error recorded in the returned Diagnostics.
func (b backend) run(ctx context.Context, m *mach.Machine, funcs []*ir.Func, cfg Config, pool pool) ([]*result, *Diagnostics) {
	if ctx == nil {
		ctx = context.Background()
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(funcs) {
		workers = len(funcs)
	}

	results := make([]*result, len(funcs))
	diags := &Diagnostics{}
	if len(funcs) == 0 {
		return results, diags
	}

	// The machine and config components of the cache key are shared by
	// every function in the run; compute them once. Faults armed at a
	// pipeline site and a machine with no fingerprint disable the cache
	// (see Config.Cache).
	var keys *keyParts
	if cfg.Cache != nil && !cfg.Faults.ArmsPipeline() && m.Fingerprint() != ([32]byte{}) {
		keys = &keyParts{
			mach: m.Fingerprint(),
			cfg:  cache.ConfigKey(cfg.Strategy, cfg.Options, false),
		}
	}

	// Longest function first (LPT, the list scheduler's max-distance rule
	// applied to the worker pool): the function that bounds the wall time
	// never starts last. results[i] keeps source order whatever ran when.
	order := make([]int, len(funcs))
	size := make([]int, len(funcs))
	for i, fn := range funcs {
		order[i], size[i] = i, fn.NodeCount()
	}
	slices.SortStableFunc(order, func(a, b int) int { return size[b] - size[a] })

	// One loop claims indices from one cursor; the caller runs it beside
	// workers-1 spawned goroutines, so a single worker is the caller alone.
	// Each loop borrows its worker from the pool for as long as it runs
	// and detaches it before giving it back.
	var cursor atomic.Int64
	claim := func(w *worker) {
		for {
			k := int(cursor.Add(1)) - 1
			if k >= len(order) {
				return
			}
			i := order[k]
			// A cancelled context starts no new function: every index
			// still unclaimed gets its diagnostic instead.
			if err := ctx.Err(); err != nil {
				diags.Add(i, funcs[i].Name, "pipeline", err)
				continue
			}
			results[i] = b.runOne(ctx, m, i, funcs[i], cfg, keys, w, diags)
		}
	}
	work := func() {
		w, _ := pool.Get().(*worker)
		if w == nil {
			w = new(worker)
		}
		claim(w)
		w.detach()
		pool.Put(w)
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return results, diags
}

// ErrCacheOnlyMiss is the diagnostic error recorded for every function
// a CacheOnly run cannot serve from the cache. Callers distinguish it
// (errors.Is) from real compile failures: the function is fine, the
// server just declined to spend a compile on it right now.
var ErrCacheOnlyMiss = errors.New("cache-only mode: not in cache")

// workers is the pool every claim loop borrows its worker from. A
// worker waits here detached (worker.detach), so an idle one pins no
// compile; it is a sync.Pool rather than a kept free list so that the
// collector drops the idle ones, and a process that stops compiling
// stops holding their scratch.
var workers sync.Pool

// pool is what a claim loop borrows its worker from: workers, or a
// test's own. Get returns nil when it has none.
type pool interface {
	Get() any
	Put(any)
}

// worker is what one claim loop keeps from one function to the next,
// and what waits in workers between loops.
type worker struct {
	// fp is the fingerprint's scratch, reset by every function the
	// worker looks up in the cache.
	fp ir.FingerprintScratch
	// nodes is the slab the glue transform builds in (funcCtx.Nodes): output,
	// so it lives one claim loop and is dropped, not cleared, by detach.
	nodes ir.Slab
	// arena is every phase's scratch, made by the worker's first miss:
	// a run of hits builds none.
	arena *arena
}

// detach readies w to wait in the pool: every member drops the pointers
// it holds into the compiles it served (functions, code, IL nodes,
// deadlines), keeping its storage; the code arena, whose last function
// was copied out or failed, is rewound.
func (w *worker) detach() {
	w.fp.Detach()
	w.nodes = ir.Slab{}
	if a := w.arena; a != nil {
		a.ctx = funcCtx{}
		a.undo.Detach()
		a.sel.Code.Rewind()
		a.sel.Detach()
		a.strategy.Detach()
		a.verify.Detach()
		a.enc.Detach()
	}
}

// arena is the storage the back end works in, from one function to the
// next. Each member is reset at the start of each use, so what a
// function, or an attempt that failed part-way, leaves in it never
// reaches the next. One claim loop at a time owns it; between loops it
// waits, detached, in its worker in the pool.
type arena struct {
	// ctx is the attempt's funcCtx.
	ctx funcCtx
	// undo logs the glue transform's writes into the function being
	// compiled.
	undo xform.Log
	// The selector's tables and the code arena every phase builds the
	// attempt's code in (sel.Code: rewound at the start of each attempt,
	// the accepted function copied out of it before runOne returns); the
	// strategy's scheduler (with its code DAG) and allocator; the
	// verifier's tables, which the verify phase, the ladder's re-check
	// and the cache's admission check share; and the cache's encoder.
	sel      sel.Scratch
	strategy strategy.Scratch
	verify   verify.Scratch
	enc      cache.Encoder
}

// keyParts carries the per-run cache key components; nil means the
// cache is off for this run.
type keyParts struct {
	mach [32]byte
	cfg  [32]byte
}

// runOne compiles a single function, walking the degradation ladder on
// failure: the configured strategy first, then (unless Config.Strict)
// each fallback rung, with every fallback result re-checked by
// internal/verify before acceptance. The glue transform is the one phase
// that writes to the IL, and it logs its writes: a failed attempt's log
// is replayed backwards, so every rung starts from the IL as lowered and
// a function that fails on every rung is left as it was found. When every
// rung fails, the PRIMARY attempt's error is recorded as the
// diagnostic, annotated with the number of failed fallbacks.
//
// With a cache configured, the function is first looked up by content
// address (the fingerprint is taken here, before the glue transform
// mutates the IR); a hit bypasses every phase. A verify-clean primary
// result is stored back; degraded results never are.
func (b backend) runOne(ctx context.Context, m *mach.Machine, index int, fn *ir.Func, cfg Config, keys *keyParts, w *worker, diags *Diagnostics) *result {
	// Child takes a nil span, but its name would be built all the same.
	var fnSpan *trace.Span
	if cfg.Span != nil {
		fnSpan = cfg.Span.Child("fn:" + fn.Name)
	}
	defer fnSpan.End()

	var key cache.Key
	if keys != nil {
		start := time.Now()
		csp := fnSpan.Child("cache")
		key = cache.FuncKey(w.fp.Fingerprint(fn), keys.mach, keys.cfg)
		if res := cacheLookup(key, m, fn, cfg); res != nil {
			csp.Attr("result", "hit")
			csp.End()
			elapsed := time.Since(start)
			res.Timings = []phaseTiming{{Phase: "cache", Time: elapsed}}
			cacheHist.ObserveDuration(elapsed)
			return res
		}
		csp.Attr("result", "miss")
		csp.End()
	}

	if cfg.CacheOnly {
		fnSpan.Attr("outcome", "cache-only-miss")
		diags.Add(index, fn.Name, "cache", ErrCacheOnlyMiss)
		return nil
	}

	// Attempt 0 is the configured strategy, attempt i the ladder's rung
	// chain[i-1].
	var chain []strategy.Kind
	if !cfg.Strict {
		chain = strategy.FallbackChain(cfg.Strategy)
	}
	var firstErr error
	var firstPhase string
	// prior accumulates the tagged phase timings of failed attempts so
	// the accepted attempt's result reports all work spent, not just the
	// successful rung's share.
	var prior []phaseTiming
	if w.arena == nil {
		w.arena = new(arena)
	}
	undo := &w.arena.undo
	for attempt := 0; attempt <= len(chain); attempt++ {
		kind := cfg.Strategy
		if attempt > 0 {
			kind = chain[attempt-1]
		}
		res, timings, phase, err := b.tryOne(ctx, m, index, fn, cfg, kind, attempt, w, fnSpan)
		if err == nil {
			undo.Keep()
			res.Func.CopyOut()
			if prior != nil {
				res.Timings = append(prior, res.Timings...)
			}
			if attempt > 0 {
				fnSpan.Attr("degraded", kind.String())
				res.Fallback = &Degradation{
					Func:     fn.Name,
					From:     cfg.Strategy,
					To:       kind,
					Attempts: attempt + 1,
					Phase:    firstPhase,
					Reason:   firstErr.Error(),
				}
			} else if keys != nil {
				cacheStore(key, m, fn, cfg, res, w.arena, fnSpan)
			}
			return res
		}
		undo.Undo(fn)
		prior = append(prior, timings...)
		if attempt == 0 {
			firstErr, firstPhase = err, phase
		}
		// Run-wide cancellation is not a per-function failure to degrade
		// around: stop retrying and report it.
		if ctx.Err() != nil {
			diags.Add(index, fn.Name, phase, err)
			return nil
		}
	}
	err := firstErr
	if n := len(chain); n > 0 {
		err = fmt.Errorf("%w (%d fallback attempt(s) also failed)", firstErr, n)
	}
	diags.Add(index, fn.Name, firstPhase, err)
	return nil
}

// tryOne pushes one function through every phase under one ladder rung,
// timing each phase, recovering panics into errors, and enforcing the
// per-attempt budget. On failure it returns the phases' timings so far
// (tagged with this attempt) along with the failing phase's name and
// the error, so failed rungs still account for their wall time.
// Fallback attempts (attempt > 0) are re-checked by internal/verify
// before acceptance, whether or not Config.Verify is set: a degraded
// result is only accepted when it proves clean.
func (b backend) tryOne(ctx context.Context, m *mach.Machine, index int, fn *ir.Func, cfg Config, kind strategy.Kind, attempt int, w *worker, fnSpan *trace.Span) (*result, []phaseTiming, string, error) {
	asp := fnSpan.Child("attempt")
	asp.Attr("strategy", kind.String())
	asp.AttrInt("n", int64(attempt))
	defer asp.End()

	actx := ctx
	if cfg.Budget > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, cfg.Budget)
		defer cancel()
	}
	inj := faults.New(cfg.Faults, actx, fn.Name, index, attempt)
	cfg.Strategy, cfg.Span = kind, asp
	cfg.Options.Deadline = actx
	cfg.Options.Inject = inj

	// The attempt builds its code in the worker's arena, which holds
	// nothing live: the last function was copied out, or failed.
	a := w.arena
	a.sel.Code.Rewind()
	// Timings has room for every phase and the cache's store.
	c := &a.ctx
	*c = funcCtx{
		Machine: m, IR: fn, Cfg: cfg, Attempt: attempt, Undo: &a.undo, Nodes: &w.nodes,
		Timings: make([]phaseTiming, 0, len(b)+1), arena: a,
	}
	for i, ph := range b {
		if err := actx.Err(); err != nil {
			// Before the first phase no phase has started, so the
			// attempt is reported as the claim loop reports a function
			// it never began.
			at := ph.Name
			if i == 0 {
				at = "pipeline"
			}
			asp.Attr("error", at)
			return nil, c.Timings, at, budgetize(at, err, actx, ctx, cfg.Budget)
		}
		psp := asp.Child(ph.Name)
		start := time.Now()
		err := runPhase(c, ph)
		elapsed := time.Since(start)
		psp.End()
		c.Timings = append(c.Timings, phaseTiming{Phase: ph.Name, Time: elapsed, Attempt: attempt})
		if ph.hist != nil {
			ph.hist.ObserveDuration(elapsed)
		}
		if err != nil {
			asp.Attr("error", ph.Name)
			return nil, c.Timings, ph.Name, budgetize(ph.Name, err, actx, ctx, cfg.Budget)
		}
	}
	if attempt > 0 {
		// The runtime gate: degraded output must verify clean against
		// the machine description before it replaces the real thing.
		rsp := asp.Child("reverify")
		rep := c.Verify
		if !cfg.Verify {
			rep = verifyFunc(&a.verify, c.Machine, c.Func, &cfg)
		}
		rsp.End()
		if !rep.Empty() {
			asp.Attr("error", "reverify")
			return nil, c.Timings, "verify", fmt.Errorf("fallback %s rejected by verifier: %d finding(s):\n%s",
				kind, len(rep.Findings), rep)
		}
	}
	return &result{
		IR: fn, Func: c.Func, Stats: c.Stats, Sel: c.Sel,
		Verify: c.Verify, Timings: c.Timings, Strategy: kind,
	}, nil, "", nil
}

// phaseHist returns the shared per-phase wall-time histogram.
func phaseHist(phase string) *metrics.Histogram {
	return metrics.Default().Histogram("pipeline.phase."+phase+".seconds", metrics.TimeBuckets)
}

// The two phases that are not in the backend list run once per function
// whatever the phase list is; their histograms, like the listed phases',
// are looked up once per process.
var (
	cacheHist      = phaseHist("cache")
	cachestoreHist = phaseHist("cachestore")
)

// cacheLookup tries to serve fn from the cache. A blob that fails
// structural decode (stale format, wrong module shape) is rejected so
// the slot heals with a fresh compile. The returned result mirrors a
// cold primary compile: same code, stats, selection counters and (when
// verification is on) a clean report — entries are only admitted
// verify-clean, so a hit's report is empty by construction.
func cacheLookup(key cache.Key, m *mach.Machine, fn *ir.Func, cfg Config) *result {
	payload, ok := cfg.Cache.Get(key)
	if !ok {
		return nil
	}
	ent, err := cache.Decode(payload, m, fn)
	if err != nil {
		cfg.Cache.Reject(key)
		return nil
	}
	res := &result{
		IR: fn, Func: ent.Func, Stats: &ent.Stats, Sel: ent.Sel,
		Strategy: cfg.Strategy, CacheHit: true,
	}
	if cfg.Verify {
		res.Verify = &verify.Report{}
	}
	return res
}

// cacheStore admits a primary-attempt result into the cache. Admission
// requires a clean verifier report: when the verify phase already ran,
// its report is reused; otherwise internal/verify runs here, at store
// time only (the miss path pays it once; hits never do). A result that
// does not prove clean is simply not cached — the run's own output is
// unaffected.
func cacheStore(key cache.Key, m *mach.Machine, fn *ir.Func, cfg Config, res *result, a *arena, fnSpan *trace.Span) {
	ssp := fnSpan.Child("cachestore")
	defer ssp.End()
	start := time.Now()
	rep := res.Verify
	if rep == nil {
		rep = verifyFunc(&a.verify, m, res.Func, &cfg)
	}
	if !rep.Empty() {
		return
	}
	payload, err := a.enc.Encode(m, fn, res.Func, res.Stats, res.Sel)
	if err != nil {
		return
	}
	cfg.Cache.Put(key, payload)
	elapsed := time.Since(start)
	res.Timings = append(res.Timings, phaseTiming{Phase: "cachestore", Time: elapsed})
	cachestoreHist.ObserveDuration(elapsed)
}

// runPhase runs one phase with panic isolation: a panic in any phase
// (or in an armed panic-mode fault) is recovered into a *PanicError
// carrying the phase, function and stack, so one pathological function
// cannot take down the process or its worker.
func runPhase(c *funcCtx, ph phase) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{
				Phase: ph.Name,
				Func:  c.IR.Name,
				Value: r,
				Stack: trimStack(),
			}
		}
	}()
	if err := c.Cfg.Options.Inject.Fire(ph.Name); err != nil {
		return err
	}
	return ph.Run(c)
}

// budgetize is the one place a deadline becomes a typed budget error
// (errors.Is faults.ErrExceeded): the phases return their context's
// error as it is. A deadline is the attempt's budget exactly when the
// attempt's context expired and the run's is still live; a run-wide
// deadline or cancellation (a client's) passes through untouched.
func budgetize(phase string, err error, attempt, run context.Context, b time.Duration) error {
	if errors.Is(err, context.DeadlineExceeded) && attempt.Err() != nil && run.Err() == nil {
		return &faults.LimitError{Stage: phase, Elapsed: b, Detail: err.Error()}
	}
	return err
}
