// Package pipeline structures Marion's back end as an explicit,
// inspectable compilation pipeline: an ordered list of named phases
// (glue transform, instruction selection, code generation strategy),
// each with a uniform signature over a per-function context.
//
// Because each function's back end is independent, a pipeline runs over
// a module with a bounded worker pool (per-function parallelism), while
// results commit in deterministic source order — the emitted assembly
// is byte-identical whatever the worker count. Failures are collected
// as structured Diagnostics instead of aborting at the first error, so
// one run reports every failing function.
package pipeline

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
	"marion/internal/budget"
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

// Ctx carries one function through the pipeline. Phases read their
// inputs from it and write their outputs back into it. The runner's Ctx
// is its claim loop's arena's, reset for every attempt and zeroed when
// the loop returns: a phase must not keep it past its own return.
type Ctx struct {
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
	// through Ctx.
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
	Timings []PhaseTiming

	// arena is the scratch the standard phases work in: the claim loop's,
	// set by tryOne, the only place a Ctx is built.
	arena *arena
}

// PhaseTiming is one phase's wall time for one function, tagged with
// the degradation-ladder attempt that ran the phase.
// A function's Result carries the timings of every attempt, including
// failed rungs; aggregators that want "time attributed to the emitted
// code" must filter on the accepted attempt (Result.Fallback tells
// which), while "total time spent" sums everything. The synthetic
// phases "cache" (a hit served instead of compiling) and "cachestore"
// (admission verify + encode) appear only when a cache is configured.
type PhaseTiming struct {
	Phase string
	Time  time.Duration
	// Attempt is the ladder rung index that ran this phase (0 = the
	// configured strategy, matching Ctx.Attempt).
	Attempt int
}

// Phase is one named pipeline step with the uniform signature.
type Phase struct {
	Name string
	Run  func(*Ctx) error
}

// Pipeline is an ordered list of phases applied to each function.
type Pipeline struct {
	Phases []Phase
}

// Backend returns the standard back end pipeline of the paper's driver:
// glue transform, instruction selection, code generation strategy
// (scheduling + register allocation + prologue/epilogue).
func Backend() *Pipeline {
	return &Pipeline{Phases: []Phase{
		{Name: "xform", Run: func(c *Ctx) error {
			c.Undo.Apply(c.Machine, c.IR, c.Nodes)
			return nil
		}},
		{Name: "select", Run: func(c *Ctx) error {
			af, counters, err := c.arena.sel.SelectOpts(c.Machine, c.IR, sel.Options{})
			c.Sel = counters
			if err != nil {
				return err
			}
			c.Func = af
			return nil
		}},
		{Name: "strategy", Run: func(c *Ctx) error {
			st, err := c.arena.strategy.Apply(c.Machine, c.Func, c.Cfg.Strategy, c.Cfg.Options)
			if err != nil {
				return err
			}
			c.Stats = st
			return nil
		}},
		{Name: "verify", Run: func(c *Ctx) error {
			if !c.Cfg.Verify || c.Func == nil {
				return nil
			}
			c.Verify = verifyFunc(&c.arena.verify, c.Machine, c.Func, &c.Cfg)
			return nil
		}},
	}}
}

// verifyFunc checks emitted code against the machine description under
// the hazard rule cfg scheduled it with.
func verifyFunc(vs *verify.Scratch, m *mach.Machine, af *asm.Func, cfg *Config) *verify.Report {
	return vs.Func(m, af, verify.Options{IssueOnly: cfg.Options.CurrentCycleOnly})
}

// Config tunes one pipeline run. It is the single declaration of the
// back end's options: driver.Config is an alias of it, marion.CodeGenerator
// embeds it, and the server and CLIs build one value and pass it down,
// so a new option is added here and nowhere else.
type Config struct {
	Strategy strategy.Kind
	Options  strategy.Options
	// Verify runs the emitted-code verifier (internal/verify) over
	// every function after the strategy phase. Findings are data, not
	// compile errors — callers decide whether they are fatal.
	Verify bool
	// Workers bounds the per-function worker pool; <= 0 means
	// runtime.GOMAXPROCS(0). Output is identical for any worker count.
	Workers int

	// Budget is the per-function wall-clock deadline, enforced through
	// context on every attempt (each ladder rung gets a fresh budget).
	// The scheduler's cycle loop, the allocator's round loop and
	// hang-mode faults all observe it, so a hung function becomes a
	// typed budget error instead of a stuck worker. 0 means no budget.
	Budget time.Duration

	// Strict disables the graceful-degradation ladder: a function that
	// fails or exhausts its budget is reported as a diagnostic instead
	// of being retried down the strategy chain.
	Strict bool

	// Faults arms the deterministic fault-injection harness
	// (internal/faults); nil injects nothing.
	Faults *faults.Set

	// CacheOnly serves functions exclusively from the cache: a miss (or
	// a disabled cache — nil Cache, armed Faults, or a machine with no
	// fingerprint) is reported as an ErrCacheOnlyMiss diagnostic instead
	// of compiling. This is the server's deepest brownout level — under
	// extreme overload mariond keeps answering for warm code at near-zero
	// cost and sheds the rest.
	CacheOnly bool

	// Span, when non-nil, is the parent trace span for the whole run;
	// each function gets a child span, with attempt and phase spans
	// nested below. Nil means tracing is off and costs one nil check.
	Span *trace.Span

	// Cache, when non-nil, is the content-addressed compilation cache:
	// each function is looked up by (canonical IR fingerprint, machine
	// fingerprint, config key) before any phase runs; a hit bypasses the
	// whole pipeline and rebinds the stored code onto the current IR.
	// Entries are admitted only after the primary (non-degraded) attempt
	// verifies clean against the machine description — when Verify is
	// off, the admission check runs internal/verify anyway and a dirty
	// result is simply not cached. The cache is ignored entirely when
	// Faults is armed: injected failures must not poison the cache, and
	// hits must not mask the sites under test. It is ignored too for a
	// machine with the zero fingerprint (one maril.Parse did not build):
	// nothing identifies it, so it must share entries with no other.
	Cache *cache.Cache
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

// Result is one function's compiled output.
type Result struct {
	IR      *ir.Func
	Func    *asm.Func
	Stats   *strategy.Stats
	Sel     sel.Counters
	Verify  *verify.Report
	Timings []PhaseTiming
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

// Run compiles every function through the pipeline with a bounded
// worker pool. Results are returned indexed by source order regardless
// of completion order; a function that failed (or was cancelled) has a
// nil entry, with its error recorded in the returned Diagnostics.
func (p *Pipeline) Run(ctx context.Context, m *mach.Machine, funcs []*ir.Func, cfg Config) ([]*Result, *Diagnostics) {
	return p.run(ctx, m, funcs, cfg, &workers)
}

// run is Run with its claim loops borrowing their workers from pool.
func (p *Pipeline) run(ctx context.Context, m *mach.Machine, funcs []*ir.Func, cfg Config, pool pool) ([]*Result, *Diagnostics) {
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

	results := make([]*Result, len(funcs))
	diags := &Diagnostics{}
	if len(funcs) == 0 {
		return results, diags
	}

	// The machine and config components of the cache key are shared by
	// every function in the run; compute them once. Armed faults and a
	// machine with no fingerprint disable the cache (see Config.Cache).
	var keys *keyParts
	if cfg.Cache != nil && cfg.Faults == nil && m.Fingerprint() != ([32]byte{}) {
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
			results[i] = p.runOne(ctx, m, i, funcs[i], cfg, keys, w, diags)
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
	// hists is the histogram of each of the Run's phases, filled in by
	// the first function the loop compiles (tryOne); a run of hits looks
	// none up.
	hists []*metrics.Histogram
	// fp is the fingerprint's scratch, reset by every function the
	// worker looks up in the cache.
	fp ir.FingerprintScratch
	// nodes is the slab the glue transform builds in (Ctx.Nodes): output,
	// so it lives one claim loop and is dropped, not cleared, by detach.
	nodes ir.Slab
	// arena is every phase's scratch, made by the worker's first miss:
	// a run of hits builds none.
	arena *arena
}

// detach readies w to wait in the pool: every member drops the pointers
// it holds into the compiles it served (functions, code, IL nodes,
// deadlines), keeping its storage.
func (w *worker) detach() {
	w.hists = w.hists[:0]
	w.fp.Detach()
	w.nodes = ir.Slab{}
	if a := w.arena; a != nil {
		a.ctx = Ctx{}
		a.undo.Detach()
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
	// ctx is the attempt's Ctx.
	ctx Ctx
	// undo logs the glue transform's writes into the function being
	// compiled.
	undo xform.Log
	// The selector's tables; the strategy's scheduler (with its code
	// DAG) and allocator; the verifier's tables, which the verify phase,
	// the ladder's re-check and the cache's admission check share; and
	// the cache's encoder.
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
func (p *Pipeline) runOne(ctx context.Context, m *mach.Machine, index int, fn *ir.Func, cfg Config, keys *keyParts, w *worker, diags *Diagnostics) *Result {
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
		if res := p.cacheLookup(key, m, fn, cfg); res != nil {
			csp.Attr("result", "hit")
			csp.End()
			res.Timings = []PhaseTiming{{Phase: "cache", Time: time.Since(start)}}
			cacheHist.ObserveDuration(time.Since(start))
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
	// the accepted attempt's Result reports all work spent, not just the
	// successful rung's share.
	var prior []PhaseTiming
	if w.arena == nil {
		w.arena = new(arena)
	}
	undo := &w.arena.undo
	for attempt := 0; attempt <= len(chain); attempt++ {
		kind := cfg.Strategy
		if attempt > 0 {
			kind = chain[attempt-1]
		}
		res, timings, phase, err := p.tryOne(ctx, m, index, fn, cfg, kind, attempt, w, fnSpan)
		if err == nil {
			undo.Keep()
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
				p.cacheStore(key, m, fn, cfg, res, w.arena, fnSpan)
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
func (p *Pipeline) tryOne(ctx context.Context, m *mach.Machine, index int, fn *ir.Func, cfg Config, kind strategy.Kind, attempt int, w *worker, fnSpan *trace.Span) (*Result, []PhaseTiming, string, error) {
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

	// The lookup builds a name and read-locks the registry every worker
	// shares, so it is done once per claim loop, not per function.
	if len(w.hists) == 0 {
		for _, ph := range p.Phases {
			w.hists = append(w.hists, phaseHist(ph.Name))
		}
	}
	// Timings has room for every phase and the cache's store.
	a := w.arena
	c := &a.ctx
	*c = Ctx{
		Machine: m, IR: fn, Cfg: cfg, Attempt: attempt, Undo: &a.undo, Nodes: &w.nodes,
		Timings: make([]PhaseTiming, 0, len(p.Phases)+1), arena: a,
	}
	for i, ph := range p.Phases {
		if err := actx.Err(); err != nil {
			// Before the first phase no phase has started, so the
			// attempt is reported as the claim loop reports a function
			// it never began.
			at := ph.Name
			if i == 0 {
				at = "pipeline"
			}
			asp.Attr("error", at)
			return nil, c.Timings, at, budgetize(at, err, ctx, cfg.Budget)
		}
		psp := asp.Child(ph.Name)
		start := time.Now()
		err := runPhase(c, ph)
		elapsed := time.Since(start)
		psp.End()
		c.Timings = append(c.Timings, PhaseTiming{Phase: ph.Name, Time: elapsed, Attempt: attempt})
		w.hists[i].ObserveDuration(elapsed)
		if err != nil {
			asp.Attr("error", ph.Name)
			return nil, c.Timings, ph.Name, budgetize(ph.Name, err, ctx, cfg.Budget)
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
	return &Result{
		IR: fn, Func: c.Func, Stats: c.Stats, Sel: c.Sel,
		Verify: c.Verify, Timings: c.Timings, Strategy: kind,
	}, nil, "", nil
}

// phaseHist returns the shared per-phase wall-time histogram.
func phaseHist(phase string) *metrics.Histogram {
	return metrics.Default().Histogram("pipeline.phase."+phase+".seconds", metrics.TimeBuckets)
}

// The two phases that are not in Pipeline.Phases run once per function
// whatever the phase list is, so their histograms are looked up once per
// process; tryOne looks up the listed phases' once per claim loop.
var (
	cacheHist      = phaseHist("cache")
	cachestoreHist = phaseHist("cachestore")
)

// cacheLookup tries to serve fn from the cache. A blob that fails
// structural decode (stale format, wrong module shape) is rejected so
// the slot heals with a fresh compile. The returned Result mirrors a
// cold primary compile: same code, stats, selection counters and (when
// verification is on) a clean report — entries are only admitted
// verify-clean, so a hit's report is empty by construction.
func (p *Pipeline) cacheLookup(key cache.Key, m *mach.Machine, fn *ir.Func, cfg Config) *Result {
	payload, ok := cfg.Cache.Get(key)
	if !ok {
		return nil
	}
	ent, err := cache.Decode(payload, m, fn)
	if err != nil {
		cfg.Cache.Reject(key)
		return nil
	}
	res := &Result{
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
func (p *Pipeline) cacheStore(key cache.Key, m *mach.Machine, fn *ir.Func, cfg Config, res *Result, a *arena, fnSpan *trace.Span) {
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
	res.Timings = append(res.Timings, PhaseTiming{Phase: "cachestore", Time: elapsed})
	cachestoreHist.ObserveDuration(elapsed)
}

// runPhase runs one phase with panic isolation: a panic in any phase
// (or in an armed panic-mode fault) is recovered into a *PanicError
// carrying the phase, function and stack, so one pathological function
// cannot take down the process or its worker.
func runPhase(c *Ctx, ph Phase) (err error) {
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

// budgetize converts a per-attempt deadline into a typed budget error
// (errors.Is budget.ErrExceeded). Run-wide cancellations pass through
// untouched: outer is the run's context, still live exactly when the
// deadline that fired was the attempt's own budget.
func budgetize(phase string, err error, outer context.Context, b time.Duration) error {
	if errors.Is(err, context.DeadlineExceeded) && outer.Err() == nil {
		return &budget.LimitError{Stage: phase, Elapsed: b, Detail: err.Error()}
	}
	return err
}
