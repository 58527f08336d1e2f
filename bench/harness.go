package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"marion/bench/corpus"
	"marion/internal/asm"
	"marion/internal/core"
	"marion/internal/livermore"
	"marion/internal/maril"
	"marion/internal/sim"
	"marion/internal/strategy"
	"marion/internal/targets"
)

// op is one operation of a pass: a unit under one configuration.
type op struct {
	unit *corpus.Unit
	cfg  int // index into corpus.Configs
}

// refEntry is what the reference pass learned about one op, and what
// every later compile of the same input must reproduce.
type refEntry struct {
	sha   [32]byte
	lines int // lines of assembly text
	funcs int
}

// newRef digests one op's assembly.
func newRef(text string, funcs int) refEntry {
	return refEntry{sha: shaOf(text), lines: strings.Count(text, "\n"), funcs: funcs}
}

// matches reports whether text is the same compile result as the
// reference. On the reproducible targets that means the same bytes.
// On i860 the scheduler's output varies from one compile of the same
// input to the next at the commit that introduced this benchmark (see
// corpus.Reproducible), so there the check is only that the assembly
// has the same number of lines — same functions, labels and
// instruction count, which every variant seen so far shares.
func (r refEntry) matches(o op, text string) bool {
	if corpus.Reproducible(corpus.Configs[o.cfg]) {
		return shaOf(text) == r.sha
	}
	return strings.Count(text, "\n") == r.lines
}

// quality holds the exact code-quality counts (the gen_* metrics).
type quality struct {
	cycles, est, insts, spills int64
}

// add counts one compiled program.
func (q *quality) add(stats map[string]*strategy.Stats, prog *asm.Program) {
	for _, st := range stats {
		q.est += int64(st.EstimatedCycles)
		q.spills += int64(st.Spills)
	}
	for _, f := range prog.Funcs {
		for _, b := range f.Blocks {
			q.insts += int64(len(b.Insts))
		}
	}
}

// harness is the state of one single-workload run.
type harness struct {
	spec    *Spec
	root    string // repository checkout
	mariond string // path of the non-race daemon binary
	outDir  string
	name    string
	seed    int64
	seconds time.Duration
	// tiny shrinks the run to a smoke test (smoke_test.go sets it; no
	// flag does): six ops a pass, one pass a loop, one oracle kernel, two
	// set-up rounds. Every code path still runs and every metric is still
	// reported; the numbers mean nothing.
	tiny bool
	led  *ledger

	corp  *corpus.Corpus
	order []op // one pass, in the seed's order
	ref   []refEntry
	// served holds, per op of the order, the digest of the daemon's
	// first (cold) answer for pass 0; every later hit must repeat it.
	served [][32]byte
	gens   []*core.CodeGenerator // one per corpus.Configs entry
	// nextPass is the first perturbation pass no request of this run has
	// used yet (serve_cold never repeats one).
	nextPass int

	mu        sync.Mutex
	attempted int
	failed    int
	misses    []string
}

// check counts one verified expectation; a miss is recorded (the first
// few with their reason) and fails the run.
func (h *harness) check(ok bool, format string, args ...interface{}) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.attempted++
	if !ok {
		h.failed++
		if len(h.misses) < 20 {
			h.misses = append(h.misses, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// gate is check for run-wide conditions that are not operations: it
// fails the run without adding to the attempted count.
func (h *harness) gate(ok bool, format string, args ...interface{}) {
	if !ok {
		h.mu.Lock()
		h.failed++
		h.misses = append(h.misses, fmt.Sprintf(format, args...))
		h.mu.Unlock()
	}
}

// workloads are the names this program implements; BENCHMARK.json must
// declare exactly these (smoke_test.go compares the two).
var workloads = []string{"cold_loops", "cold_bigblock", "serve_cold", "serve_warm"}

// prepare builds the workload's corpus, the seed's op order and the
// nine library code generators.
func (h *harness) prepare() error {
	var err error
	switch h.name {
	case "cold_loops":
		h.corp, err = corpus.Loops(h.root)
	case "cold_bigblock":
		h.corp = corpus.BigBlocks()
	case "serve_cold", "serve_warm":
		h.corp, err = corpus.Serve()
	default:
		err = fmt.Errorf("unknown workload %q", h.name)
	}
	if err != nil {
		return err
	}
	h.order = passOps(h.corp, func(corpus.Config) bool { return true })
	rand.New(rand.NewSource(h.seed)).Shuffle(len(h.order), func(i, j int) {
		h.order[i], h.order[j] = h.order[j], h.order[i]
	})
	if h.tiny {
		h.order = h.order[:6]
	}
	for _, cfg := range corpus.Configs {
		kind, err := strategy.ParseKind(cfg.Strategy)
		if err != nil {
			return err
		}
		g, err := core.New(cfg.Target, kind)
		if err != nil {
			return err
		}
		g.Workers = 1
		h.gens = append(h.gens, g)
	}
	return nil
}

// passOps lists one pass over a corpus: every unit under every
// configuration that keep accepts.
func passOps(c *corpus.Corpus, keep func(corpus.Config) bool) []op {
	var ops []op
	for _, u := range c.Units {
		for i, cfg := range corpus.Configs {
			if keep(cfg) {
				ops = append(ops, op{u, i})
			}
		}
	}
	return ops
}

// service reports whether the workload goes through mariond; its ops
// then carry per-configuration literals (see corpus.Corpus.Source).
func (h *harness) service() bool { return h.name == "serve_cold" || h.name == "serve_warm" }

// source renders the op's unit for a pass of this run.
func (h *harness) source(o op, pass int) string {
	variant := 0
	if h.service() {
		variant = o.cfg
	}
	return h.corp.Source(o.unit, h.seed, pass, variant)
}

// compileLib is the library path of one op: source text through the
// configured code generator to printed assembly.
func (h *harness) compileLib(o op, src string, verifyOn bool) (*core.Result, string, error) {
	g := *h.gens[o.cfg]
	g.Verify = verifyOn
	var res *core.Result
	var err error
	if o.unit.Lang == "il" {
		res, err = g.CompileILCtx(context.Background(), o.unit.Name, src)
	} else {
		res, err = g.CompileCtx(context.Background(), o.unit.Name, src)
	}
	if err != nil {
		return nil, "", err
	}
	return res, res.Program.Print(), nil
}

// reference compiles every op of one pass through the library with the
// verifier on and records each op's assembly digest. An op passes when
// it compiles, verify.Program is clean and nothing degraded. The
// returned counts sum the emitted code's quality over the pass's
// reproducible configurations.
func (h *harness) reference(ops []op, source func(op) string) ([]refEntry, quality) {
	ref := make([]refEntry, len(ops))
	var q quality
	for i, o := range ops {
		res, asmText, err := h.compileLib(o, source(o), true)
		if err != nil {
			h.check(false, "reference %s %v: %v", o.unit.Name, corpus.Configs[o.cfg], err)
			continue
		}
		h.check(res.Verify.Empty() && len(res.Degradations) == 0,
			"reference %s %v: %d verifier findings, %d degradations",
			o.unit.Name, corpus.Configs[o.cfg], len(res.Verify.Findings), len(res.Degradations))
		ref[i] = newRef(asmText, len(res.Program.Funcs))
		if corpus.Reproducible(corpus.Configs[o.cfg]) { // else the counts would not be exact
			q.add(res.Stats, res.Program)
		}
	}
	return ref, q
}

// oracle is the end-to-end correctness gate that does not trust the
// compiler: every Livermore kernel under every configuration is
// compiled (verifier on), run on the timing simulator for one
// repetition with its cache model off, and its checksum compared with
// the kernel's hand-written Go reference. The simulated cycles are the
// gen_cycles metric; the simulator's own speed is returned for the
// per-layer ledger.
func (h *harness) oracle() (quality, float64) {
	var q quality
	var simInsts int64
	var simTime time.Duration
	kernels := livermore.Kernels
	if h.tiny {
		kernels = kernels[:1]
	}
	for i := range kernels {
		k := &kernels[i]
		want := k.Ref(1)
		for c, cfg := range corpus.Configs {
			comp, err := livermore.Build(k, cfg.Target, h.gens[c].Strategy)
			if err != nil {
				h.check(false, "oracle kernel %d %v: %v", k.ID, cfg, err)
				continue
			}
			start := time.Now()
			got, st, err := livermore.Run(comp, 1, sim.CacheConfig{})
			simTime += time.Since(start)
			if err != nil {
				h.check(false, "oracle kernel %d %v: simulate: %v", k.ID, cfg, err)
				continue
			}
			h.check(closeTo(got, want), "oracle kernel %d %v: checksum %.17g, reference %.17g", k.ID, cfg, got, want)
			q.cycles += st.Cycles
			simInsts += st.Instrs
			q.add(comp.Stats, comp.Prog)
		}
	}
	return q, ratio(float64(simInsts)/1e6, simTime.Seconds())
}

// closeTo is livermore's own checksum tolerance: both sides are IEEE
// doubles evaluated in the same order, so agreement is essentially
// exact.
func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// gateAndReference runs the correctness gate every run starts with: the
// Livermore oracle, then the reference pass over the workload's own
// corpus (h.ref). An untraced run also stores the gen_* metrics. Their
// quality set is the same for every workload and every seed — the
// Livermore kernels under all nine configurations plus the big-block
// corpus under the six reproducible ones (see corpus.Reproducible) —
// because the counts are compared exactly: they are a property of the
// compiler at this commit, not of a workload. (The literals the seed
// picks reach only the data section.)
func (h *harness) gateAndReference(e2e bool) {
	q, simRate := h.oracle()
	var bq quality
	h.ref, bq = h.reference(h.order, func(o op) string { return h.source(o, 0) })
	if !e2e {
		h.led.set("sim.minsts_per_s", simRate)
		return
	}
	if h.name != "cold_bigblock" {
		big := corpus.BigBlocks()
		ops := passOps(big, corpus.Reproducible)
		if h.tiny {
			ops = ops[len(ops)-6:] // a 64-statement unit: m88000 spills on it
		}
		_, bq = h.reference(ops, func(o op) string { return big.Source(o.unit, h.seed, 0, 0) })
	}
	h.led.set("gen_cycles", float64(q.cycles))
	h.led.set("gen_est_cycles", float64(q.est+bq.est))
	h.led.set("gen_insts", float64(q.insts+bq.insts))
	h.led.set("gen_spills", float64(q.spills+bq.spills))
}

// window is the extent of a measuring loop that should last d: that
// long, or in a tiny run exactly one pass.
func (h *harness) window(d time.Duration) (maxPasses int, until time.Duration) {
	if h.tiny {
		return 1, 0
	}
	return 0, d
}

// rounds is how many times a set-up step is repeated for its median.
func (h *harness) rounds(n int) int {
	if h.tiny {
		return 2
	}
	return n
}

// parseTargets times fresh maril.Parse calls (parse plus Finalize) of
// the three targets the workloads use: the library's set-up cost. It
// returns the median wall time of parsing all three, in seconds.
func parseTargets(rounds int) (float64, error) {
	var samples []float64
	for r := 0; r < rounds; r++ {
		start := time.Now()
		for _, t := range corpus.Targets() {
			src, err := targets.Source(t)
			if err != nil {
				return 0, err
			}
			if _, err := maril.Parse(t+".maril", src); err != nil {
				return 0, err
			}
		}
		samples = append(samples, time.Since(start).Seconds())
	}
	return median(samples), nil
}

// sample is one completed operation of a closed loop.
type sample struct {
	i     int           // global op index: pass = i / len(order)
	lat   time.Duration // client-observed latency
	cycle time.Duration // from the client's previous completion to this one
	done  time.Duration // completion time since the loop started
	funcs int
	ok    bool
	resp  *served // service workloads only
}

// closedLoop runs ops 0, 1, 2, ... from `clients` goroutines, each
// taking the next index as soon as its previous op returns (callers of
// a compiler wait for the reply, so the load is closed). Work is handed
// out in whole passes of perPass ops: the loop ends at the first pass
// boundary at or after `until`, or after maxPasses passes when until is
// zero. Whole passes keep the op mix of every run identical, which is
// what makes throughput and percentiles comparable between runs.
// passEnd, when non-nil, is called by the client that completes the last
// op index of each pass.
func closedLoop(clients, perPass, maxPasses int, until time.Duration, do func(i int) sample, passEnd func()) []sample {
	const open = int64(1) << 62
	var next atomic.Int64
	var lastPass atomic.Int64
	lastPass.Store(open)
	if until == 0 {
		lastPass.Store(int64(maxPasses - 1))
	}
	start := time.Now()
	out := make([][]sample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			last := start
			for {
				i := int(next.Add(1) - 1)
				pass := int64(i / perPass)
				if until > 0 && time.Since(start) >= until {
					lastPass.CompareAndSwap(open, pass)
				}
				if pass > lastPass.Load() {
					return
				}
				s := do(i)
				now := time.Now()
				s.i, s.cycle, s.done = i, now.Sub(last), now.Sub(start)
				last = now
				out[c] = append(out[c], s)
				if passEnd != nil && i%perPass == perPass-1 {
					passEnd()
				}
			}
		}(c)
	}
	wg.Wait()
	var all []sample
	for _, part := range out {
		for _, s := range part {
			// A client may have started the next pass just before another
			// one saw the deadline; that partial pass is not measured.
			if int64(s.i/perPass) <= lastPass.Load() {
				all = append(all, s)
			}
		}
	}
	sort.Slice(all, func(a, b int) bool { return all[a].i < all[b].i })
	return all
}

// loopStats are the end-to-end timing figures of one closed loop.
type loopStats struct {
	ops, funcs, passes int
	fnPerS             float64
	p50Ms, p99Ms       float64
	wall               time.Duration
	wallFnPerS         float64 // plain functions ÷ wall time, for the record
}

// summarize turns samples into throughput and latency figures.
//
// The box this runs on shares its memory system with other tenants. A
// register-only loop repeats within 1 % here, but a pointer chase over
// 8 MiB moves by ±10 % and a compiling pass by ±20 % from one second to
// the next, and for a minute or two at a time everything runs 15 %
// slower or up to 40 % faster than in the minutes around it. The first pass after the correctness
// gate is also a quarter faster than the rest (the gate leaves a large
// heap, so the collector runs less until it has shrunk). So neither the
// slowest nor the fastest repetition says anything about the program,
// and every figure is taken over all the run's passes; every op is
// repeated once a pass, 12 to 80 times in a run:
//
//   - fn_per_s is the median, over the passes, of the throughput the loop
//     sustained over that whole pass. A pass's time is the client time its
//     ops took, cycle by cycle (a client is never idle in a closed loop, so
//     the cycles partition the wall time exactly), divided by the client
//     count.
//   - op_p50_ms and op_p99_ms are the median and the 99th percentile,
//     over the ops of one pass, of each op's typical latency over the
//     run's passes (see typical): what the middle and the heaviest ops
//     of the mix cost, not how the host jittered while they ran. The ops
//     of a pass come in a few size classes with gaps between them, and
//     where the middle rank falls in a gap the single op holding it
//     changes from run to run; so the median is taken as the mean of the
//     middle fifth (ranks 40 % to 60 %).
func summarize(samples []sample, perPass, clients int) loopStats {
	st := loopStats{passes: samples[len(samples)-1].i/perPass + 1}
	lats := make([][]float64, perPass)
	busy := make([]time.Duration, st.passes)
	funcs := make([]int, st.passes)
	for _, s := range samples {
		st.ops++
		if s.done > st.wall {
			st.wall = s.done
		}
		busy[s.i/perPass] += s.cycle
		if !s.ok {
			continue
		}
		st.funcs += s.funcs
		funcs[s.i/perPass] += s.funcs
		lats[s.i%perPass] = append(lats[s.i%perPass], ms(s.lat))
	}
	rates := make([]float64, st.passes)
	for p := range busy {
		rates[p] = ratio(float64(clients*funcs[p]), busy[p].Seconds())
	}
	perOp := make([]float64, perPass)
	for c := range lats {
		perOp[c] = typical(lats[c])
	}
	st.fnPerS = median(rates)
	st.p99Ms = quantile(perOp, 0.99) // sorts perOp
	st.p50Ms = mean(perOp[perPass*2/5 : (perPass*3+4)/5])
	st.wallFnPerS = ratio(float64(st.funcs), st.wall.Seconds())
	return st
}

// String is the line a run prints about its timed loop.
func (st loopStats) String() string {
	return fmt.Sprintf("%d ops (%d functions) in %d passes over %.1fs, %.0f functions/s overall; reported: the median pass, and each op's typical latency of %d",
		st.ops, st.funcs, st.passes, st.wall.Seconds(), st.wallFnPerS, st.passes)
}

// reportTimed stores the end-to-end metrics every workload takes from
// its timed loop: the loop's figures, the heap deltas of the process
// that compiled, and that process's per-pass peak resident set.
func (h *harness) reportTimed(st loopStats, heapBytes, heapObjects uint64, rss *rssMeter) error {
	h.led.set("fn_per_s", st.fnPerS)
	h.led.set("op_p50_ms", st.p50Ms)
	h.led.set("op_p99_ms", st.p99Ms)
	h.led.set("alloc_kb_per_fn", ratio(float64(heapBytes)/1024, float64(st.funcs)))
	h.led.set("allocs_per_fn", ratio(float64(heapObjects), float64(st.funcs)))
	peak, err := rss.peakMiB()
	if err != nil {
		return err
	}
	h.led.set("peak_rss_mb", peak)
	fmt.Fprintf(os.Stderr, "%s: %v\n", h.name, st)
	return nil
}
