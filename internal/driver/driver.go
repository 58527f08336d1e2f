// Package driver is Marion's compiler driver: C source (or textual IL)
// -> front end -> IL -> back end (glue transform -> instruction
// selection -> code generation strategy: scheduling + register
// allocation) -> target program.
//
// Lower is the one place a language picks its front end, and
// CompileModuleCtx the one way into the back end. The back end is an
// ordered list of named phases (glue transform, selection, strategy,
// verifier), each with a uniform signature over a per-function context.
// Because each function's back end is independent, it runs over the
// module's functions with a bounded pool of workers, while results keep
// source order: the emitted assembly is byte-identical whatever the
// worker count. Per-function failures are collected as Diagnostics
// instead of aborting at the first error, so one compile reports every
// failing function.
package driver

import (
	"context"
	"fmt"
	"time"

	"marion/internal/asm"
	"marion/internal/cache"
	"marion/internal/cc"
	"marion/internal/faults"
	"marion/internal/ilgen"
	"marion/internal/iltext"
	"marion/internal/ir"
	"marion/internal/mach"
	"marion/internal/sel"
	"marion/internal/strategy"
	"marion/internal/targets"
	"marion/internal/trace"
	"marion/internal/verify"
)

// DataBase is the absolute address where globals are laid out, and
// dataEnd the address they must end by: the shipped descriptions
// address memory m[0:2147483647].
const (
	DataBase = 0x2000
	dataEnd  = 1 << 31
)

// Config tunes one compilation. It is the single declaration of the
// back end's options: marion.CodeGenerator embeds it, the server's wire
// options map onto it, and the server and CLIs build one value and pass
// it down, so a new option is added here and nowhere else.
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
	// hang-mode faults all observe it, and the runner types its expiry
	// as a budget error (faults.ErrExceeded) while the run's own context
	// is live, so a hung function degrades instead of parking a worker.
	// 0 means no budget.
	Budget time.Duration

	// Strict disables the graceful-degradation ladder: a function that
	// fails or exhausts its budget is reported as a diagnostic instead
	// of being retried down the strategy chain.
	Strict bool

	// Faults arms the deterministic fault-injection harness
	// (internal/faults); nil injects nothing. The back end fires only
	// its pipeline sites, so a set may carry the server's serve site too.
	Faults *faults.Set

	// CacheOnly serves functions exclusively from the cache: a miss (or
	// a disabled cache — nil Cache, Faults arming a pipeline site, or a
	// machine with no fingerprint) is reported as an ErrCacheOnlyMiss
	// diagnostic instead of compiling. This is the server's deepest
	// brownout level — under extreme overload mariond keeps answering
	// for warm code at near-zero cost and sheds the rest.
	CacheOnly bool

	// Span, when non-nil, is the parent trace span for the whole run;
	// each function gets a child span, with attempt and phase spans
	// nested below. Nil means tracing is off and costs one nil check.
	Span *trace.Span

	// Cache, when non-nil, is the content-addressed compilation cache:
	// each function is looked up by (canonical IR fingerprint, machine
	// fingerprint, config key) before any phase runs; a hit bypasses the
	// whole back end and rebinds the stored code onto the current IR.
	// Entries are admitted only after the primary (non-degraded) attempt
	// verifies clean against the machine description — when Verify is
	// off, the admission check runs internal/verify anyway and a dirty
	// result is simply not cached. The cache is ignored entirely when
	// Faults arms a pipeline site (faults.Set.ArmsPipeline): injected
	// failures must not poison the cache, and hits must not mask the
	// sites under test; a set arming only the serve site keeps it. It is
	// ignored too for a machine with the zero fingerprint (one
	// maril.Parse did not build): nothing identifies it, so it must
	// share entries with no other.
	Cache *cache.Cache
}

// Compiled is the result of one compilation.
type Compiled struct {
	Machine *mach.Machine
	Prog    *asm.Program
	Stats   map[string]*strategy.Stats
	// PhaseTimes sums back end wall time per phase across all
	// functions (under parallel compilation the sum can exceed the
	// elapsed wall time). Only the accepted attempt of each function is
	// counted — a function that walked the degradation ladder reports
	// the rung that produced its code, so per-phase times describe the
	// emitted program; ladder overhead is in RetryTime.
	PhaseTimes map[string]time.Duration
	// RetryTime sums the wall time failed degradation-ladder attempts
	// spent before the accepted rung (zero when nothing degraded).
	RetryTime time.Duration
	// Sel sums the selection work counters across all functions
	// (summed in deterministic source order).
	Sel sel.Counters
	// Verify merges every function's verifier findings (source order);
	// non-nil exactly when Config.Verify was set.
	Verify *verify.Report
	// Degradations lists, in source order, every function the
	// degradation ladder emitted via a fallback rung (each one
	// re-verified clean before acceptance).
	Degradations []Degradation
	// CacheHits counts functions served from the compilation cache
	// without running any back end phase.
	CacheHits int
}

// Compile compiles one source text in language lang (see Lower) for a
// shipped target. The IL is the compile's own (LowerScoped): the
// result's code reaches the module's functions and blocks, but no
// statement.
func Compile(target, lang, name, src string, cfg Config) (*Compiled, error) {
	m, err := targets.Load(target)
	if err != nil {
		return nil, err
	}
	mod, done, err := LowerScoped(lang, name, src)
	if err != nil {
		return nil, err
	}
	c, err := CompileModule(m, mod, cfg)
	done()
	return c, err
}

// Lower is the one place a source language picks its front end: "" or
// "c" runs the C front end, "il" parses textual IL (internal/iltext).
// Either way the result is a lowered IL module, ready for
// CompileModuleCtx. The module is the caller's to keep: its nodes are
// carved from a slab of its own, which the front end does not keep.
func Lower(lang, name, src string) (*ir.Module, error) {
	mod, _, err := lower(&frontEnds, lang, name, src, false)
	return mod, err
}

// LowerScoped is Lower for a compile that lowers its own source and
// keeps nothing of the IL once the back end has returned
// (marion.CodeGenerator.CompileCtx, mariond's /compile). The module's
// nodes are carved from the front end's kept slab, and done gives them
// back: it empties every block's Stmts, so the compiled code, which
// reaches the module's functions and blocks, reaches no node, then
// rewinds the slab and returns the front end to its list. The caller
// calls done once, after the compile; a compile that panics drops the
// front end instead. On an error there is nothing to give back.
func LowerScoped(lang, name, src string) (mod *ir.Module, done func(), err error) {
	return lower(&frontEnds, lang, name, src, true)
}

// Frontend runs the C front end alone: source text to a lowered IL
// module, as Lower("c", ...). Shipped code in this module goes through
// Lower; Frontend stays exported because the benchmark module (bench/)
// names it.
func Frontend(name, src string) (*ir.Module, error) { return Lower("c", name, src) }

// frontEnds is the list the front ends borrow their scratch from, as a
// claim loop of the back end borrows its worker (workers): a frontEnd
// waits here detached, so an idle one pins no unit.
var frontEnds freeList[frontEnd]

// frontEnd is the front ends' scratch: the C parser's and checker's
// (cc.Scratch), the lowering's (ilgen.Scratch), the IL parser's
// (iltext.Scratch), and the slab a scoped unit's nodes and statement
// lists are carved from, C or IL. Each scratch is detached as soon as
// its unit is lowered; the slab holds the unit's IL until the compile's
// done rewinds it.
type frontEnd struct {
	cc   cc.Scratch
	il   ilgen.Scratch
	text iltext.Scratch
	slab ir.Slab
}

// lower is Lower and LowerScoped on a frontEnd borrowed from p. The two
// differ only in where the nodes go: an escaping module's into a slab of
// its own, a scoped one's into the frontEnd's, which its done gives back.
// A panic, which only a bug can cause, drops the frontEnd instead of
// putting it back.
func lower(p *freeList[frontEnd], lang, name, src string, scoped bool) (*ir.Module, func(), error) {
	switch lang {
	case "", "c", "il":
	default:
		return nil, nil, fmt.Errorf("unknown lang %q (want \"c\" or \"il\")", lang)
	}
	fe := p.get()
	if !scoped {
		mod, err := fe.lower(lang, name, src, new(ir.Slab))
		p.put(fe)
		return mod, nil, err
	}
	mod, err := fe.lower(lang, name, src, &fe.slab)
	if err != nil {
		fe.release(p)
		return nil, nil, err
	}
	return mod, func() {
		for _, fn := range mod.Funcs {
			for _, b := range fn.Blocks {
				b.Stmts = nil
			}
		}
		fe.release(p)
	}, nil
}

// lower lowers one unit, carving its nodes from nodes, and detaches the
// scratch it used, whether or not the unit lowered.
func (fe *frontEnd) lower(lang, name, src string, nodes *ir.Slab) (*ir.Module, error) {
	if lang == "il" {
		mod, err := fe.text.Parse(name, src, nodes)
		fe.text.Detach()
		return mod, err
	}
	file, err := fe.cc.Compile(name, src)
	var mod *ir.Module
	if err == nil {
		mod, err = fe.il.Lower(file, nodes)
	}
	fe.cc.Detach()
	fe.il.Detach()
	return mod, err
}

// release rewinds the slab, whose nodes are dead, and puts fe back in p.
func (fe *frontEnd) release(p *freeList[frontEnd]) {
	fe.slab.Rewind()
	p.put(fe)
}

// checkRegTypes refuses every function that declares a register of a
// type no general register set of m holds (float, on every shipped
// target), or loads or stores a value of such a type, which selection
// would have to hold in one: each rung of the degradation ladder would
// fail selection on it, so it is reported once, naming the target and
// the type, instead. The loads and stores are read from the types the
// front end recorded (ir.Func.MemTypes), not from the IL. A module that
// passes allocates nothing here.
func checkRegTypes(m *mach.Machine, funcs []*ir.Func) error {
	var diags *Diagnostics
	for i, f := range funcs {
		if t, ok := unheldType(m, f); ok {
			if diags == nil {
				diags = &Diagnostics{}
			}
			diags.Add(i, f.Name, "registers",
				fmt.Errorf("target %s has no general register set for type %s", m.Name, t))
		}
	}
	if diags == nil {
		return nil
	}
	return diags
}

// unheldType returns a type no general register set of m holds that f
// has a register of, or loads or stores.
func unheldType(m *mach.Machine, f *ir.Func) (ir.Type, bool) {
	for _, r := range f.Regs {
		if m.Cwvm.GeneralSet(r.Type) == nil {
			return r.Type, true
		}
	}
	for t := ir.I8; t <= ir.Ptr; t++ {
		if f.MemTypes.Has(t) && m.Cwvm.GeneralSet(t) == nil {
			return t, true
		}
	}
	return ir.Void, false
}

// CompileModule is CompileModuleCtx without a context. It stays only
// because the benchmark module (bench/) names it.
func CompileModule(m *mach.Machine, mod *ir.Module, cfg Config) (*Compiled, error) {
	return CompileModuleCtx(context.Background(), m, mod, cfg)
}

// CompileModuleCtx lays out mod's globals and compiles every function
// through the back end. The context reaches the scheduler and allocator
// cycle loops, so a cancelled caller (an HTTP request, a deadline) stops
// the back end instead of waiting for it. When any function fails, the
// returned error is a *Diagnostics listing every failing function with
// its phase. A function with a register of a type the target cannot
// hold is refused before any phase runs (checkRegTypes).
func CompileModuleCtx(ctx context.Context, m *mach.Machine, mod *ir.Module, cfg Config) (*Compiled, error) {
	return compileModule(ctx, m, mod, cfg, &workers)
}

// compileModule is CompileModuleCtx with its claim loops borrowing
// their workers from p.
func compileModule(ctx context.Context, m *mach.Machine, mod *ir.Module, cfg Config, p *freeList[worker]) (*Compiled, error) {
	if err := checkRegTypes(m, mod.Funcs); err != nil {
		return nil, err
	}
	out := &Compiled{
		Machine:    m,
		Prog:       &asm.Program{Machine: m, Name: mod.Name},
		Stats:      map[string]*strategy.Stats{},
		PhaseTimes: map[string]time.Duration{},
	}

	// Data layout: globals at absolute addresses from DataBase.
	addr := DataBase
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
		if size < 0 || size > dataEnd-addr {
			return nil, fmt.Errorf("%s: global %s (%d bytes at %d) does not fit the data space [%d, %d)",
				mod.Name, g.Name, size, addr, DataBase, dataEnd)
		}
		addr += size
		out.Prog.Globals = append(out.Prog.Globals, g)
	}

	results, diags := standard.run(ctx, m, mod.Funcs, cfg, p)
	if err := diags.Err(); err != nil {
		return nil, err
	}
	if cfg.Verify {
		out.Verify = &verify.Report{}
	}
	for _, r := range results {
		out.Stats[r.IR.Name] = r.Stats
		out.Prog.Funcs = append(out.Prog.Funcs, r.Func)
		out.Sel.Add(r.Sel)
		if out.Verify != nil {
			out.Verify.Merge(r.Verify)
		}
		if r.Fallback != nil {
			out.Degradations = append(out.Degradations, *r.Fallback)
		}
		if r.CacheHit {
			out.CacheHits++
		}
		// A result's timings include every ladder attempt; attribute
		// only the accepted one to the per-phase totals so a degraded
		// function is not double-counted across rungs.
		accepted := 0
		if r.Fallback != nil {
			accepted = r.Fallback.Attempts - 1
		}
		for _, pt := range r.Timings {
			if pt.Attempt == accepted {
				out.PhaseTimes[pt.Phase] += pt.Time
			} else {
				out.RetryTime += pt.Time
			}
		}
	}
	return out, nil
}
