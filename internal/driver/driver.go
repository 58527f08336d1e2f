// Package driver ties Marion's phases into a compiler pipeline:
// C source -> front end -> IL -> back end pipeline (glue transform ->
// instruction selection -> code generation strategy: scheduling +
// register allocation) -> target program.
//
// The back end runs as an explicit pipeline (internal/pipeline) over
// the module's functions with a bounded worker pool; results commit in
// source order, so the emitted assembly is byte-identical whatever the
// worker count, and per-function failures are accumulated as structured
// diagnostics instead of aborting at the first error.
package driver

import (
	"context"
	"fmt"
	"time"

	"marion/internal/asm"
	"marion/internal/cc"
	"marion/internal/ilgen"
	"marion/internal/iltext"
	"marion/internal/ir"
	"marion/internal/mach"
	"marion/internal/pipeline"
	"marion/internal/sel"
	"marion/internal/strategy"
	"marion/internal/targets"
	"marion/internal/verify"
)

// DataBase is the absolute address where globals are laid out, and
// dataEnd the address they must end by: the shipped descriptions
// address memory m[0:2147483647].
const (
	DataBase = 0x2000
	dataEnd  = 1 << 31
)

// Config is the back end's option set. It is declared once, in
// internal/pipeline where every field is consumed, and passed down
// unchanged by every layer above (package marion, server, the CLIs).
type Config = pipeline.Config

// Compiled is the result of one compilation.
type Compiled struct {
	Machine *mach.Machine
	Module  *ir.Module
	Prog    *asm.Program
	Stats   map[string]*strategy.Stats
	// PhaseTimes sums back end wall time per pipeline phase across all
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
	Degradations []pipeline.Degradation
	// CacheHits counts functions served from the compilation cache
	// without running any pipeline phase.
	CacheHits int
}

// Compile compiles one source text in language lang (see Lower) for a
// shipped target.
func Compile(target, lang, name, src string, cfg Config) (*Compiled, error) {
	m, err := targets.Load(target)
	if err != nil {
		return nil, err
	}
	mod, err := Lower(lang, name, src)
	if err != nil {
		return nil, err
	}
	return CompileModule(m, mod, cfg)
}

// Lower is the one place a source language picks its front end: "" or
// "c" runs the C front end (Frontend), "il" parses textual IL
// (internal/iltext). Either way the result is a lowered IL module, ready
// for CompileModuleCtx.
func Lower(lang, name, src string) (*ir.Module, error) {
	switch lang {
	case "", "c":
		return Frontend(name, src)
	case "il":
		return iltext.Parse(name, src)
	}
	return nil, fmt.Errorf("unknown lang %q (want \"c\" or \"il\")", lang)
}

// Frontend runs the C front end alone: source text to a lowered IL
// module. Shipped code in this module goes through Lower; Frontend stays
// exported because the benchmark module (bench/) names it.
func Frontend(name, src string) (*ir.Module, error) {
	file, err := cc.Compile(name, src)
	if err != nil {
		return nil, err
	}
	return ilgen.Lower(file)
}

// CompileModule is CompileModuleCtx without a context. It stays only
// because the benchmark module (bench/) names it.
func CompileModule(m *mach.Machine, mod *ir.Module, cfg Config) (*Compiled, error) {
	return CompileModuleCtx(context.Background(), m, mod, cfg)
}

// CompileModuleCtx is CompileModule with cancellation: the context
// reaches the scheduler and allocator cycle loops through the pipeline,
// so a cancelled caller (an HTTP request, a deadline) stops the back end
// instead of waiting for it. When any function fails, the returned error
// is a *pipeline.Diagnostics listing every failing function with its
// phase.
func CompileModuleCtx(ctx context.Context, m *mach.Machine, mod *ir.Module, cfg Config) (*Compiled, error) {
	out := &Compiled{
		Machine:    m,
		Module:     mod,
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

	results, diags := pipeline.Backend().Run(ctx, m, mod.Funcs, cfg)
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
		// A Result's timings include every ladder attempt; attribute
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
