// Package core is Marion's public face: a code generator construction
// system (paper §2). A CodeGenerator is built from a Maril machine
// description — either one of the shipped targets or custom description
// text — combined with a code generation strategy; it compiles the C
// subset to scheduled, register-allocated target code, which the
// description-driven simulator can execute and time.
package core

import (
	"context"
	"fmt"

	"marion/internal/asm"
	"marion/internal/driver"
	"marion/internal/iltext"
	"marion/internal/ir"
	"marion/internal/mach"
	"marion/internal/maril"
	"marion/internal/pipeline"
	"marion/internal/sim"
	"marion/internal/strategy"
	"marion/internal/targets"
	"marion/internal/verify"
)

// Strategy re-exports the code generation strategies.
type Strategy = strategy.Kind

// The four strategies of the paper plus the local-allocation baseline.
const (
	Naive    = strategy.Naive
	Postpass = strategy.Postpass
	IPS      = strategy.IPS
	RASE     = strategy.RASE
	Local    = strategy.Local
)

// Targets lists the machine descriptions shipped with Marion.
func Targets() []string { return targets.Names() }

// CodeGenerator is a constructed code generator: machine tables derived
// from a description plus the back end options (pipeline.Config:
// Strategy, Workers, Verify, Budget, Cache, ... — embedded, so every
// option the back end has is settable as gen.<Field> and reaches the
// pipeline unchanged).
//
// A CodeGenerator is safe for concurrent use: once its fields are set,
// any number of goroutines may call Compile, CompileIL and their Ctx
// variants on the same generator. The shared state is all either
// immutable after construction (Machine is finalized once and never
// written by compilation; the configuration fields are read-only during
// a compile) or internally synchronized (Cache and the metrics registry
// are lock-striped/atomic). Each compilation builds its own module,
// program and statistics, and the per-function worker pool is per-call.
// The one rule: do not mutate the exported fields while compiles are in
// flight — reconfigure by building a new generator.
type CodeGenerator struct {
	Machine *mach.Machine
	pipeline.Config
}

// New builds a code generator for a shipped target.
func New(target string, strat Strategy) (*CodeGenerator, error) {
	m, err := targets.Load(target)
	if err != nil {
		return nil, err
	}
	return &CodeGenerator{Machine: m, Config: pipeline.Config{Strategy: strat}}, nil
}

// NewFromDescription builds a code generator from Maril description text
// (the retargeting path: write a description, get a code generator).
func NewFromDescription(name, source string, strat Strategy) (*CodeGenerator, error) {
	m, err := maril.Parse(name, source)
	if err != nil {
		return nil, err
	}
	return &CodeGenerator{Machine: m, Config: pipeline.Config{Strategy: strat}}, nil
}

// Result is a compiled translation unit plus per-function statistics.
type Result struct {
	Program *asm.Program
	Module  *ir.Module
	Stats   map[string]*strategy.Stats
	// Verify holds the emitted-code verifier's findings; non-nil
	// exactly when CodeGenerator.Verify was set.
	Verify *verify.Report
	// Degradations lists every function emitted by a fallback rung of
	// the degradation ladder (source order, each re-verified clean).
	Degradations []pipeline.Degradation
}

// Compile compiles C-subset source text.
func (g *CodeGenerator) Compile(filename, source string) (*Result, error) {
	return g.CompileCtx(context.Background(), filename, source)
}

// CompileCtx is Compile with cancellation: the context propagates
// through the pipeline into the scheduler and allocator cycle loops, so
// an HTTP request deadline (or any caller cancellation) interrupts the
// back end instead of hanging behind it.
func (g *CodeGenerator) CompileCtx(ctx context.Context, filename, source string) (*Result, error) {
	mod, err := driver.Frontend(filename, source)
	if err != nil {
		return nil, err
	}
	return g.CompileModuleCtx(ctx, mod)
}

// CompileIL compiles textual IL (see internal/iltext), bypassing the C
// front end — the direct route for other front ends.
func (g *CodeGenerator) CompileIL(filename, source string) (*Result, error) {
	return g.CompileILCtx(context.Background(), filename, source)
}

// CompileILCtx is CompileIL with cancellation.
func (g *CodeGenerator) CompileILCtx(ctx context.Context, filename, source string) (*Result, error) {
	mod, err := iltext.Parse(filename, source)
	if err != nil {
		return nil, err
	}
	return g.CompileModuleCtx(ctx, mod)
}

// CompileModuleCtx compiles an already-lowered IL module.
func (g *CodeGenerator) CompileModuleCtx(ctx context.Context, mod *ir.Module) (*Result, error) {
	c, err := driver.CompileModuleCtx(ctx, g.Machine, mod, g.Config)
	if err != nil {
		return nil, err
	}
	return &Result{Program: c.Prog, Module: c.Module, Stats: c.Stats,
		Verify: c.Verify, Degradations: c.Degradations}, nil
}

// Execute runs a compiled function on the timing simulator and returns
// run statistics (cycle counts, result registers, block profile).
func Execute(p *asm.Program, fn string, args ...sim.Value) (*sim.Stats, error) {
	return sim.New(p, sim.Options{}).Run(fn, args...)
}

// Session couples a compiled program with a persistent simulator, so one
// call can initialize memory that later calls read.
type Session struct {
	Program *asm.Program
	Sim     *sim.Sim
}

// NewSession loads a program into a fresh simulator.
func NewSession(p *asm.Program, opts sim.Options) *Session {
	return &Session{Program: p, Sim: sim.New(p, opts)}
}

// Call runs one function; memory state persists across calls.
func (s *Session) Call(fn string, args ...sim.Value) (*sim.Stats, error) {
	return s.Sim.Run(fn, args...)
}

// Describe summarizes a constructed code generator.
func (g *CodeGenerator) Describe() string {
	st := g.Machine.Stat()
	return fmt.Sprintf("%s: %d instructions (%d escapes), %d resources, %d clocks, strategy %s",
		g.Machine.Name, st.Instrs+st.Moves, st.Funcs+st.Seqs, len(g.Machine.Resources),
		st.Clocks, g.Strategy)
}
