// Package marion is a Go reproduction of the Marion retargetable code
// generator construction system (Bradlee, Henry & Eggers, "The Marion
// System for Retargetable Instruction Scheduling", PLDI 1991).
//
// Marion builds complete code generators — instruction selection, list
// scheduling with structural-hazard and temporal (explicitly advanced
// pipeline) awareness, and Chaitin/Briggs global register allocation —
// from concise Maril machine descriptions. Descriptions for the paper's
// three targets (MIPS R2000, Motorola 88000, Intel i860) and its TOYP
// running example ship in internal/targets.
//
// A CodeGenerator comes from New (a shipped target) or
// NewFromDescription (Maril text) and has one entry point per input:
//
//	gen, _ := marion.New("r2000", marion.Postpass)
//	res, _ := gen.CompileCtx(ctx, "dot.c", src)   // C subset
//	res, _ = gen.CompileILCtx(ctx, "dot.il", il)  // textual IL (internal/iltext)
//	res, _ = gen.CompileModuleCtx(ctx, mod)       // an already-lowered IL module
//	fmt.Print(res.Program.Print())
//
// It is configured by setting the back end options it embeds —
// gen.Strategy, gen.Workers, gen.Verify, gen.Budget, gen.Strict,
// gen.Cache, ... — declared once in internal/driver.Config. The
// description-driven simulator runs the result:
// sim.New(res.Program, opts).Run(fn, args...) keeps its memory across
// Runs, so an init function can prepare data for a measured kernel.
//
// See examples/ for runnable programs and EXPERIMENTS.md for the
// reproduction of the paper's tables and figures.
package marion

import (
	"context"
	"fmt"

	"marion/internal/asm"
	"marion/internal/driver"
	"marion/internal/ir"
	"marion/internal/mach"
	"marion/internal/maril"
	"marion/internal/strategy"
	"marion/internal/targets"
	"marion/internal/verify"
)

// Strategy selects how scheduling and register allocation cooperate.
type Strategy = strategy.Kind

// The code generation strategies of the paper (plus two baselines).
const (
	Naive    = strategy.Naive    // global allocation, no scheduling
	Postpass = strategy.Postpass // allocate then schedule
	IPS      = strategy.IPS      // integrated prepass scheduling
	RASE     = strategy.RASE     // register allocation with schedule estimates
	Local    = strategy.Local    // local-only allocation baseline ("cc -O1")
)

// Targets lists the shipped machine descriptions.
func Targets() []string { return targets.Names() }

// CodeGenerator is a Marion-constructed code generator (paper §2):
// machine tables derived from a description plus the back end options.
//
// It is safe for concurrent use once its fields are set: Machine is
// never written by compilation, Cache is internally synchronized, and
// each compile builds its own module, program and statistics. Do not
// mutate the fields while compiles are in flight.
type CodeGenerator struct {
	Machine *mach.Machine
	driver.Config
}

// New builds a code generator for one of the shipped targets
// ("toyp", "r2000", "r2000s", "m88000", "i860", "rs6000").
func New(target string, strat Strategy) (*CodeGenerator, error) {
	m, err := targets.Load(target)
	if err != nil {
		return nil, err
	}
	return &CodeGenerator{Machine: m, Config: driver.Config{Strategy: strat}}, nil
}

// NewFromDescription builds a code generator from Maril description text
// (the retargeting path: write a description, get a code generator).
func NewFromDescription(name, source string, strat Strategy) (*CodeGenerator, error) {
	m, err := maril.Parse(name, source)
	if err != nil {
		return nil, err
	}
	return &CodeGenerator{Machine: m, Config: driver.Config{Strategy: strat}}, nil
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
	Degradations []driver.Degradation
}

// CompileCtx compiles C-subset source text. The context propagates
// through the back end into the scheduler and allocator cycle loops, so
// a request deadline interrupts the back end instead of hanging behind it.
func (g *CodeGenerator) CompileCtx(ctx context.Context, filename, source string) (*Result, error) {
	mod, err := driver.Lower("c", filename, source)
	if err != nil {
		return nil, err
	}
	return g.CompileModuleCtx(ctx, mod)
}

// CompileILCtx compiles textual IL (see internal/iltext), bypassing the
// C front end — the direct route for other front ends.
func (g *CodeGenerator) CompileILCtx(ctx context.Context, filename, source string) (*Result, error) {
	mod, err := driver.Lower("il", filename, source)
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

// Describe summarizes a constructed code generator.
func (g *CodeGenerator) Describe() string {
	st := g.Machine.Stat()
	return fmt.Sprintf("%s: %d instructions (%d escapes), %d resources, %d clocks, strategy %s",
		g.Machine.Name, st.Instrs+st.Moves, st.Seqs, len(g.Machine.Resources),
		st.Clocks, g.Strategy)
}
