// Package marion is a Go reproduction of the Marion retargetable code
// generator construction system (Bradlee, Henry & Eggers, "The Marion
// System for Retargetable Instruction Scheduling", PLDI 1991).
//
// Marion builds complete code generators — instruction selection, list
// scheduling with structural-hazard and temporal (explicitly advanced
// pipeline) awareness, and Chaitin/Briggs global register allocation —
// from concise Maril machine descriptions. Descriptions for the paper's
// three targets (MIPS R2000, Motorola 88000, Intel i860) and its TOYP
// running example ship in internal/targets; a description-driven
// cycle simulator executes and times the generated code.
//
// Quick start:
//
//	gen, _ := marion.New("r2000", marion.Postpass)
//	res, _ := gen.Compile("dot.c", `
//	    double dot(double *a, double *b, int n) {
//	        int i; double s = 0.0;
//	        for (i = 0; i < n; i++) s = s + a[i]*b[i];
//	        return s;
//	    }`)
//	fmt.Print(res.Program.Print())
//
// Entry points. A CodeGenerator comes from New (a shipped target) or
// NewFromDescription (Maril text) and compiles with
//
//	gen.Compile(file, src)               C subset
//	gen.CompileIL(file, src)             textual IL (internal/iltext)
//	gen.CompileCtx, gen.CompileILCtx     the same, cancellable
//	gen.CompileModuleCtx(ctx, mod)       an already-lowered IL module
//
// It is configured by setting the back end options it embeds —
// gen.Strategy, gen.Workers, gen.Verify, gen.Budget, gen.Strict,
// gen.Cache, ... — which are declared once (internal/pipeline.Config)
// and shared by every layer down to the phases that read them.
// Execute and NewSession run compiled code on the simulator.
//
// See examples/ for runnable programs and EXPERIMENTS.md for the
// reproduction of the paper's tables and figures.
package marion

import (
	"marion/internal/asm"
	"marion/internal/core"
	"marion/internal/sim"
)

// Strategy selects how scheduling and register allocation cooperate.
type Strategy = core.Strategy

// The code generation strategies of the paper (plus two baselines).
const (
	Naive    = core.Naive    // global allocation, no scheduling
	Postpass = core.Postpass // allocate then schedule
	IPS      = core.IPS      // integrated prepass scheduling
	RASE     = core.RASE     // register allocation with schedule estimates
	Local    = core.Local    // local-only allocation baseline ("cc -O1")
)

// CodeGenerator is a Marion-constructed code generator.
type CodeGenerator = core.CodeGenerator

// Result is a compiled translation unit.
type Result = core.Result

// Session couples a program with a persistent simulator.
type Session = core.Session

// New builds a code generator for one of the shipped targets
// ("toyp", "r2000", "r2000s", "m88000", "i860", "rs6000").
func New(target string, strat Strategy) (*CodeGenerator, error) {
	return core.New(target, strat)
}

// NewFromDescription builds a code generator from Maril description text.
func NewFromDescription(name, source string, strat Strategy) (*CodeGenerator, error) {
	return core.NewFromDescription(name, source, strat)
}

// Targets lists the shipped machine descriptions.
func Targets() []string { return core.Targets() }

// NewSession loads a compiled program into a fresh simulator; memory
// state persists across calls, so an init function can prepare data for
// a measured kernel.
func NewSession(p *asm.Program, opts sim.Options) *Session {
	return core.NewSession(p, opts)
}

// Execute compiles nothing and runs one function of a compiled program.
func Execute(p *asm.Program, fn string, args ...sim.Value) (*sim.Stats, error) {
	return core.Execute(p, fn, args...)
}
