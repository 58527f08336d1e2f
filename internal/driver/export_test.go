package driver

import (
	"context"

	"marion/internal/ir"
	"marion/internal/mach"
)

// The back end's runner, as the external tests drive it: a phase list
// they may read, wrap or replace, run over a module's functions without
// CompileModuleCtx's data layout, so a test sees each function's result.
type (
	Backend = backend
	Phase   = phase
	Ctx     = funcCtx
	Result  = result
)

// NewBackend is the back end CompileModuleCtx runs.
func NewBackend() Backend { return newBackend() }

// Run is the runner CompileModuleCtx calls, its claim loops borrowing
// from the package's free list.
func (b backend) Run(ctx context.Context, m *mach.Machine, funcs []*ir.Func, cfg Config) ([]*Result, *Diagnostics) {
	return b.run(ctx, m, funcs, cfg, &workers)
}

// RunFresh is Run with every claim loop on a worker of its own, made for
// it and dropped after (the nil list): the oracle a kept worker is held
// to.
func (b backend) RunFresh(ctx context.Context, m *mach.Machine, funcs []*ir.Func, cfg Config) ([]*Result, *Diagnostics) {
	return b.run(ctx, m, funcs, cfg, nil)
}

// WorkerList and FrontEndList are the free lists the package keeps its
// workers and front ends in, for a test that decides which one a
// compile borrows and holds them while they wait.
type (
	WorkerList   = freeList[worker]
	FrontEndList = freeList[frontEnd]
)

// Idle is what waits in l, the entry put back last at the end.
func (l *freeList[T]) Idle() []any {
	l.mu.Lock()
	defer l.mu.Unlock()
	idle := make([]any, len(l.idle))
	for i, x := range l.idle {
		idle[i] = x
	}
	return idle
}

// Idle is what waits in the package's own lists.
func Idle() (workerList, frontEndList []any) { return workers.Idle(), frontEnds.Idle() }

// RunOn is Run with its claim loops borrowing from l.
func (b backend) RunOn(l *WorkerList, ctx context.Context, m *mach.Machine, funcs []*ir.Func, cfg Config) ([]*Result, *Diagnostics) {
	return b.run(ctx, m, funcs, cfg, l)
}

// CompileModuleOn is CompileModuleCtx with its claim loops borrowing
// from l.
func CompileModuleOn(l *WorkerList, ctx context.Context, m *mach.Machine, mod *ir.Module, cfg Config) (*Compiled, error) {
	return compileModule(ctx, m, mod, cfg, l)
}

// LowerOn is Lower's C front end with its scratch borrowed from l.
func LowerOn(l *FrontEndList, name, src string) (*ir.Module, error) {
	mod, _, err := lower(l, "c", name, src, false)
	return mod, err
}

// LowerScopedOn is LowerScoped with its scratch borrowed from l.
func LowerScopedOn(l *FrontEndList, lang, name, src string) (*ir.Module, func(), error) {
	return lower(l, lang, name, src, true)
}
