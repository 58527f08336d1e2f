package driver

import (
	"context"
	"sync"

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
// from the package's pool.
func (b backend) Run(ctx context.Context, m *mach.Machine, funcs []*ir.Func, cfg Config) ([]*Result, *Diagnostics) {
	return b.run(ctx, m, funcs, cfg, &workers)
}

// RunFresh is Run with every claim loop on a worker of its own, made for
// it and dropped after: the oracle a pooled worker is held to.
func (b backend) RunFresh(ctx context.Context, m *mach.Machine, funcs []*ir.Func, cfg Config) ([]*Result, *Diagnostics) {
	return b.run(ctx, m, funcs, cfg, fresh{})
}

type fresh struct{}

func (fresh) Get() any { return nil }
func (fresh) Put(any)  {}

// Kept is a pool that holds every worker put into it until a claim loop
// takes it again, the newest first, so a test decides which worker a
// Run borrows and holds the workers while they wait, as the package's
// pool does between two collections.
type Kept struct {
	mu sync.Mutex
	ws []any
}

func (k *Kept) Get() any {
	k.mu.Lock()
	defer k.mu.Unlock()
	n := len(k.ws)
	if n == 0 {
		return nil
	}
	w := k.ws[n-1]
	k.ws = k.ws[:n-1]
	return w
}

func (k *Kept) Put(w any) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.ws = append(k.ws, w)
}

// Workers is what waits in k: the workers, as the pool holds them.
func (k *Kept) Workers() []any {
	k.mu.Lock()
	defer k.mu.Unlock()
	return append([]any(nil), k.ws...)
}

// RunOn is Run with its claim loops borrowing from k.
func (b backend) RunOn(k *Kept, ctx context.Context, m *mach.Machine, funcs []*ir.Func, cfg Config) ([]*Result, *Diagnostics) {
	return b.run(ctx, m, funcs, cfg, k)
}

// LowerOn is Lower's C front end with its scratch borrowed from k.
func LowerOn(k *Kept, name, src string) (*ir.Module, error) { return lowerC(name, src, k) }
