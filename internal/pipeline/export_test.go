package pipeline

import (
	"context"
	"sync"

	"marion/internal/ir"
	"marion/internal/mach"
)

// RunFresh is Run with every claim loop on a worker of its own, made for
// it and dropped after: the oracle a pooled worker is held to.
func (p *Pipeline) RunFresh(ctx context.Context, m *mach.Machine, funcs []*ir.Func, cfg Config) ([]*Result, *Diagnostics) {
	return p.run(ctx, m, funcs, cfg, fresh{})
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
func (p *Pipeline) RunOn(k *Kept, ctx context.Context, m *mach.Machine, funcs []*ir.Func, cfg Config) ([]*Result, *Diagnostics) {
	return p.run(ctx, m, funcs, cfg, k)
}
