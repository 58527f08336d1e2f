package driver

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Diagnostic is one structured back end error: which function failed, in
// which phase, and why. It wraps the underlying error so callers can
// still errors.Is/As through it.
type Diagnostic struct {
	// Index is the function's position in the module's source order;
	// diagnostics sort by it so concurrent compilation reports failures
	// deterministically.
	Index int
	Func  string
	Phase string
	Err   error
}

func (d Diagnostic) Error() string {
	return fmt.Sprintf("%s: %s: %v", d.Func, d.Phase, d.Err)
}

// Unwrap exposes the underlying phase error.
func (d Diagnostic) Unwrap() error { return d.Err }

// Diagnostics accumulates per-function, per-phase errors from
// (possibly concurrent) back end workers. The zero value is ready to
// use. A run with diagnostics reports every failing function, not just
// the first one.
type Diagnostics struct {
	mu   sync.Mutex
	list []Diagnostic
}

// Add records one failure. Safe for concurrent use.
func (d *Diagnostics) Add(index int, fn, phase string, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.list = append(d.list, Diagnostic{Index: index, Func: fn, Phase: phase, Err: err})
}

// All returns the recorded diagnostics in source order.
func (d *Diagnostics) All() []Diagnostic {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Diagnostic, len(d.list))
	copy(out, d.list)
	sort.SliceStable(out, func(a, b int) bool { return out[a].Index < out[b].Index })
	return out
}

// Empty reports whether no failures were recorded.
func (d *Diagnostics) Empty() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.list) == 0
}

// Err returns nil when no failures were recorded, and the accumulator
// itself (as an error listing every failure) otherwise.
func (d *Diagnostics) Err() error {
	if d.Empty() {
		return nil
	}
	return d
}

// Unwrap exposes every recorded failure, in source order, so
// errors.Is/As see through the accumulator to each phase error.
func (d *Diagnostics) Unwrap() []error {
	all := d.All()
	out := make([]error, len(all))
	for i, dg := range all {
		out[i] = dg
	}
	return out
}

// Error renders every recorded failure, one per line.
func (d *Diagnostics) Error() string {
	all := d.All()
	if len(all) == 1 {
		return all[0].Error()
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d functions failed:", len(all))
	for _, dg := range all {
		sb.WriteString("\n\t")
		sb.WriteString(dg.Error())
	}
	return sb.String()
}
