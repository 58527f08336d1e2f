// Package budget defines the typed errors of the back end's resource
// budgets. A budget turns a hang into an error: per-function wall-clock
// deadlines (driver.Config.Budget, enforced through context), the
// scheduler's cycle-loop step cap (sched.Options.MaxCycles) and the
// register allocator's build-color-spill round cap
// (regalloc.Options.MaxRounds) all surface here, so callers can test
// errors.Is(err, budget.ErrExceeded) without knowing which limit fired.
//
// The package is a leaf (std-lib imports only) so that sched, regalloc,
// strategy and driver can all share the sentinel without cycles.
package budget

import (
	"errors"
	"fmt"
	"time"
)

// ErrExceeded is the sentinel matched by errors.Is for every budget
// violation, whatever the concrete limit.
var ErrExceeded = errors.New("budget exceeded")

// LimitError reports which budget a computation exhausted.
type LimitError struct {
	// Stage names the bounded computation ("sched", "regalloc",
	// "deadline", a fault-injection site, ...).
	Stage string
	// Steps is the step cap that was exceeded (0 for wall-clock
	// deadlines).
	Steps int
	// Elapsed is the wall-clock budget that was exhausted (0 for step
	// caps). Rendered only when nonzero, so step-cap messages stay
	// byte-identical across runs.
	Elapsed time.Duration
	// Detail optionally carries diagnostic state gathered at the limit.
	Detail string
}

func (e *LimitError) Error() string {
	msg := e.Stage + ": budget exceeded"
	switch {
	case e.Steps > 0:
		msg += fmt.Sprintf(" (step cap %d)", e.Steps)
	case e.Elapsed > 0:
		msg += fmt.Sprintf(" (deadline %v)", e.Elapsed)
	}
	if e.Detail != "" {
		msg += ": " + e.Detail
	}
	return msg
}

// Is makes errors.Is(err, budget.ErrExceeded) hold for every LimitError.
func (e *LimitError) Is(target error) bool { return target == ErrExceeded }
