// Package faults is Marion's failure model: the typed errors of the
// back end's resource budgets and a deterministic fault-injection
// harness.
//
// A budget turns a hang into an error. The scheduler's cycle-loop step
// cap (sched.Options.MaxCycles) and the register allocator's round cap
// (regalloc.Options.MaxRounds) return a *LimitError where they fire; a
// per-function wall-clock deadline (driver.Config.Budget) becomes one
// only in the driver, which alone can tell the attempt's own deadline
// from the run's. Callers test errors.Is(err, faults.ErrExceeded)
// without knowing which limit fired.
//
// Named injection sites are threaded through every back end phase; a
// parsed spec (the -faults flag or MARION_FAULTS) arms faults at those
// sites, selected by function and attempt, so chaos tests can prove the
// process never dies, hangs are bounded by budgets, and degradations
// are reported identically at any worker count.
//
// Spec grammar (entries separated by ';' or ','):
//
//	entry := site ':' mode option*
//	option := '@fn=' NAME-or-INDEX   fire only for this function
//	        | '@all'                 fire on fallback attempts too
//	        | '@max=' UINT           fire only for the first N indexes
//
// Modes:
//
//	panic  the site panics (exercises the pipeline's panic isolation)
//	err    the site returns an *InjectedError
//	hang   the site blocks until its context is cancelled (exercises
//	       budgets: with a per-function budget the hang becomes a
//	       deadline error; without one it parks until the run ends)
//
// Examples:
//
//	select:panic@fn=3
//	sched:hang;regalloc:err@fn=inner
//	strategy:panic@max=2
//
// Selection is a pure function of (site, function name, function index,
// attempt) — never of time, goroutine identity or worker count —
// so a spec misbehaves identically on every run.
//
// Beyond the pipeline sites (Sites), the compile service arms faults at
// the server-level site "serve": mariond fires it around each
// admitted request, with the breaker key (target/strategy) as the
// function name and the per-key request sequence number as the index.
// `serve:err@fn=r2000/rase@max=3` therefore makes exactly the first
// three r2000/rase requests fail — the deterministic chaos hook that
// drives a circuit breaker through trip, re-open and probe-based reset.
package faults

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"
)

// ErrExceeded is the sentinel matched by errors.Is for every budget
// violation, whatever the concrete limit.
var ErrExceeded = errors.New("budget exceeded")

// LimitError reports which budget a computation exhausted.
type LimitError struct {
	// Stage names the bounded computation ("sched", "regalloc", the
	// driver phase a deadline cut off, ...).
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

// Is makes errors.Is(err, ErrExceeded) hold for every LimitError.
func (e *LimitError) Is(target error) bool { return target == ErrExceeded }

// Mode is what an armed fault does when its site fires.
type Mode uint8

const (
	modeNone Mode = iota
	modePanic
	modeError
	modeHang
)

var modeNames = map[Mode]string{modePanic: "panic", modeError: "err", modeHang: "hang"}

func (m Mode) String() string {
	if n, ok := modeNames[m]; ok {
		return n
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// parseMode converts a mode name.
func parseMode(s string) (Mode, error) {
	for m, n := range modeNames {
		if n == s {
			return m, nil
		}
	}
	return modeNone, fmt.Errorf("unknown fault mode %q (want panic, err, hang)", s)
}

// Sites is the PIPELINE injection-site catalogue: every named point in
// the back end where a fault can be armed, in pipeline order. The
// chaos sweep (TestFaultMatrix in internal/experiments) iterates exactly
// this list.
func Sites() []string {
	return []string{"xform", "select", "strategy", "sched", "regalloc", "frame", "verify"}
}

// serveSite is the one server-level site: mariond fires it around
// request handling rather than inside the back end, so chaos specs can
// fail whole requests (and trip circuit breakers) deterministically.
// Parse accepts it, but it is not in Sites, so the pipeline chaos
// sweep's axis is unchanged.
const serveSite = "serve"

func knownSite(s string) bool { return s == serveSite || slices.Contains(Sites(), s) }

// Fault is one armed fault.
type Fault struct {
	Site string
	Mode Mode
	// Fn restricts the fault to one function, by name or by decimal
	// source-order index; empty matches every function.
	Fn string
	// All fires the fault on every compilation attempt; by default a
	// fault fires only on the primary attempt (attempt 0), so the
	// degradation ladder's retries run clean.
	All bool
	// Max > 0 restricts the fault to the first Max indexes (index <
	// Max). Pipeline sites index by source order, so @max bounds which
	// functions fire; the server's serve site indexes by per-key request
	// sequence, so @max bounds HOW MANY requests fail — the knob that
	// lets a breaker's probe eventually succeed.
	Max uint64
}

func (f Fault) String() string {
	s := f.Site + ":" + f.Mode.String()
	if f.Fn != "" {
		s += "@fn=" + f.Fn
	}
	if f.All {
		s += "@all"
	}
	if f.Max > 0 {
		s += fmt.Sprintf("@max=%d", f.Max)
	}
	return s
}

// Set is a parsed fault spec. A nil *Set arms nothing.
type Set struct {
	Faults []Fault
}

// Empty reports whether no faults are armed.
func (s *Set) Empty() bool { return s == nil || len(s.Faults) == 0 }

// ArmsPipeline reports whether the set arms a back end site (one of
// Sites). Only such a set can fail a compile from inside, so it is what
// switches the compilation cache off; a set arming only the serve site
// leaves the back end as it is.
func (s *Set) ArmsPipeline() bool {
	if s == nil {
		return false
	}
	for _, f := range s.Faults {
		if slices.Contains(Sites(), f.Site) {
			return true
		}
	}
	return false
}

func (s *Set) String() string {
	if s.Empty() {
		return ""
	}
	parts := make([]string, len(s.Faults))
	for i, f := range s.Faults {
		parts[i] = f.String()
	}
	return strings.Join(parts, ";")
}

// Parse parses a fault spec. The empty string parses to nil (nothing
// armed).
func Parse(spec string) (*Set, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	set := &Set{}
	for _, entry := range strings.FieldsFunc(spec, func(r rune) bool { return r == ';' || r == ',' }) {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		parts := strings.Split(entry, "@")
		head := parts[0]
		colon := strings.IndexByte(head, ':')
		if colon < 0 {
			return nil, fmt.Errorf("fault %q: want site:mode", entry)
		}
		f := Fault{Site: head[:colon]}
		if !knownSite(f.Site) {
			return nil, fmt.Errorf("fault %q: unknown site %q (want %s)",
				entry, f.Site, strings.Join(Sites(), ", "))
		}
		mode, err := parseMode(head[colon+1:])
		if err != nil {
			return nil, fmt.Errorf("fault %q: %w", entry, err)
		}
		f.Mode = mode
		for _, opt := range parts[1:] {
			key, val, hasVal := strings.Cut(opt, "=")
			switch {
			case key == "all" && !hasVal:
				f.All = true
			case key == "fn" && hasVal:
				f.Fn = val
			case key == "max" && hasVal:
				n, err := strconv.ParseUint(val, 10, 64)
				if err != nil || n == 0 {
					return nil, fmt.Errorf("fault %q: bad max %q", entry, val)
				}
				f.Max = n
			default:
				return nil, fmt.Errorf("fault %q: unknown option %q", entry, opt)
			}
		}
		set.Faults = append(set.Faults, f)
	}
	if len(set.Faults) == 0 {
		return nil, nil
	}
	return set, nil
}

// matches reports whether the fault is armed for this function attempt.
func (f *Fault) matches(fn string, index, attempt int) bool {
	if !f.All && attempt != 0 {
		return false
	}
	if f.Fn != "" && f.Fn != fn {
		if i, err := strconv.Atoi(f.Fn); err != nil || i != index {
			return false
		}
	}
	return f.Max == 0 || uint64(index) < f.Max
}

// InjectedError is the error an err-mode fault returns from its site.
type InjectedError struct {
	Site string
	Fn   string
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("injected fault at %s (%s)", e.Site, e.Fn)
}

// injectedPanic is the value a panic-mode fault panics with.
type injectedPanic struct {
	Site string
	Fn   string
}

func (p *injectedPanic) String() string {
	return fmt.Sprintf("injected panic at %s (%s)", p.Site, p.Fn)
}

// Injector binds a Set to one function's compilation attempt; phases
// call Fire at their sites. A nil *Injector fires nothing, so fault
// plumbing costs one nil check when injection is off.
type Injector struct {
	set     *Set
	ctx     context.Context
	fn      string
	index   int
	attempt int
}

// New returns an injector for one (function, attempt); nil when the set
// arms nothing.
func New(set *Set, ctx context.Context, fn string, index, attempt int) *Injector {
	if set.Empty() {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return &Injector{set: set, ctx: ctx, fn: fn, index: index, attempt: attempt}
}

// mode probes the armed mode at a site without firing it.
func (in *Injector) mode(site string) Mode {
	if in == nil {
		return modeNone
	}
	for i := range in.set.Faults {
		f := &in.set.Faults[i]
		if f.Site == site && f.matches(in.fn, in.index, in.attempt) {
			return f.Mode
		}
	}
	return modeNone
}

// Fire triggers any fault armed at the site: panic-mode faults panic
// with an *injectedPanic, err-mode faults return an *InjectedError, and
// hang-mode faults block until the attempt's context is done, then
// return its error (a deadline when a budget is set) wrapped with the
// site name.
func (in *Injector) Fire(site string) error {
	if in == nil {
		return nil
	}
	switch in.mode(site) {
	case modePanic:
		panic(&injectedPanic{Site: site, Fn: in.fn})
	case modeError:
		return &InjectedError{Site: site, Fn: in.fn}
	case modeHang:
		<-in.ctx.Done()
		return fmt.Errorf("injected hang at %s (%s): %w", site, in.fn, in.ctx.Err())
	}
	return nil
}
