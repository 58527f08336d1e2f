package driver

import (
	"fmt"
	"regexp"
	"runtime/debug"
	"strings"
)

// PanicError is a panic recovered inside a back end phase, converted
// into a structured per-function error: one pathological function (or a
// hostile machine description, or an armed panic-mode fault) is
// isolated to a diagnostic instead of killing the process.
type PanicError struct {
	Phase string
	Func  string
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack, normalized so that the
	// same panic produces the same stack text at any worker count
	// (goroutine ids and heap addresses stripped).
	Stack string
}

// Error renders the phase and panic value but not the stack, so
// diagnostics stay single-line; callers that want the trace read the
// Stack field (marionc prints it indented).
func (e *PanicError) Error() string {
	return fmt.Sprintf("panic in %s: %v", e.Phase, e.Value)
}

var (
	goroutineIDs = regexp.MustCompile(`goroutine \d+`)
	hexAddrs     = regexp.MustCompile(`0x[0-9a-f]+`)
)

// trimStack captures the current stack normalized for determinism:
// goroutine numbers and frame-argument addresses vary with scheduling,
// worker count and heap layout, and the frames below runPhase with who
// ran the function — a spawned worker or the caller of Run, whose own
// frames are no business of a diagnostic. What is left, the panic site
// down to runPhase, does not vary.
func trimStack() string {
	s := goroutineIDs.ReplaceAllString(string(debug.Stack()), "goroutine N")
	s = hexAddrs.ReplaceAllString(s, "0x?")
	// Drop the trimStack and runPhase.func frames above the panic site.
	if i := strings.Index(s, "panic("); i >= 0 {
		if j := strings.IndexByte(s[:i], '\n'); j >= 0 {
			s = s[:j+1] + s[i:]
		}
	}
	// Keep runPhase's two lines (function, file:line) and nothing below.
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		if strings.HasPrefix(l, "marion/internal/driver.runPhase(") {
			lines = lines[:min(i+2, len(lines))]
			break
		}
	}
	return strings.Join(lines, "\n")
}
