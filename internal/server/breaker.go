package server

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"marion/internal/driver"
	"marion/internal/faults"
	"marion/internal/strategy"
	"marion/internal/trace"
)

// breakerState is one circuit breaker's state.
type breakerState uint8

const (
	// stateClosed: requests flow normally; consecutive breaker-relevant
	// failures are counted.
	stateClosed breakerState = iota
	// stateOpen: requests are rerouted (down the strategy fallback chain)
	// until the cooldown elapses.
	stateOpen
	// stateHalfOpen: the cooldown elapsed and exactly one probe request is
	// in flight; its outcome closes or re-opens the breaker.
	stateHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case stateClosed:
		return "closed"
	case stateOpen:
		return "open"
	case stateHalfOpen:
		return "half-open"
	}
	return "state(?)"
}

type breaker struct {
	state   breakerState
	fails   int // consecutive failures while closed
	opened  time.Time
	probing bool // a half-open probe is in flight
}

// breakerSet is a keyed set of circuit breakers — one per
// (target, strategy) combination the server compiles under, named by
// breakerKey. All methods are safe for concurrent use.
type breakerSet struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	clock     func() time.Time
	m         map[string]*breaker

	trips, resets int64
}

// newBreakerSet builds an empty breaker set: threshold consecutive
// breaker-relevant failures (panics, budget exhaustions) trip a key
// open, and a tripped key stays open for cooldown before one probe is
// admitted. clock is the time source, injectable for deterministic
// tests.
func newBreakerSet(threshold int, cooldown time.Duration, clock func() time.Time) *breakerSet {
	return &breakerSet{threshold: threshold, cooldown: cooldown, clock: clock, m: map[string]*breaker{}}
}

// breakerKey names a breaker for a (target, strategy) combination.
func breakerKey(target, strategy string) string { return target + "/" + strategy }

// route asks the circuit breakers which strategy may run: an open
// (target, strategy) reroutes down the fallback chain to the first
// healthy rung. It reports false when every rung is open.
func (s *Server) route(rq *compileReq, kind strategy.Kind) (strategy.Kind, bool) {
	rq.bkey = breakerKey(rq.req.Target, kind.String())
	if s.breakers == nil || s.breakers.allow(rq.bkey) {
		return kind, true
	}
	orig := rq.bkey
	for _, rung := range strategy.FallbackChain(kind) {
		k := breakerKey(rq.req.Target, rung.String())
		if s.breakers.allow(k) {
			rq.bkey, rq.reroute = k, orig+" -> "+k
			rq.root.Event("breaker.reroute", "from", orig, "to", k)
			s.rerouted.Inc()
			return rung, true
		}
	}
	return kind, false
}

// settleBreaker resolves the attempt route opened under rq.bkey.
func (s *Server) settleBreaker(rq *compileReq, err error) {
	if s.breakers == nil {
		return
	}
	switch {
	case breakerRelevant(err):
		if s.breakers.failure(rq.bkey, rq.root) {
			s.quarantine(rq, err)
		}
	case rq.cfg.CacheOnly:
		// A cache-only attempt never exercised the pipeline: it can
		// neither close a half-open breaker nor reset a failure
		// streak. Return the probe slot without a verdict.
		s.breakers.cancel(rq.bkey)
	default:
		// Anything else — success, a user error, a client deadline —
		// resolves the attempt so a half-open probe can never wedge.
		s.breakers.success(rq.bkey)
	}
}

// breakerRelevant classifies a compile failure for the circuit
// breaker: panics, budget exhaustions and injected faults, wherever they
// sit in the error (Diagnostics unwraps to every function's), are
// service faults that count toward a trip; user errors, client
// deadlines and cache-only misses are not.
func breakerRelevant(err error) bool {
	var (
		sp  *servePanicError
		pe  *driver.PanicError
		inj *faults.InjectedError
	)
	return errors.As(err, &sp) || errors.As(err, &pe) || errors.As(err, &inj) || errors.Is(err, faults.ErrExceeded)
}

// allow reports whether a request may run under key. After a cooldown
// the one request allowed is the half-open probe, whose success or
// failure decides the breaker's fate. When it reports false the caller
// should reroute the request (and must NOT report success/failure under
// this key).
func (bs *breakerSet) allow(key string) bool {
	now := bs.clock()
	bs.mu.Lock()
	defer bs.mu.Unlock()
	b := bs.m[key]
	if b == nil {
		return true
	}
	switch b.state {
	case stateOpen:
		if now.Sub(b.opened) < bs.cooldown {
			return false
		}
		b.state = stateHalfOpen
	case stateHalfOpen:
		if b.probing {
			return false
		}
	default:
		return true
	}
	b.probing = true
	return true
}

// success records a completed request under key: a half-open probe
// closes the breaker; a closed breaker's failure streak resets.
func (bs *breakerSet) success(key string) {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	b := bs.m[key]
	if b == nil {
		return
	}
	switch b.state {
	case stateHalfOpen:
		b.state = stateClosed
		b.fails = 0
		b.probing = false
		bs.resets++
	case stateClosed:
		b.fails = 0
	}
}

// cancel resolves an attempt under key neutrally: the work neither
// proved nor disproved the combination's health (e.g. it was served
// from the cache without exercising the pipeline). A half-open probe's
// slot is returned without closing the breaker, so the next real
// attempt probes again; a closed breaker's failure streak is left
// untouched.
func (bs *breakerSet) cancel(key string) {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	b := bs.m[key]
	if b != nil && b.state == stateHalfOpen {
		b.probing = false
	}
}

// failure records a breaker-relevant failure under key and reports
// whether this failure tripped the breaker open (a trip is the moment
// to write a quarantine bundle). A failed half-open probe re-opens —
// that also counts as a trip. A trip is recorded as a "breaker.trip"
// event on sp (nil sp traces nothing), so the request that tripped a
// key carries the moment in its own trace.
func (bs *breakerSet) failure(key string, sp *trace.Span) (tripped bool) {
	now := bs.clock()
	bs.mu.Lock()
	b := bs.m[key]
	if b == nil {
		b = &breaker{}
		bs.m[key] = b
	}
	fails := 0
	switch b.state {
	case stateClosed:
		b.fails++
		fails = b.fails
		if b.fails >= bs.threshold {
			b.state = stateOpen
			b.opened = now
			bs.trips++
			tripped = true
		}
	case stateHalfOpen:
		b.state = stateOpen
		b.opened = now
		b.probing = false
		bs.trips++
		tripped = true
	case stateOpen:
		// A request admitted before the trip finishing late; keep open.
		b.opened = now
	}
	bs.mu.Unlock()
	if tripped {
		sp.Event("breaker.trip", "key", key)
	} else if fails > 0 {
		sp.Event("breaker.failure", "key", key, "fails", strconv.Itoa(fails))
	}
	return tripped
}

// statz fills /statz's breaker fields from one locked read: the trip
// and reset totals, and every tracked key's state ("closed",
// "closed(n fails)", "open", "half-open"; nil when no key ever failed).
func (bs *breakerSet) statz(st *Statz) {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	st.BreakerTrips, st.BreakerResets = bs.trips, bs.resets
	if len(bs.m) == 0 {
		return
	}
	st.Breakers = make(map[string]string, len(bs.m))
	for k, b := range bs.m {
		s := b.state.String()
		if b.state == stateClosed && b.fails > 0 {
			s = fmt.Sprintf("closed(%d fails)", b.fails)
		}
		st.Breakers[k] = s
	}
}
