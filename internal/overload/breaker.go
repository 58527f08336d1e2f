package overload

import (
	"fmt"
	"strconv"
	"sync"
	"time"

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

// BreakerConfig tunes the per-key breakers.
type BreakerConfig struct {
	// Threshold is the number of consecutive breaker-relevant failures
	// (panics, budget exhaustions) that trips a key open. <= 0 means 5.
	Threshold int
	// Cooldown is how long a tripped key stays open before one probe is
	// admitted (default 1s).
	Cooldown time.Duration
	// Clock is the time source (default time.Now), injectable for
	// deterministic tests.
	Clock func() time.Time
}

func (c *BreakerConfig) fill() {
	if c.Threshold <= 0 {
		c.Threshold = 5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = time.Second
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
}

type breaker struct {
	state   breakerState
	fails   int // consecutive failures while closed
	opened  time.Time
	probing bool // a half-open probe is in flight
}

// Breakers is a keyed set of circuit breakers — one per
// (target, strategy) combination the server compiles under. All
// methods are safe for concurrent use.
type Breakers struct {
	mu  sync.Mutex
	cfg BreakerConfig
	m   map[string]*breaker

	trips, resets int64
}

// NewBreakers builds an empty breaker set.
func NewBreakers(cfg BreakerConfig) *Breakers {
	cfg.fill()
	return &Breakers{cfg: cfg, m: map[string]*breaker{}}
}

// Key names a breaker for a (target, strategy) combination.
func Key(target, strategy string) string { return target + "/" + strategy }

// Allow reports whether a request may run under key. probe is true
// when the request is the single half-open probe after a cooldown —
// its Success or Failure decides the breaker's fate. When allowed is
// false the caller should reroute the request (and must NOT report
// Success/Failure under this key).
func (bs *Breakers) Allow(key string) (allowed, probe bool) {
	now := bs.cfg.Clock()
	bs.mu.Lock()
	defer bs.mu.Unlock()
	b := bs.m[key]
	if b == nil {
		return true, false
	}
	switch b.state {
	case stateClosed:
		return true, false
	case stateOpen:
		if now.Sub(b.opened) >= bs.cfg.Cooldown {
			b.state = stateHalfOpen
			b.probing = true
			return true, true
		}
		return false, false
	case stateHalfOpen:
		if !b.probing {
			b.probing = true
			return true, true
		}
		return false, false
	}
	return true, false
}

// Success records a completed request under key: a half-open probe
// closes the breaker; a closed breaker's failure streak resets.
func (bs *Breakers) Success(key string) {
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

// Cancel resolves an attempt under key neutrally: the work neither
// proved nor disproved the combination's health (e.g. it was served
// from the cache without exercising the pipeline). A half-open probe's
// slot is returned without closing the breaker, so the next real
// attempt probes again; a closed breaker's failure streak is left
// untouched.
func (bs *Breakers) Cancel(key string) {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	b := bs.m[key]
	if b != nil && b.state == stateHalfOpen {
		b.probing = false
	}
}

// Failure records a breaker-relevant failure under key and reports
// whether this failure tripped the breaker open (a trip is the moment
// to write a quarantine bundle). A failed half-open probe re-opens —
// that also counts as a trip. A trip is recorded as a "breaker.trip"
// event on sp (nil sp traces nothing), so the request that tripped a
// key carries the moment in its own trace.
func (bs *Breakers) Failure(key string, sp *trace.Span) (tripped bool) {
	now := bs.cfg.Clock()
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
		if b.fails >= bs.cfg.Threshold {
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

// States renders every tracked key's state, for /statz: "closed",
// "closed(n fails)", "open", "half-open".
func (bs *Breakers) States() map[string]string {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if len(bs.m) == 0 {
		return nil
	}
	out := make(map[string]string, len(bs.m))
	for k, b := range bs.m {
		s := b.state.String()
		if b.state == stateClosed && b.fails > 0 {
			s = fmt.Sprintf("closed(%d fails)", b.fails)
		}
		out[k] = s
	}
	return out
}

// BreakerSnapshot is a point-in-time view for /statz.
type BreakerSnapshot struct {
	Trips, Resets int64
}

// Snapshot reads trip/reset totals.
func (bs *Breakers) Snapshot() BreakerSnapshot {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	return BreakerSnapshot{Trips: bs.trips, Resets: bs.resets}
}
