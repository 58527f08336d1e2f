package server

import (
	"sync"
	"time"

	"marion/internal/strategy"
)

// Brownout levels: what the server gives up at each rung. Each level
// includes everything above it; the ladder is climbed and descended one
// level at a time. applyBrownout is what each level does to a request.
const (
	// levelNormal serves full-quality responses.
	levelNormal = 0
	// levelNoVerify disables the optional verify phase on requests that
	// asked for it (the cheapest quality give-back: results are still
	// exactly the requested strategy's code).
	levelNoVerify = 1
	// levelCheapStrategy caps the strategy at Postpass: the expensive
	// combinatorial rungs (RASE, IPS) are served with the cheaper
	// schedule-after-allocate pipeline.
	levelCheapStrategy = 2
	// levelSafe forces the Safe strategy: sequential, nop-filled,
	// cheapest code generation that is still correct by construction.
	levelSafe = 3
	// levelCacheOnly serves cache hits only; misses are shed with a
	// retry hint instead of compiling anything.
	levelCacheOnly = 4
)

// The ladder's hysteresis constants.
const (
	// enterPressure is the pressure at or above which the level rises:
	// the wait queue half full (see limiter.pressure).
	enterPressure = 0.75
	// exitPressure is the pressure at or below which recovery begins.
	// Between the two the level holds — that band is the hysteresis
	// that stops flapping.
	exitPressure = 0.45
	// riseDwell is the minimum dwell between two raises, so a single
	// burst climbs the ladder level-by-level, not in one jump.
	riseDwell = 50 * time.Millisecond
	// holdDwell is how long pressure must stay at or below exitPressure
	// before each one-level recovery step.
	holdDwell = 500 * time.Millisecond
)

// brownout is the hysteretic degradation ladder, levelNormal through
// levelCacheOnly. observe is fed the limiter's pressure signal (from
// request handling and from a periodic tick, so recovery happens even
// when no requests arrive).
type brownout struct {
	mu    sync.Mutex
	clock func() time.Time
	lvl   int
	last  time.Time // time of the last level change
	calm  time.Time // since when pressure has stayed <= exitPressure (zero: it hasn't)
}

// observe feeds one pressure sample and returns the (possibly changed)
// level. Rising is fast (one level per riseDwell while pressure stays
// at or above enterPressure); falling is slow (one level per holdDwell
// of continuously calm pressure).
func (b *brownout) observe(p float64) int {
	now := b.clock()
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case p >= enterPressure:
		b.calm = time.Time{}
		if b.lvl < levelCacheOnly && (b.lvl == 0 || now.Sub(b.last) >= riseDwell) {
			b.lvl++
			b.last = now
		}
	case p <= exitPressure:
		if b.calm.IsZero() {
			b.calm = now
		}
		if b.lvl > 0 && now.Sub(b.calm) >= holdDwell && now.Sub(b.last) >= holdDwell {
			b.lvl--
			b.last = now
		}
	default:
		// Hysteresis band: hold the level, restart the calm clock.
		b.calm = time.Time{}
	}
	return b.lvl
}

// level returns the current brownout level without observing.
func (b *brownout) level() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.lvl
}

// applyBrownout maps a brownout level onto one request's fidelity:
// which strategy actually runs, whether verify runs, and whether only
// cache hits are served. The returned notes name each cut for the
// response body.
func applyBrownout(lvl int, kind strategy.Kind, verify bool) (strategy.Kind, bool, bool, []string) {
	var notes []string
	if lvl >= levelNoVerify && verify {
		verify = false
		notes = append(notes, "verify disabled")
	}
	switch {
	case lvl >= levelCacheOnly:
		// Cache keys include the strategy, so the REQUESTED strategy is
		// kept: that is what earlier full-fidelity compiles cached under.
		notes = append(notes, "cache-only")
		return kind, verify, true, notes
	case lvl >= levelSafe:
		if kind != strategy.Safe {
			notes = append(notes, "strategy forced "+kind.String()+" -> "+strategy.Safe.String())
			kind = strategy.Safe
		}
	case lvl >= levelCheapStrategy:
		if cheaper := capStrategy(kind); cheaper != kind {
			notes = append(notes, "strategy capped "+kind.String()+" -> "+cheaper.String())
			kind = cheaper
		}
	}
	return kind, verify, false, notes
}

// capStrategy caps expensive strategies at postpass (the cheap-strategy
// brownout level); already-cheap kinds pass through.
func capStrategy(k strategy.Kind) strategy.Kind {
	switch k {
	case strategy.RASE, strategy.IPS, strategy.Local:
		return strategy.Postpass
	}
	return k
}
