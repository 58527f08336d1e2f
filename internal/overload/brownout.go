package overload

import (
	"sync"
	"time"
)

// Brownout levels: what the server gives up at each rung. Each level
// includes everything above it; the ladder is climbed and descended one
// level at a time.
const (
	// levelNormal serves full-quality responses.
	levelNormal = 0
	// LevelNoVerify disables the optional verify phase on requests that
	// asked for it (the cheapest quality give-back: results are still
	// exactly the requested strategy's code).
	LevelNoVerify = 1
	// LevelCheapStrategy caps the strategy at Postpass: the expensive
	// combinatorial rungs (RASE, IPS) are served with the cheaper
	// schedule-after-allocate pipeline.
	LevelCheapStrategy = 2
	// LevelSafe forces the Safe strategy: sequential, nop-filled,
	// cheapest code generation that is still correct by construction.
	LevelSafe = 3
	// LevelCacheOnly serves cache hits only; misses are shed with a
	// retry hint instead of compiling anything.
	LevelCacheOnly = 4
)

// The ladder's hysteresis constants.
const (
	// enterPressure is the pressure at or above which the level rises:
	// the wait queue half full (see Limiter.Pressure).
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

// Brownout is the hysteretic degradation ladder, levelNormal through
// LevelCacheOnly. Observe is fed the limiter's pressure signal (from
// request handling and from a periodic tick, so recovery happens even
// when no requests arrive).
type Brownout struct {
	mu    sync.Mutex
	clock func() time.Time
	lvl   int
	last  time.Time // time of the last level change
	calm  time.Time // since when pressure has stayed <= exitPressure (zero: it hasn't)
}

// NewBrownout builds a Brownout at level 0 reading time from clock,
// injectable so the hysteresis is deterministic under test.
func NewBrownout(clock func() time.Time) *Brownout { return &Brownout{clock: clock} }

// Observe feeds one pressure sample and returns the (possibly changed)
// level. Rising is fast (one level per riseDwell while pressure stays
// at or above enterPressure); falling is slow (one level per holdDwell
// of continuously calm pressure).
func (b *Brownout) Observe(p float64) int {
	now := b.clock()
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case p >= enterPressure:
		b.calm = time.Time{}
		if b.lvl < LevelCacheOnly && (b.lvl == 0 || now.Sub(b.last) >= riseDwell) {
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

// Level returns the current brownout level without observing.
func (b *Brownout) Level() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.lvl
}

// Force pins the level directly — for tests and for operators draining
// a known-degraded instance. It resets the hysteresis clocks.
func (b *Brownout) Force(level int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.lvl = min(max(level, levelNormal), LevelCacheOnly)
	b.last = b.clock()
	b.calm = time.Time{}
}
