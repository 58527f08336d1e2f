package server

import (
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
	// the wait queue half full (see limiter.pressureLocked).
	enterPressure = 0.75
	// exitPressure is the pressure at or below which recovery begins.
	// Between the two the level holds — that band is the hysteresis
	// that stops flapping.
	exitPressure = 0.45
	// riseDwell is the dwell between two raises, so a single burst
	// climbs the ladder level by level, not in one jump.
	riseDwell = 50 * time.Millisecond
	// holdDwell is how long pressure must stay at or below exitPressure
	// before each one-level recovery step.
	holdDwell = 500 * time.Millisecond
)

// regime is where pressure sits against the thresholds, as the way it
// moves the level: calm (at or below exitPressure) lowers it, high (at
// or above enterPressure) raises it, and the band between holds it.
type regime int8

const calm, band, high regime = -1, 0, 1

func regimeOf(p float64) regime {
	switch {
	case p >= enterPressure:
		return high
	case p <= exitPressure:
		return calm
	}
	return band
}

// advanceLocked brings the ladder up to the admission state the limiter
// holds now and returns its level (levelNormal when the ladder is off).
// It first takes every step the elapsed time allows under the regime
// that held, then switches to the regime the current pressure gives.
// The limiter calls it at every change of admission state and every
// read, so no goroutine has to poll the pressure.
func (l *limiter) advanceLocked() int {
	if l.clock == nil {
		return levelNormal
	}
	now := l.clock()
	l.stepLocked(now)
	if r := regimeOf(l.pressureLocked()); r != l.regime {
		l.regime, l.regimeSince = r, now
		l.stepLocked(now)
	}
	return l.lvl
}

// stepLocked takes every step that falls due by now under the regime
// that holds. In high, the level rises a step at once from levelNormal,
// then one per riseDwell; in calm, it falls a step per holdDwell of
// calm, and no sooner than holdDwell after the last change. A step is
// dated when it fell due, not when it is seen, so the level does not
// depend on how often the ladder is advanced.
func (l *limiter) stepLocked(now time.Time) {
	for {
		var due time.Time
		switch {
		case l.regime == high && l.lvl == levelNormal:
			due = l.regimeSince
		case l.regime == high && l.lvl < levelCacheOnly:
			due = later(l.regimeSince, l.lvlSince.Add(riseDwell))
		case l.regime == calm && l.lvl > levelNormal:
			due = later(l.regimeSince, l.lvlSince).Add(holdDwell)
		default:
			return
		}
		if due.After(now) {
			return
		}
		l.lvl += int(l.regime)
		l.lvlSince = due
	}
}

func later(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
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
