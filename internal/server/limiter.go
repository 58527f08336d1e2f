package server

import (
	"context"
	"math"
	"strconv"
	"sync"
	"time"

	"marion/internal/trace"
)

// decision is the outcome of limiter.acquire.
type decision uint8

const (
	// admitted: the caller holds a slot and must call the release func.
	admitted decision = iota
	// shedFull: the wait queue was full; retry after retryAfter.
	shedFull
	// shedDoomed: the request's remaining deadline is below the service
	// estimate — it would expire in the queue, so it is shed up front.
	shedDoomed
	// expired: the context finished while queued.
	expired
)

func (d decision) String() string {
	switch d {
	case admitted:
		return "admitted"
	case shedFull:
		return "shed-full"
	case shedDoomed:
		return "shed-doomed"
	case expired:
		return "expired"
	}
	return "decision(?)"
}

// slotOutcome classifies how an admitted request used its slot; it is
// the release func's argument.
type slotOutcome uint8

const (
	// slotDone: the work ran to completion; its service time feeds the
	// EWMA estimate and the AIMD rule as an SLO sample.
	slotDone slotOutcome = iota
	// slotBreached: the work died on its deadline; the sample counts
	// against the SLO.
	slotBreached
	// slotSkipped: the slot is returned without the work having run (a
	// pre-work validation error). No sample is recorded, so a flood of
	// invalid requests can neither shrink the service estimate nor
	// inflate the adaptive limit.
	slotSkipped
)

// The AIMD controller's fixed constants. The adaptive limit stays in
// [minLimit, maxLimitFactor * initial].
const (
	minLimit       = 1
	maxLimitFactor = 4
	// decreaseFactor is the multiplicative-decrease ratio applied when
	// a sample breaches the SLO. Decreases are paced: at most one per
	// SLO interval, so one burst of slow completions does not collapse
	// the limit to minLimit.
	decreaseFactor = 0.7
	// alpha is the EWMA smoothing factor for the service-time estimate.
	alpha = 0.3
)

// waiter is one queued acquire; res is buffered so the limiter never
// blocks resolving it.
type waiter struct {
	res      chan decision
	deadline time.Time   // zero: no deadline
	sp       *trace.Span // nil when the request is untraced
}

// limiter is the adaptive admission controller: an AIMD concurrency
// limit driven by measured service time against the SLO, a
// deadline-aware wait queue, and the brownout ladder that admission
// pressure drives. All methods are safe for concurrent use.
type limiter struct {
	mu       sync.Mutex
	initial  int           // the starting limit; the limit grows to maxLimitFactor times it
	slo      time.Duration // 0: the limit stays at initial
	maxQueue int
	limit    int
	inflight int
	queue    []*waiter

	est     float64 // EWMA service-time estimate, seconds; 0 = no samples
	succ    int     // in-SLO completions since the last limit change
	lastDec time.Time

	// The brownout ladder (brownout.go), advanced by advanceLocked.
	clock       func() time.Time // its time source; nil: no ladder
	lvl         int              // its level, levelNormal to levelCacheOnly
	lvlSince    time.Time        // when lvl last changed
	regime      regime           // the pressure regime that holds
	regimeSince time.Time        // since when regime has held
}

// newLimiter builds a limiter admitting initial (at least 1) requests
// at once and queueing up to maxQueue more. slo is the target service
// time driving AIMD adaptation; zero keeps the limit fixed at initial
// (the static-semaphore behavior). A non-nil clock arms the brownout
// ladder and is its time source.
func newLimiter(initial int, slo time.Duration, maxQueue int, clock func() time.Time) *limiter {
	return &limiter{initial: initial, slo: slo, maxQueue: maxQueue, limit: initial, clock: clock}
}

// acquire takes an admission slot. On admitted the returned release
// func MUST be called exactly once when the work finishes; its
// slotOutcome argument reports whether the work completed (slotDone),
// died on its deadline (slotBreached — the sample still counts against
// the SLO), or never ran (slotSkipped — the slot is returned without a
// sample). Every other decision returns a nil release.
//
// A full queue sheds the request as shedFull. The context's deadline
// drives doomed-shedding: when the remaining deadline is below the EWMA
// service estimate, queueing cannot help and the request is shed as
// shedDoomed, up front or later from the queue, each time with an
// overload.evict event on sp (nil sp traces nothing).
func (l *limiter) acquire(ctx context.Context, sp *trace.Span) (release func(o slotOutcome), dec decision) {
	l.mu.Lock()
	var w *waiter
	dl, _ := ctx.Deadline()
	switch {
	case l.inflight < l.limit && len(l.queue) == 0:
		l.inflight++ // dec is admitted
	case len(l.queue) >= l.maxQueue:
		dec = shedFull
	case l.doomedLocked(dl, time.Now()):
		sp.Event("overload.evict", "reason", "doomed-upfront",
			"estimate_ms", strconv.FormatInt(int64(l.est*1e3), 10))
		dec = shedDoomed
	default:
		w = &waiter{res: make(chan decision, 1), deadline: dl, sp: sp}
		l.queue = append(l.queue, w)
	}
	l.advanceLocked()
	l.mu.Unlock()
	if w != nil {
		select {
		case dec = <-w.res:
		case <-ctx.Done():
			dec = l.leave(w)
		}
	}
	if dec == admitted {
		return l.releaser(time.Now()), admitted
	}
	return nil, dec
}

// leave takes a waiter whose context finished out of the queue. A
// waiter the limiter already resolved keeps that decision — a doomed
// eviction stays shedDoomed — except an admission, whose slot goes back
// because the caller is giving up. Every other waiter has expired.
func (l *limiter) leave(w *waiter) decision {
	l.mu.Lock()
	defer l.mu.Unlock()
	defer l.advanceLocked()
	select {
	case d := <-w.res:
		if d != admitted {
			return d
		}
		l.inflight--
		l.admitLocked()
	default:
		l.removeLocked(w)
	}
	return expired
}

// releaser returns the release closure for one admitted request.
func (l *limiter) releaser(start time.Time) func(o slotOutcome) {
	var once sync.Once
	return func(o slotOutcome) {
		once.Do(func() {
			d := time.Since(start)
			l.mu.Lock()
			if o != slotSkipped {
				l.observeLocked(d, o == slotDone)
			}
			l.inflight--
			l.sweepLocked(time.Now())
			l.admitLocked()
			l.advanceLocked()
			l.mu.Unlock()
		})
	}
}

// observeLocked records one service-time sample: EWMA update plus the
// AIMD rule against the SLO.
func (l *limiter) observeLocked(d time.Duration, ok bool) {
	s := d.Seconds()
	if l.est == 0 {
		l.est = s
	} else {
		l.est = alpha*s + (1-alpha)*l.est
	}
	if l.slo <= 0 {
		return
	}
	if ok && d <= l.slo {
		l.succ++
		// One full round of in-SLO completions at the current limit
		// earns one more slot (additive increase).
		if l.succ >= l.limit && l.limit < maxLimitFactor*l.initial {
			l.limit++
			l.succ = 0
		}
		return
	}
	// Over SLO (or a deadline death): multiplicative decrease, paced to
	// at most once per SLO interval so one slow burst is one cut.
	l.succ = 0
	now := time.Now()
	if now.Sub(l.lastDec) < l.slo {
		return
	}
	next := max(int(math.Floor(float64(l.limit)*decreaseFactor)), minLimit)
	if next < l.limit {
		l.limit = next
		l.lastDec = now
	}
}

// doomedLocked reports whether a deadline cannot outlast the estimated
// service time. No deadline (zero) and no estimate (0) doom nothing.
func (l *limiter) doomedLocked(deadline, now time.Time) bool {
	return l.est > 0 && !deadline.IsZero() && deadline.Sub(now).Seconds() < l.est
}

// sweepLocked evicts queued waiters that have become doomed: their
// remaining deadline fell below the (possibly updated) estimate.
func (l *limiter) sweepLocked(now time.Time) {
	kept := l.queue[:0]
	for _, w := range l.queue {
		if l.doomedLocked(w.deadline, now) {
			w.sp.Event("overload.evict", "reason", "doomed-in-queue",
				"estimate_ms", strconv.FormatInt(int64(l.est*1e3), 10))
			w.res <- shedDoomed
			continue
		}
		kept = append(kept, w)
	}
	l.queue = kept
}

// admitLocked hands free slots to the queue head, FIFO.
func (l *limiter) admitLocked() {
	for l.inflight < l.limit && len(l.queue) > 0 {
		w := l.queue[0]
		l.queue = l.queue[1:]
		l.inflight++
		w.res <- admitted
	}
}

func (l *limiter) removeLocked(w *waiter) {
	for i, q := range l.queue {
		if q == w {
			l.queue = append(l.queue[:i], l.queue[i+1:]...)
			return
		}
	}
}

// retryAfter is the computed retry hint: the estimated time for the
// current queue to drain through the current limit, floored at one
// second (never the blind "1" of a fixed header, except when idle).
func (l *limiter) retryAfter() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.est == 0 {
		return time.Second
	}
	lim := l.limit
	if lim < 1 {
		lim = 1
	}
	d := time.Duration(l.est * float64(len(l.queue)+1) / float64(lim) * float64(time.Second))
	if d < time.Second {
		d = time.Second
	}
	return d
}

// pressureLocked is the scalar the brownout ladder consumes, in [0, 1]:
// the lower half tracks slot occupancy, the upper half queue occupancy,
// so 0.5 means "every slot busy, queue empty" and 1.0 "queue full".
func (l *limiter) pressureLocked() float64 {
	if l.limit <= 0 {
		return 1
	}
	if l.inflight < l.limit && len(l.queue) == 0 {
		return 0.5 * float64(l.inflight) / float64(l.limit)
	}
	qf := float64(len(l.queue)) / float64(l.maxQueue)
	if qf > 1 {
		qf = 1
	}
	return 0.5 + 0.5*qf
}

// level is the brownout level now.
func (l *limiter) level() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.advanceLocked()
}

// statz fills /statz's admission and brownout fields in one locked read.
func (l *limiter) statz(st *Statz) {
	l.mu.Lock()
	defer l.mu.Unlock()
	st.PressureLevel = l.advanceLocked()
	st.Pressure = l.pressureLocked()
	st.Limit, st.Inflight, st.Queued = l.limit, l.inflight, len(l.queue)
	st.EstimateMs = l.est * 1000
}
