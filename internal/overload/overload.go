// Package overload is mariond's adaptive overload-control layer: the
// machinery that keeps a compile service useful when offered load
// exceeds capacity, instead of queueing doomed work or shedding
// blindly.
//
// Three cooperating pieces, each independently testable:
//
//   - Limiter: an adaptive concurrency limiter. The admission limit is
//     not a fixed semaphore but an AIMD controller driven by measured
//     service time against a configured SLO — additive increase while
//     compiles finish inside the SLO, multiplicative decrease when they
//     run over (or fail on deadline). The wait queue is deadline-aware:
//     a request whose remaining deadline is already below the EWMA
//     service-time estimate is shed immediately (it is doomed — it
//     would only expire after wasting queue time), and queued waiters
//     are re-checked on every release. RetryAfter derives a retry hint
//     from queue depth × the service estimate, replacing guesses.
//
//   - Brownout (brownout.go): a hysteretic pressure ladder. Rising
//     pressure degrades service quality one level at a time (verify
//     off → cheaper strategy → Safe → cache-hits-only); levels recover
//     one at a time only after pressure stays low for a hold period,
//     so the ladder never flaps.
//
//   - Breakers (breaker.go): per-key circuit breakers with probe-based
//     reset, so one crashing (target, strategy) combination stops
//     consuming compile slots while everything else keeps serving.
//     bundle.go writes the replayable quarantine bundle a trip leaves
//     behind.
//
// The package has no HTTP dependency and touches the compiler only
// through pipeline.Config (the bundle's options map onto it);
// internal/server wires it to requests.
package overload

import (
	"context"
	"math"
	"strconv"
	"sync"
	"time"

	"marion/internal/trace"
)

// Decision is the outcome of Limiter.Acquire.
type Decision uint8

const (
	// admitted: the caller holds a slot and must call the release func.
	admitted Decision = iota
	// ShedFull: the wait queue was full; retry after RetryAfter.
	ShedFull
	// ShedDoomed: the request's remaining deadline is below the service
	// estimate — it would expire in the queue, so it is shed up front.
	ShedDoomed
	// Expired: the context finished while queued.
	Expired
)

func (d Decision) String() string {
	switch d {
	case admitted:
		return "admitted"
	case ShedFull:
		return "shed-full"
	case ShedDoomed:
		return "shed-doomed"
	case Expired:
		return "expired"
	}
	return "decision(?)"
}

// Outcome classifies how an admitted request used its slot; it is the
// release func's argument.
type Outcome uint8

const (
	// Done: the work ran to completion; its service time feeds the
	// EWMA estimate and the AIMD rule as an SLO sample.
	Done Outcome = iota
	// Breached: the work died on its deadline; the sample counts
	// against the SLO.
	Breached
	// Skipped: the slot is returned without the work having run (a
	// pre-work validation error). No sample is recorded, so a flood of
	// invalid requests can neither shrink the service estimate nor
	// inflate the adaptive limit.
	Skipped
)

// The AIMD controller's fixed constants. The adaptive limit stays in
// [minLimit, maxLimitFactor * Initial].
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

// waiter is one queued Acquire; res is buffered so the limiter never
// blocks resolving it.
type waiter struct {
	res      chan Decision
	deadline time.Time   // zero: no deadline
	sp       *trace.Span // nil when the request is untraced
}

// Limiter is the adaptive admission controller. All methods are safe
// for concurrent use.
type Limiter struct {
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

	evicted int64
}

// NewLimiter builds a Limiter admitting initial (at least 1) requests
// at once and queueing up to maxQueue more. slo is the target service
// time driving AIMD adaptation; zero keeps the limit fixed at initial
// (the static-semaphore behavior).
func NewLimiter(initial int, slo time.Duration, maxQueue int) *Limiter {
	return &Limiter{initial: initial, slo: slo, maxQueue: maxQueue, limit: initial}
}

// Acquire takes an admission slot. On admitted the returned release
// func MUST be called exactly once when the work finishes; its Outcome
// argument reports whether the work completed (Done), died on its
// deadline (Breached — the sample still counts against the SLO), or
// never ran (Skipped — the slot is returned without a sample). Every
// other decision returns a nil release.
//
// The context's deadline drives doomed-shedding: when the remaining
// deadline is below the EWMA service estimate, queueing cannot help and
// the request is shed as ShedDoomed.
//
// Admission-path decisions that are otherwise invisible to the caller —
// an up-front doomed shed, a later in-queue eviction when the service
// estimate moves — are recorded as events on sp (nil sp traces nothing).
func (l *Limiter) Acquire(ctx context.Context, sp *trace.Span) (release func(o Outcome), dec Decision) {
	l.mu.Lock()
	if l.inflight < l.limit && len(l.queue) == 0 {
		l.inflight++
		l.mu.Unlock()
		return l.releaser(time.Now()), admitted
	}
	if len(l.queue) >= l.maxQueue {
		l.mu.Unlock()
		return nil, ShedFull
	}
	if dl, ok := ctx.Deadline(); ok && l.doomedLocked(dl, time.Now()) {
		l.evicted++
		est := l.est
		l.mu.Unlock()
		sp.Event("overload.evict", "reason", "doomed-upfront",
			"estimate_ms", strconv.FormatInt(int64(est*1e3), 10))
		return nil, ShedDoomed
	}
	w := &waiter{res: make(chan Decision, 1), sp: sp}
	if dl, ok := ctx.Deadline(); ok {
		w.deadline = dl
	}
	l.queue = append(l.queue, w)
	l.mu.Unlock()

	select {
	case d := <-w.res:
		if d == admitted {
			return l.releaser(time.Now()), admitted
		}
		return nil, d
	case <-ctx.Done():
		l.mu.Lock()
		select {
		case d := <-w.res:
			// Raced with a resolver. An admission must be handed back:
			// the caller is giving up.
			if d == admitted {
				l.inflight--
				l.admitLocked()
			}
		default:
			l.removeLocked(w)
		}
		l.mu.Unlock()
		return nil, Expired
	}
}

// releaser returns the release closure for one admitted request.
func (l *Limiter) releaser(start time.Time) func(o Outcome) {
	var once sync.Once
	return func(o Outcome) {
		once.Do(func() {
			d := time.Since(start)
			l.mu.Lock()
			if o != Skipped {
				l.observeLocked(d, o == Done)
			}
			l.inflight--
			l.sweepLocked(time.Now())
			l.admitLocked()
			l.mu.Unlock()
		})
	}
}

// observeLocked records one service-time sample: EWMA update plus the
// AIMD rule against the SLO.
func (l *Limiter) observeLocked(d time.Duration, ok bool) {
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
// service time (plus the wait already ahead of it).
func (l *Limiter) doomedLocked(deadline, now time.Time) bool {
	if l.est == 0 {
		return false
	}
	return deadline.Sub(now).Seconds() < l.est
}

// sweepLocked evicts queued waiters that have become doomed: their
// remaining deadline fell below the (possibly updated) estimate.
func (l *Limiter) sweepLocked(now time.Time) {
	if l.est == 0 {
		return
	}
	kept := l.queue[:0]
	for _, w := range l.queue {
		if !w.deadline.IsZero() && l.doomedLocked(w.deadline, now) {
			w.sp.Event("overload.evict", "reason", "doomed-in-queue",
				"estimate_ms", strconv.FormatInt(int64(l.est*1e3), 10))
			w.res <- ShedDoomed
			l.evicted++
			continue
		}
		kept = append(kept, w)
	}
	l.queue = kept
}

// admitLocked hands free slots to the queue head, FIFO.
func (l *Limiter) admitLocked() {
	for l.inflight < l.limit && len(l.queue) > 0 {
		w := l.queue[0]
		l.queue = l.queue[1:]
		l.inflight++
		w.res <- admitted
	}
}

func (l *Limiter) removeLocked(w *waiter) {
	for i, q := range l.queue {
		if q == w {
			l.queue = append(l.queue[:i], l.queue[i+1:]...)
			return
		}
	}
}

// RetryAfter is the computed retry hint: the estimated time for the
// current queue to drain through the current limit, floored at one
// second (never the blind "1" of a fixed header, except when idle).
func (l *Limiter) RetryAfter() time.Duration {
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

// Pressure is the scalar the brownout ladder consumes, in [0, 1]: the
// lower half tracks slot occupancy, the upper half queue occupancy, so
// 0.5 means "every slot busy, queue empty" and 1.0 "queue full".
func (l *Limiter) Pressure() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
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

// Prime seeds the service-time estimate, for tests and for operators
// who know their workload's cost before the first sample lands.
func (l *Limiter) Prime(d time.Duration) {
	l.mu.Lock()
	l.est = d.Seconds()
	l.mu.Unlock()
}

// LimiterSnapshot is a point-in-time view for /statz.
type LimiterSnapshot struct {
	Limit, Inflight, Queued   int
	Evicted                   int64
	EstimateSeconds, Pressure float64
}

// Snapshot reads the limiter's current state.
func (l *Limiter) Snapshot() LimiterSnapshot {
	p := l.Pressure()
	l.mu.Lock()
	defer l.mu.Unlock()
	return LimiterSnapshot{
		Limit: l.limit, Inflight: l.inflight, Queued: len(l.queue), Evicted: l.evicted,
		EstimateSeconds: l.est, Pressure: p,
	}
}

// Limit returns the current adaptive concurrency limit.
func (l *Limiter) Limit() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.limit
}
