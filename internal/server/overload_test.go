package server

import (
	"context"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"marion/internal/driver"
)

// --------------------------------------------------------------------
// Limiter
// --------------------------------------------------------------------

// limiterStatz reads what /statz shows of a limiter.
func limiterStatz(l *limiter) Statz {
	var st Statz
	l.statz(&st)
	return st
}

// breakerStatz reads what /statz shows of a breaker set.
func breakerStatz(bs *breakerSet) Statz {
	var st Statz
	bs.statz(&st)
	return st
}

// allowState asks whether a request may run under key, and reads key's
// state after the answer: "half-open" when the request is the probe.
func allowState(bs *breakerSet, key string) (bool, string) {
	ok := bs.allow(key)
	return ok, breakerStatz(bs).Breakers[key]
}

// prime seeds the service-time estimate, so that a deadline below it
// sheds without a slow compile first.
func (l *limiter) prime(d time.Duration) {
	l.mu.Lock()
	l.est = d.Seconds()
	l.mu.Unlock()
}

func TestLimiterAdmitAndQueue(t *testing.T) {
	l := newLimiter(1, 0, 1, nil)

	rel, dec := l.acquire(context.Background(), nil)
	if dec != admitted || rel == nil {
		t.Fatalf("first acquire: %v", dec)
	}
	if limiterStatz(l).Inflight != 1 {
		t.Fatalf("inflight = %d, want 1", limiterStatz(l).Inflight)
	}

	// Second acquire queues; third sheds (queue full).
	type got struct {
		rel func(slotOutcome)
		dec decision
	}
	c := make(chan got)
	go func() {
		r, d := l.acquire(context.Background(), nil)
		c <- got{r, d}
	}()
	waitFor(t, func() bool { return limiterStatz(l).Queued == 1 })

	if _, dec := l.acquire(context.Background(), nil); dec != shedFull {
		t.Fatalf("over-queue acquire: %v, want shedFull", dec)
	}

	rel(slotDone)
	g := <-c
	if g.dec != admitted {
		t.Fatalf("queued acquire: %v, want admitted", g.dec)
	}
	g.rel(slotDone)
	if limiterStatz(l).Inflight != 0 || limiterStatz(l).Queued != 0 {
		t.Fatalf("inflight %d queued %d after releases", limiterStatz(l).Inflight, limiterStatz(l).Queued)
	}
}

func TestLimiterDoomedShedUpFront(t *testing.T) {
	l := newLimiter(1, 0, 4, nil)
	rel, _ := l.acquire(context.Background(), nil)
	defer rel(slotDone)

	// No estimate yet: a short deadline queues (and expires) rather than
	// being guessed at.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, dec := l.acquire(ctx, nil); dec != expired {
		t.Fatalf("pre-estimate short deadline: %v, want expired", dec)
	}

	// With a primed 10s estimate, the same deadline is doomed: shed
	// immediately, deterministically.
	l.prime(10 * time.Second)
	ctx2, cancel2 := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel2()
	start := time.Now()
	_, dec := l.acquire(ctx2, nil)
	if dec != shedDoomed {
		t.Fatalf("doomed acquire: %v, want shedDoomed", dec)
	}
	if time.Since(start) > 40*time.Millisecond {
		t.Error("doomed shed waited instead of returning immediately")
	}
	if limiterStatz(l).Queued != 0 {
		t.Errorf("doomed request joined the queue")
	}
	// A long deadline still queues.
	ctx3, cancel3 := context.WithCancel(context.Background())
	done := make(chan decision, 1)
	go func() {
		_, d := l.acquire(ctx3, nil)
		done <- d
	}()
	waitFor(t, func() bool { return limiterStatz(l).Queued == 1 })
	cancel3()
	if d := <-done; d != expired {
		t.Fatalf("cancelled queued acquire: %v, want expired", d)
	}
}

func TestLimiterSweepEvictsQueuedDoomed(t *testing.T) {
	l := newLimiter(1, 0, 4, nil)
	rel, _ := l.acquire(context.Background(), nil)

	// Queue a waiter with a 100ms deadline while no estimate exists.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	done := make(chan decision, 1)
	go func() {
		_, d := l.acquire(ctx, nil)
		done <- d
	}()
	waitFor(t, func() bool { return limiterStatz(l).Queued == 1 })

	// The release's sample sets the estimate far above the waiter's
	// remaining deadline; the sweep must evict it as doomed. Prime
	// stands in for a slow completion.
	l.prime(10 * time.Second)
	rel(slotDone)
	if d := <-done; d != shedDoomed {
		t.Fatalf("queued doomed waiter: %v, want shedDoomed", d)
	}
}

func TestLimiterAIMD(t *testing.T) {
	slo := 10 * time.Millisecond
	l := newLimiter(2, slo, 4, nil)

	// Additive increase: one full round of in-SLO completions per +1.
	fast := func() {
		rel, dec := l.acquire(context.Background(), nil)
		if dec != admitted {
			t.Fatalf("acquire: %v", dec)
		}
		rel(slotDone) // ~0ms, inside the SLO
	}
	for i := 0; i < 2; i++ {
		fast()
	}
	if got := limiterStatz(l).Limit; got != 3 {
		t.Fatalf("limit after one in-SLO round = %d, want 3", got)
	}
	for i := 0; i < 3; i++ {
		fast()
	}
	if got := limiterStatz(l).Limit; got != 4 {
		t.Fatalf("limit after second round = %d, want 4", got)
	}

	// Multiplicative decrease on an over-SLO sample: 4 -> 2 (x0.7,
	// floored), never below 1; paced to one cut per SLO interval.
	rel, _ := l.acquire(context.Background(), nil)
	time.Sleep(2 * slo)
	rel(slotDone)
	if got := limiterStatz(l).Limit; got != 2 {
		t.Fatalf("limit after over-SLO sample = %d, want 2", got)
	}
	// A second slow sample inside the pacing window must not cut again.
	rel2, _ := l.acquire(context.Background(), nil)
	rel2(slotBreached)
	if got := limiterStatz(l).Limit; got != 2 {
		t.Fatalf("limit cut twice within one SLO interval: %d", got)
	}
}

// TestLimiterSkippedNoSample: a Skipped release returns the slot
// without feeding the controller — a flood of instantly-rejected
// invalid requests must move neither the estimate nor the limit.
func TestLimiterSkippedNoSample(t *testing.T) {
	slo := 10 * time.Millisecond
	l := newLimiter(2, slo, 4, nil)
	l.prime(5 * time.Second)
	for i := 0; i < 50; i++ {
		rel, dec := l.acquire(context.Background(), nil)
		if dec != admitted {
			t.Fatalf("acquire %d: %v", i, dec)
		}
		rel(slotSkipped) // near-zero service time, but no sample
	}
	if got := limiterStatz(l).Limit; got != 2 {
		t.Fatalf("limit moved on skipped releases: %d, want 2", got)
	}
	if est := limiterStatz(l).EstimateMs; est != 5000 {
		t.Fatalf("estimate moved on skipped releases: %vms, want 5000", est)
	}
	if limiterStatz(l).Inflight != 0 {
		t.Fatalf("inflight leaked: %d", limiterStatz(l).Inflight)
	}
}

func TestLimiterFixedWithoutSLO(t *testing.T) {
	l := newLimiter(3, 0, 1, nil)
	for i := 0; i < 10; i++ {
		rel, dec := l.acquire(context.Background(), nil)
		if dec != admitted {
			t.Fatal(dec)
		}
		rel(slotDone)
	}
	if got := limiterStatz(l).Limit; got != 3 {
		t.Fatalf("limit drifted without SLO: %d, want 3", got)
	}
}

func TestLimiterRetryAfter(t *testing.T) {
	l := newLimiter(2, 0, 8, nil)
	if got := l.retryAfter(); got != time.Second {
		t.Fatalf("retry-after with no estimate = %v, want 1s", got)
	}
	l.prime(4 * time.Second)
	// Empty queue: est * 1 / limit = 2s.
	if got := l.retryAfter(); got != 2*time.Second {
		t.Fatalf("retry-after = %v, want 2s", got)
	}
	// Floor at 1s.
	l.prime(10 * time.Millisecond)
	if got := l.retryAfter(); got != time.Second {
		t.Fatalf("retry-after floor = %v, want 1s", got)
	}
}

func TestLimiterPressure(t *testing.T) {
	l := newLimiter(2, 0, 2, nil)
	if p := limiterStatz(l).Pressure; p != 0 {
		t.Fatalf("idle pressure = %v", p)
	}
	r1, _ := l.acquire(context.Background(), nil)
	if p := limiterStatz(l).Pressure; p != 0.25 {
		t.Fatalf("half-busy pressure = %v, want 0.25", p)
	}
	r2, _ := l.acquire(context.Background(), nil)
	if p := limiterStatz(l).Pressure; p != 0.5 {
		t.Fatalf("all-slots-busy pressure = %v, want 0.5", p)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.acquire(ctx, nil)
		}()
	}
	waitFor(t, func() bool { return limiterStatz(l).Queued == 2 })
	if p := limiterStatz(l).Pressure; p != 1 {
		t.Fatalf("full-queue pressure = %v, want 1", p)
	}
	cancel()
	wg.Wait()
	r1(slotDone)
	r2(slotDone)
}

func TestLimiterConcurrency(t *testing.T) {
	l := newLimiter(4, time.Millisecond, 64, nil)
	var wg sync.WaitGroup
	var got, other sync.Map
	for i := 0; i < 200; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			rel, dec := l.acquire(ctx, nil)
			if dec == admitted {
				got.Store(i, true)
				if n := limiterStatz(l).Inflight; n > 4*4 {
					t.Errorf("inflight %d exceeded 4 x Initial", n)
				}
				rel(slotDone)
			} else {
				other.Store(i, dec)
			}
		}(i)
	}
	wg.Wait()
	if limiterStatz(l).Inflight != 0 || limiterStatz(l).Queued != 0 {
		t.Fatalf("leaked state: inflight %d queued %d", limiterStatz(l).Inflight, limiterStatz(l).Queued)
	}
}

// --------------------------------------------------------------------
// Brownout
// --------------------------------------------------------------------

// force pins the brownout level without load, restarting the
// hysteresis clocks.
func (l *limiter) force(level int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.advanceLocked()
	l.lvl = min(max(level, levelNormal), levelCacheOnly)
	l.lvlSince, l.regimeSince = l.clock(), l.clock()
}

// ladderRig drives a limiter's brownout ladder through real admission
// changes on a step clock. The limiter has two slots and a queue of two,
// so its pressure reads 0.25 (calm) with one slot held, 0.5 (band) with
// both, and 0.75 (high) with both and a waiter queued.
type ladderRig struct {
	t       *testing.T
	clk     *stepClock
	l       *limiter
	held    []func(slotOutcome)
	waiters []context.CancelFunc
	wg      sync.WaitGroup
}

func newLadderRig(t *testing.T) *ladderRig {
	clk := &stepClock{now: time.Unix(1000, 0)}
	r := &ladderRig{t: t, clk: clk, l: newLimiter(2, 0, 2, clk.time)}
	t.Cleanup(func() {
		r.unqueue()
		for len(r.held) > 0 {
			r.free()
		}
	})
	return r
}

// hold takes a slot.
func (r *ladderRig) hold() {
	rel, dec := r.l.acquire(context.Background(), nil)
	if dec != admitted {
		r.t.Fatalf("hold: %v", dec)
	}
	r.held = append(r.held, rel)
}

// free releases the last slot taken, without a service-time sample.
func (r *ladderRig) free() {
	rel := r.held[len(r.held)-1]
	r.held = r.held[:len(r.held)-1]
	rel(slotSkipped)
}

// queue parks one more waiter.
func (r *ladderRig) queue() {
	ctx, cancel := context.WithCancel(context.Background())
	r.waiters = append(r.waiters, cancel)
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		r.l.acquire(ctx, nil)
	}()
	n := len(r.waiters)
	waitFor(r.t, func() bool { return limiterStatz(r.l).Queued == n })
}

// unqueue cancels every parked waiter and waits until they have left.
func (r *ladderRig) unqueue() {
	for _, cancel := range r.waiters {
		cancel()
	}
	r.waiters = nil
	r.wg.Wait()
}

// high holds both slots and queues a waiter: pressure 0.75.
func (r *ladderRig) high() {
	for len(r.held) < 2 {
		r.hold()
	}
	r.queue()
}

// expect reads the level and requires want.
func (r *ladderRig) expect(what string, want int) {
	r.t.Helper()
	if got := r.l.level(); got != want {
		r.t.Fatalf("%s: level %d, want %d", what, got, want)
	}
}

func TestBrownoutHysteresis(t *testing.T) {
	r := newLadderRig(t)

	// First high pressure raises immediately; further raises are paced.
	r.high()
	r.expect("first high pressure", 1)
	r.queue() // pressure 1.0
	r.expect("unpaced second raise", 1)
	r.clk.advance(60 * time.Millisecond)
	r.expect("paced raise", 2)
	r.clk.advance(60 * time.Millisecond)
	r.l.level()
	r.clk.advance(60 * time.Millisecond)
	r.l.level()
	r.clk.advance(60 * time.Millisecond)
	r.expect("ladder cap", levelCacheOnly)

	// The hysteresis band holds the level — neither up nor down.
	r.clk.advance(time.Hour)
	r.unqueue() // pressure 0.5
	r.expect("band", levelCacheOnly)

	// Recovery: calm pressure must persist for 500ms per step, one level
	// at a time.
	r.free() // pressure 0.25
	r.expect("instant recovery", levelCacheOnly)
	r.clk.advance(501 * time.Millisecond)
	r.expect("first recovery step", levelSafe)
	// A spike into the band restarts the calm clock.
	r.clk.advance(400 * time.Millisecond)
	r.hold()
	r.clk.advance(400 * time.Millisecond)
	r.free()
	r.expect("calm clock not restarted by band spike", levelSafe)
	r.clk.advance(501 * time.Millisecond)
	r.expect("second recovery step", levelCheapStrategy)
	r.clk.advance(501 * time.Millisecond)
	r.l.level()
	r.clk.advance(501 * time.Millisecond)
	r.expect("full recovery", levelNormal)

	// The ladder moves with time, not with how often it is read. Pressure
	// held high for three rise dwells, with no admission event and no
	// read, climbs to the cap.
	r.high()
	r.expect("high pressure begins", 1)
	r.clk.advance(3 * riseDwell)
	r.expect("three silent rise dwells", levelCacheOnly)
	// After calm begins, one read after three silent hold dwells finds
	// three levels gone.
	r.unqueue()
	r.free()
	r.clk.advance(3 * holdDwell)
	r.expect("three silent hold dwells", levelNoVerify)
}

func TestBrownoutForce(t *testing.T) {
	l := newLimiter(1, 0, 1, fixedClock())
	l.force(levelSafe)
	if l.level() != levelSafe {
		t.Fatalf("forced level = %d", l.level())
	}
	l.force(99)
	if l.level() != levelCacheOnly {
		t.Fatalf("force beyond cap = %d", l.level())
	}
	l.force(-1)
	if l.level() != 0 {
		t.Fatalf("force below 0 = %d", l.level())
	}
}

// --------------------------------------------------------------------
// Breakers
// --------------------------------------------------------------------

func TestBreakerTripRerouteProbeReset(t *testing.T) {
	clk := &stepClock{now: time.Unix(2000, 0)}
	bs := newBreakerSet(2, time.Second, clk.time)
	key := breakerKey("r2000", "rase")

	if ok, st := allowState(bs, key); !ok || st != "" {
		t.Fatalf("fresh key allow = %v (%s)", ok, st)
	}
	if bs.failure(key, nil) {
		t.Fatal("tripped below threshold")
	}
	if !bs.failure(key, nil) {
		t.Fatal("threshold failure did not trip")
	}
	if bs.allow(key) {
		t.Fatal("open breaker allowed a request before cooldown")
	}
	if st := breakerStatz(bs).Breakers[key]; st != "open" {
		t.Fatalf("state = %q, want open", st)
	}

	// Cooldown elapses: exactly one probe is admitted.
	clk.advance(1100 * time.Millisecond)
	if ok, st := allowState(bs, key); !ok || st != "half-open" {
		t.Fatalf("post-cooldown allow = %v (%s), want the half-open probe", ok, st)
	}
	if bs.allow(key) {
		t.Fatal("second concurrent probe admitted")
	}
	// Probe fails: re-open (counts as a trip), fresh cooldown.
	if !bs.failure(key, nil) {
		t.Fatal("failed probe did not re-trip")
	}
	if bs.allow(key) {
		t.Fatal("re-opened breaker allowed a request")
	}

	// Second probe succeeds: closed, streak reset.
	clk.advance(1100 * time.Millisecond)
	if ok, st := allowState(bs, key); !ok || st != "half-open" {
		t.Fatal("second probe not admitted")
	}
	bs.success(key)
	if ok, st := allowState(bs, key); !ok || st != "closed" {
		t.Fatalf("closed breaker allow = %v (%s)", ok, st)
	}
	if st := breakerStatz(bs).Breakers[key]; st != "closed" {
		t.Fatalf("state after reset = %q", st)
	}
	snap := breakerStatz(bs)
	if snap.BreakerTrips != 2 || snap.BreakerResets != 1 {
		t.Errorf("trips/resets = %d/%d, want 2/1", snap.BreakerTrips, snap.BreakerResets)
	}

	// Success resets a closed streak too.
	bs.failure(key, nil)
	bs.success(key)
	bs.failure(key, nil)
	if st := breakerStatz(bs).Breakers[key]; st != "closed(1 fails)" {
		t.Fatalf("streak state = %q", st)
	}
}

// TestBreakerCancelProbe: a neutrally resolved half-open probe (the
// attempt never exercised the pipeline, e.g. cache-only) must return
// the probe slot WITHOUT closing the breaker — the next attempt probes
// again, and only a real success closes it.
func TestBreakerCancelProbe(t *testing.T) {
	clk := &stepClock{now: time.Unix(3000, 0)}
	bs := newBreakerSet(1, time.Second, clk.time)
	key := breakerKey("r2000", "rase")

	if !bs.failure(key, nil) {
		t.Fatal("threshold-1 failure did not trip")
	}
	clk.advance(1100 * time.Millisecond)
	if ok, st := allowState(bs, key); !ok || st != "half-open" {
		t.Fatalf("post-cooldown allow = %v (%s), want the half-open probe", ok, st)
	}
	bs.cancel(key)
	if st := breakerStatz(bs).Breakers[key]; st != "half-open" {
		t.Fatalf("state after cancelled probe = %q, want half-open", st)
	}
	// The probe slot was returned: the next attempt is a probe again.
	if ok, st := allowState(bs, key); !ok || st != "half-open" {
		t.Fatalf("allow after cancel = %v (%s), want a fresh probe", ok, st)
	}
	bs.success(key)
	if st := breakerStatz(bs).Breakers[key]; st != "closed" {
		t.Fatalf("state after real probe success = %q", st)
	}
	// Cancel on a closed (or untracked) key is a no-op.
	bs.cancel(key)
	bs.cancel("nosuch/key")
	if ok, st := allowState(bs, key); !ok || st != "closed" {
		t.Fatalf("closed breaker after cancel: %v (%s)", ok, st)
	}
}

// --------------------------------------------------------------------
// Bundle
// --------------------------------------------------------------------

func TestBundleRoundTrip(t *testing.T) {
	dir := t.TempDir()
	b := &Bundle{
		Key: "r2000/rase", Target: "r2000", Strategy: "rase",
		Reason: "injected fault at serve (r2000/rase)", Failures: 3,
		Options: CompileOptions{Workers: 2, Verify: true, BudgetMs: 50},
	}
	il := "module quarantine.il\n"
	p1, err := writeBundle(dir, b, il)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(p1) != "r2000-rase-1" {
		t.Errorf("bundle dir = %s", p1)
	}
	// A second trip gets its own numbered directory.
	p2, err := writeBundle(dir, b, il)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Fatal("second bundle overwrote the first")
	}

	got, gotIL, err := LoadBundle(p1)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *b {
		t.Errorf("bundle round trip: got %+v, want %+v", got, b)
	}
	if gotIL != il {
		t.Errorf("IL round trip: %q", gotIL)
	}
	if _, _, err := LoadBundle(filepath.Join(dir, "nosuch")); err == nil {
		t.Error("LoadBundle on a missing dir succeeded")
	}
}

// TestBundleOptionsCapWorkers holds a request's wire workers to
// GOMAXPROCS, and leaves a zero wire value on the operator's default.
func TestBundleOptionsCapWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	base := driver.Config{Workers: 3}
	for _, c := range []struct{ wire, want int }{
		{0, 3}, {1, 1}, {procs, procs}, {procs + 1, procs}, {1 << 30, procs},
	} {
		if got := (CompileOptions{Workers: c.wire}).Config(base).Workers; got != c.want {
			t.Errorf("wire workers %d: Config gives %d, want %d", c.wire, got, c.want)
		}
	}
}
