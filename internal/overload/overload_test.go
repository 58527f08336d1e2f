package overload

import (
	"context"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"marion/internal/pipeline"
)

// --------------------------------------------------------------------
// Limiter
// --------------------------------------------------------------------

func TestLimiterAdmitAndQueue(t *testing.T) {
	l := NewLimiter(1, 0, 1)

	rel, dec := l.Acquire(context.Background(), nil)
	if dec != admitted || rel == nil {
		t.Fatalf("first acquire: %v", dec)
	}
	if l.Snapshot().Inflight != 1 {
		t.Fatalf("inflight = %d, want 1", l.Snapshot().Inflight)
	}

	// Second acquire queues; third sheds (queue full).
	type got struct {
		rel func(Outcome)
		dec Decision
	}
	c := make(chan got)
	go func() {
		r, d := l.Acquire(context.Background(), nil)
		c <- got{r, d}
	}()
	waitFor(t, func() bool { return l.Snapshot().Queued == 1 })

	if _, dec := l.Acquire(context.Background(), nil); dec != ShedFull {
		t.Fatalf("over-queue acquire: %v, want ShedFull", dec)
	}

	rel(Done)
	g := <-c
	if g.dec != admitted {
		t.Fatalf("queued acquire: %v, want admitted", g.dec)
	}
	g.rel(Done)
	if l.Snapshot().Inflight != 0 || l.Snapshot().Queued != 0 {
		t.Fatalf("inflight %d queued %d after releases", l.Snapshot().Inflight, l.Snapshot().Queued)
	}
}

func TestLimiterDoomedShedUpFront(t *testing.T) {
	l := NewLimiter(1, 0, 4)
	rel, _ := l.Acquire(context.Background(), nil)
	defer rel(Done)

	// No estimate yet: a short deadline queues (and expires) rather than
	// being guessed at.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, dec := l.Acquire(ctx, nil); dec != Expired {
		t.Fatalf("pre-estimate short deadline: %v, want Expired", dec)
	}

	// With a primed 10s estimate, the same deadline is doomed: shed
	// immediately, deterministically.
	l.Prime(10 * time.Second)
	ctx2, cancel2 := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel2()
	start := time.Now()
	_, dec := l.Acquire(ctx2, nil)
	if dec != ShedDoomed {
		t.Fatalf("doomed acquire: %v, want ShedDoomed", dec)
	}
	if time.Since(start) > 40*time.Millisecond {
		t.Error("doomed shed waited instead of returning immediately")
	}
	if l.Snapshot().Evicted != 1 {
		t.Errorf("evicted = %d, want 1", l.Snapshot().Evicted)
	}
	// A long deadline still queues.
	ctx3, cancel3 := context.WithCancel(context.Background())
	done := make(chan Decision, 1)
	go func() {
		_, d := l.Acquire(ctx3, nil)
		done <- d
	}()
	waitFor(t, func() bool { return l.Snapshot().Queued == 1 })
	cancel3()
	if d := <-done; d != Expired {
		t.Fatalf("cancelled queued acquire: %v, want Expired", d)
	}
}

func TestLimiterSweepEvictsQueuedDoomed(t *testing.T) {
	l := NewLimiter(1, 0, 4)
	rel, _ := l.Acquire(context.Background(), nil)

	// Queue a waiter with a 100ms deadline while no estimate exists.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	done := make(chan Decision, 1)
	go func() {
		_, d := l.Acquire(ctx, nil)
		done <- d
	}()
	waitFor(t, func() bool { return l.Snapshot().Queued == 1 })

	// The release's sample sets the estimate far above the waiter's
	// remaining deadline; the sweep must evict it as doomed. Prime
	// stands in for a slow completion.
	l.Prime(10 * time.Second)
	rel(Done)
	if d := <-done; d != ShedDoomed {
		t.Fatalf("queued doomed waiter: %v, want ShedDoomed", d)
	}
}

func TestLimiterAIMD(t *testing.T) {
	slo := 10 * time.Millisecond
	l := NewLimiter(2, slo, 4)

	// Additive increase: one full round of in-SLO completions per +1.
	fast := func() {
		rel, dec := l.Acquire(context.Background(), nil)
		if dec != admitted {
			t.Fatalf("acquire: %v", dec)
		}
		rel(Done) // ~0ms, inside the SLO
	}
	for i := 0; i < 2; i++ {
		fast()
	}
	if got := l.Limit(); got != 3 {
		t.Fatalf("limit after one in-SLO round = %d, want 3", got)
	}
	for i := 0; i < 3; i++ {
		fast()
	}
	if got := l.Limit(); got != 4 {
		t.Fatalf("limit after second round = %d, want 4", got)
	}

	// Multiplicative decrease on an over-SLO sample: 4 -> 2 (x0.7,
	// floored), never below 1; paced to one cut per SLO interval.
	rel, _ := l.Acquire(context.Background(), nil)
	time.Sleep(2 * slo)
	rel(Done)
	if got := l.Limit(); got != 2 {
		t.Fatalf("limit after over-SLO sample = %d, want 2", got)
	}
	// A second slow sample inside the pacing window must not cut again.
	rel2, _ := l.Acquire(context.Background(), nil)
	rel2(Breached)
	if got := l.Limit(); got != 2 {
		t.Fatalf("limit cut twice within one SLO interval: %d", got)
	}
}

// TestLimiterSkippedNoSample: a Skipped release returns the slot
// without feeding the controller — a flood of instantly-rejected
// invalid requests must move neither the estimate nor the limit.
func TestLimiterSkippedNoSample(t *testing.T) {
	slo := 10 * time.Millisecond
	l := NewLimiter(2, slo, 4)
	l.Prime(5 * time.Second)
	for i := 0; i < 50; i++ {
		rel, dec := l.Acquire(context.Background(), nil)
		if dec != admitted {
			t.Fatalf("acquire %d: %v", i, dec)
		}
		rel(Skipped) // near-zero service time, but no sample
	}
	if got := l.Limit(); got != 2 {
		t.Fatalf("limit moved on skipped releases: %d, want 2", got)
	}
	if est := l.Snapshot().EstimateSeconds; est != 5 {
		t.Fatalf("estimate moved on skipped releases: %v, want 5", est)
	}
	if l.Snapshot().Inflight != 0 {
		t.Fatalf("inflight leaked: %d", l.Snapshot().Inflight)
	}
}

func TestLimiterFixedWithoutSLO(t *testing.T) {
	l := NewLimiter(3, 0, 1)
	for i := 0; i < 10; i++ {
		rel, dec := l.Acquire(context.Background(), nil)
		if dec != admitted {
			t.Fatal(dec)
		}
		rel(Done)
	}
	if got := l.Limit(); got != 3 {
		t.Fatalf("limit drifted without SLO: %d, want 3", got)
	}
}

func TestLimiterRetryAfter(t *testing.T) {
	l := NewLimiter(2, 0, 8)
	if got := l.RetryAfter(); got != time.Second {
		t.Fatalf("retry-after with no estimate = %v, want 1s", got)
	}
	l.Prime(4 * time.Second)
	// Empty queue: est * 1 / limit = 2s.
	if got := l.RetryAfter(); got != 2*time.Second {
		t.Fatalf("retry-after = %v, want 2s", got)
	}
	// Floor at 1s.
	l.Prime(10 * time.Millisecond)
	if got := l.RetryAfter(); got != time.Second {
		t.Fatalf("retry-after floor = %v, want 1s", got)
	}
}

func TestLimiterPressure(t *testing.T) {
	l := NewLimiter(2, 0, 2)
	if p := l.Pressure(); p != 0 {
		t.Fatalf("idle pressure = %v", p)
	}
	r1, _ := l.Acquire(context.Background(), nil)
	if p := l.Pressure(); p != 0.25 {
		t.Fatalf("half-busy pressure = %v, want 0.25", p)
	}
	r2, _ := l.Acquire(context.Background(), nil)
	if p := l.Pressure(); p != 0.5 {
		t.Fatalf("all-slots-busy pressure = %v, want 0.5", p)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.Acquire(ctx, nil)
		}()
	}
	waitFor(t, func() bool { return l.Snapshot().Queued == 2 })
	if p := l.Pressure(); p != 1 {
		t.Fatalf("full-queue pressure = %v, want 1", p)
	}
	cancel()
	wg.Wait()
	r1(Done)
	r2(Done)
}

func TestLimiterConcurrency(t *testing.T) {
	l := NewLimiter(4, time.Millisecond, 64)
	var wg sync.WaitGroup
	var got, other sync.Map
	for i := 0; i < 200; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			rel, dec := l.Acquire(ctx, nil)
			if dec == admitted {
				got.Store(i, true)
				if n := l.Snapshot().Inflight; n > 4*4 {
					t.Errorf("inflight %d exceeded 4 x Initial", n)
				}
				rel(Done)
			} else {
				other.Store(i, dec)
			}
		}(i)
	}
	wg.Wait()
	if l.Snapshot().Inflight != 0 || l.Snapshot().Queued != 0 {
		t.Fatalf("leaked state: inflight %d queued %d", l.Snapshot().Inflight, l.Snapshot().Queued)
	}
}

// --------------------------------------------------------------------
// Brownout
// --------------------------------------------------------------------

// fakeClock is a manually advanced time source.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestBrownoutHysteresis(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := NewBrownout(clk.now)

	// First high sample raises immediately; further raises are paced.
	if lvl := b.Observe(0.9); lvl != 1 {
		t.Fatalf("first high observation: level %d, want 1", lvl)
	}
	if lvl := b.Observe(0.9); lvl != 1 {
		t.Fatalf("unpaced second raise: level %d", lvl)
	}
	clk.advance(60 * time.Millisecond)
	if lvl := b.Observe(1.0); lvl != 2 {
		t.Fatalf("paced raise: level %d, want 2", lvl)
	}
	clk.advance(60 * time.Millisecond)
	b.Observe(1.0)
	clk.advance(60 * time.Millisecond)
	b.Observe(1.0)
	clk.advance(60 * time.Millisecond)
	if lvl := b.Observe(1.0); lvl != LevelCacheOnly {
		t.Fatalf("ladder cap: level %d, want %d", lvl, LevelCacheOnly)
	}

	// The hysteresis band holds the level — neither up nor down.
	clk.advance(time.Hour)
	if lvl := b.Observe(0.6); lvl != LevelCacheOnly {
		t.Fatalf("band observation changed level: %d", lvl)
	}

	// Recovery: calm pressure must persist for 500ms per step, one level
	// at a time.
	if lvl := b.Observe(0.1); lvl != LevelCacheOnly {
		t.Fatalf("instant recovery: %d", lvl)
	}
	clk.advance(501 * time.Millisecond)
	if lvl := b.Observe(0.1); lvl != LevelSafe {
		t.Fatalf("first recovery step: %d, want %d", lvl, LevelSafe)
	}
	// A spike into the band restarts the calm clock.
	clk.advance(400 * time.Millisecond)
	b.Observe(0.6)
	clk.advance(400 * time.Millisecond)
	if lvl := b.Observe(0.1); lvl != LevelSafe {
		t.Fatalf("calm clock not restarted by band spike: %d", lvl)
	}
	clk.advance(501 * time.Millisecond)
	if lvl := b.Observe(0.1); lvl != LevelCheapStrategy {
		t.Fatalf("second recovery step: %d, want %d", lvl, LevelCheapStrategy)
	}
	clk.advance(501 * time.Millisecond)
	b.Observe(0.1)
	clk.advance(501 * time.Millisecond)
	if lvl := b.Observe(0.1); lvl != levelNormal {
		t.Fatalf("full recovery: %d, want 0", lvl)
	}
}

func TestBrownoutForce(t *testing.T) {
	b := NewBrownout(time.Now)
	b.Force(LevelSafe)
	if b.Level() != LevelSafe {
		t.Fatalf("forced level = %d", b.Level())
	}
	b.Force(99)
	if b.Level() != LevelCacheOnly {
		t.Fatalf("force beyond cap = %d", b.Level())
	}
	b.Force(-1)
	if b.Level() != 0 {
		t.Fatalf("force below 0 = %d", b.Level())
	}
}

// --------------------------------------------------------------------
// Breakers
// --------------------------------------------------------------------

func TestBreakerTripRerouteProbeReset(t *testing.T) {
	clk := &fakeClock{t: time.Unix(2000, 0)}
	bs := NewBreakers(2, time.Second, clk.now)
	key := Key("r2000", "rase")

	if ok, probe := bs.Allow(key); !ok || probe {
		t.Fatalf("fresh key Allow = %v, %v", ok, probe)
	}
	if bs.Failure(key, nil) {
		t.Fatal("tripped below threshold")
	}
	if !bs.Failure(key, nil) {
		t.Fatal("threshold failure did not trip")
	}
	if ok, _ := bs.Allow(key); ok {
		t.Fatal("open breaker allowed a request before cooldown")
	}
	if st := bs.States()[key]; st != "open" {
		t.Fatalf("state = %q, want open", st)
	}

	// Cooldown elapses: exactly one probe is admitted.
	clk.advance(1100 * time.Millisecond)
	ok, probe := bs.Allow(key)
	if !ok || !probe {
		t.Fatalf("post-cooldown Allow = %v, %v, want probe", ok, probe)
	}
	if ok, _ := bs.Allow(key); ok {
		t.Fatal("second concurrent probe admitted")
	}
	// Probe fails: re-open (counts as a trip), fresh cooldown.
	if !bs.Failure(key, nil) {
		t.Fatal("failed probe did not re-trip")
	}
	if ok, _ := bs.Allow(key); ok {
		t.Fatal("re-opened breaker allowed a request")
	}

	// Second probe succeeds: closed, streak reset.
	clk.advance(1100 * time.Millisecond)
	if ok, probe := bs.Allow(key); !ok || !probe {
		t.Fatal("second probe not admitted")
	}
	bs.Success(key)
	if ok, probe := bs.Allow(key); !ok || probe {
		t.Fatalf("closed breaker Allow = %v, %v", ok, probe)
	}
	if st := bs.States()[key]; st != "closed" {
		t.Fatalf("state after reset = %q", st)
	}
	snap := bs.Snapshot()
	if snap.Trips != 2 || snap.Resets != 1 {
		t.Errorf("trips/resets = %d/%d, want 2/1", snap.Trips, snap.Resets)
	}

	// Success resets a closed streak too.
	bs.Failure(key, nil)
	bs.Success(key)
	bs.Failure(key, nil)
	if st := bs.States()[key]; st != "closed(1 fails)" {
		t.Fatalf("streak state = %q", st)
	}
}

// TestBreakerCancelProbe: a neutrally resolved half-open probe (the
// attempt never exercised the pipeline, e.g. cache-only) must return
// the probe slot WITHOUT closing the breaker — the next attempt probes
// again, and only a real success closes it.
func TestBreakerCancelProbe(t *testing.T) {
	clk := &fakeClock{t: time.Unix(3000, 0)}
	bs := NewBreakers(1, time.Second, clk.now)
	key := Key("r2000", "rase")

	if !bs.Failure(key, nil) {
		t.Fatal("threshold-1 failure did not trip")
	}
	clk.advance(1100 * time.Millisecond)
	if ok, probe := bs.Allow(key); !ok || !probe {
		t.Fatalf("post-cooldown Allow = %v, %v, want probe", ok, probe)
	}
	bs.Cancel(key)
	if st := bs.States()[key]; st != "half-open" {
		t.Fatalf("state after cancelled probe = %q, want half-open", st)
	}
	// The probe slot was returned: the next attempt is a probe again.
	ok, probe := bs.Allow(key)
	if !ok || !probe {
		t.Fatalf("Allow after Cancel = %v, %v, want a fresh probe", ok, probe)
	}
	bs.Success(key)
	if st := bs.States()[key]; st != "closed" {
		t.Fatalf("state after real probe success = %q", st)
	}
	// Cancel on a closed (or untracked) key is a no-op.
	bs.Cancel(key)
	bs.Cancel("nosuch/key")
	if ok, probe := bs.Allow(key); !ok || probe {
		t.Fatalf("closed breaker after Cancel: %v, %v", ok, probe)
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
		Options: BundleOptions{Workers: 2, Verify: true, BudgetMs: 50},
	}
	il := "module quarantine.il\n"
	p1, err := WriteBundle(dir, b, il)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(p1) != "r2000-rase-1" {
		t.Errorf("bundle dir = %s", p1)
	}
	// A second trip gets its own numbered directory.
	p2, err := WriteBundle(dir, b, il)
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

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBundleOptionsCapWorkers holds a request's wire workers to
// GOMAXPROCS, and leaves a zero wire value on the operator's default.
func TestBundleOptionsCapWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	base := pipeline.Config{Workers: 3}
	for _, c := range []struct{ wire, want int }{
		{0, 3}, {1, 1}, {procs, procs}, {procs + 1, procs}, {1 << 30, procs},
	} {
		if got := (BundleOptions{Workers: c.wire}).Config(base).Workers; got != c.want {
			t.Errorf("wire workers %d: Config gives %d, want %d", c.wire, got, c.want)
		}
	}
}
