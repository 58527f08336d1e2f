package sim

import (
	"math"
	"testing"

	"marion/internal/driver"
	"marion/internal/strategy"
)

func compileRun(t *testing.T, src, fn string, strat strategy.Kind, cache bool, args ...Value) (*Stats, *Sim) {
	t.Helper()
	c, err := driver.Compile("toyp", "c", "t.c", src, driver.Config{Strategy: strat})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	opts := Options{}
	if cache {
		opts.Cache = DefaultCache()
	}
	s := New(c.Prog, opts)
	st, err := s.Run(fn, args...)
	if err != nil {
		t.Fatalf("run %s:\n%s\nerror: %v", fn, c.Prog.Print(), err)
	}
	return st, s
}

var allStrategies = []strategy.Kind{strategy.Naive, strategy.Postpass, strategy.IPS, strategy.RASE}

func TestRunArith(t *testing.T) {
	src := `int f(int a, int b) { return a * b + 7; }`
	for _, k := range allStrategies {
		st, _ := compileRun(t, src, "f", k, false, Int(6), Int(7))
		if st.RetI != 49 {
			t.Errorf("%v: f(6,7) = %d, want 49", k, st.RetI)
		}
	}
}

func TestRunControlFlow(t *testing.T) {
	src := `
int sumto(int n) {
    int s = 0;
    int i;
    for (i = 1; i <= n; i++) s += i;
    return s;
}`
	for _, k := range allStrategies {
		st, _ := compileRun(t, src, "sumto", k, false, Int(100))
		if st.RetI != 5050 {
			t.Errorf("%v: sumto(100) = %d, want 5050", k, st.RetI)
		}
	}
}

func TestRunDouble(t *testing.T) {
	src := `
double poly(double x) {
    return 2.0 * x * x + 3.0 * x + 1.0;
}`
	for _, k := range allStrategies {
		st, _ := compileRun(t, src, "poly", k, false, Float64(2.5))
		want := 2.0*2.5*2.5 + 3.0*2.5 + 1.0
		if math.Abs(st.RetF-want) > 1e-12 {
			t.Errorf("%v: poly(2.5) = %v, want %v", k, st.RetF, want)
		}
	}
}

func TestRunGlobalsAndArrays(t *testing.T) {
	src := `
double v[8];
double dot;
void init(int n) {
    int i;
    for (i = 0; i < n; i++) v[i] = i + 1;
}
double sumsq(int n) {
    int i;
    dot = 0.0;
    for (i = 0; i < n; i++) dot = dot + v[i] * v[i];
    return dot;
}`
	for _, k := range allStrategies {
		c, err := driver.Compile("toyp", "c", "t.c", src, driver.Config{Strategy: k})
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		s := New(c.Prog, Options{})
		if _, err := s.Run("init", Int(8)); err != nil {
			t.Fatalf("%v init: %v", k, err)
		}
		st, err := s.Run("sumsq", Int(8))
		if err != nil {
			t.Fatalf("%v sumsq: %v", k, err)
		}
		want := 0.0
		for i := 1; i <= 8; i++ {
			want += float64(i * i)
		}
		if math.Abs(st.RetF-want) > 1e-9 {
			t.Errorf("%v: sumsq = %v, want %v", k, st.RetF, want)
		}
	}
}

func TestRunRecursionAndCalls(t *testing.T) {
	src := `
int fib(int n) {
    if (n < 2) return n;
    return fib(n - 1) + fib(n - 2);
}`
	for _, k := range allStrategies {
		st, _ := compileRun(t, src, "fib", k, false, Int(15))
		if st.RetI != 610 {
			t.Errorf("%v: fib(15) = %d, want 610", k, st.RetI)
		}
	}
}

func TestRunMixedIntDouble(t *testing.T) {
	src := `
double avg(int *p, int n);
int data[5] = {10, 20, 30, 40, 50};
double run() { return avg(data, 5); }
double avg(int *p, int n) {
    int i;
    double s = 0.0;
    for (i = 0; i < n; i++) s = s + p[i];
    return s / n;
}`
	for _, k := range allStrategies {
		st, _ := compileRun(t, src, "run", k, false)
		if math.Abs(st.RetF-30.0) > 1e-12 {
			t.Errorf("%v: avg = %v, want 30", k, st.RetF)
		}
	}
}

func TestRunWhileBreakContinue(t *testing.T) {
	src := `
int f(int n) {
    int s = 0, i = 0;
    while (1) {
        i++;
        if (i > n) break;
        if (i % 2 == 0) continue;
        s += i;
    }
    return s;
}`
	for _, k := range allStrategies {
		st, _ := compileRun(t, src, "f", k, false, Int(10))
		if st.RetI != 25 { // 1+3+5+7+9
			t.Errorf("%v: f(10) = %d, want 25", k, st.RetI)
		}
	}
}

func TestRunTernaryLogical(t *testing.T) {
	src := `
int clamp(int x, int lo, int hi) {
    return x < lo ? lo : (x > hi ? hi : x);
}
int both(int a, int b) { return a > 0 && b > 0; }`
	for _, k := range allStrategies {
		st, _ := compileRun(t, src, "clamp", k, false, Int(42), Int(0), Int(10))
		if st.RetI != 10 {
			t.Errorf("%v: clamp = %d", k, st.RetI)
		}
		st, _ = compileRun(t, src, "both", k, false, Int(3), Int(-1))
		if st.RetI != 0 {
			t.Errorf("%v: both(3,-1) = %d", k, st.RetI)
		}
		st, _ = compileRun(t, src, "both", k, false, Int(3), Int(4))
		if st.RetI != 1 {
			t.Errorf("%v: both(3,4) = %d", k, st.RetI)
		}
	}
}

func TestRunBigConstants(t *testing.T) {
	src := `int f() { return 100000 + 234567; }`
	st, _ := compileRun(t, src, "f", strategy.Postpass, false)
	if st.RetI != 334567 {
		t.Errorf("f = %d, want 334567", st.RetI)
	}
}

func TestRunPointersAddressTaken(t *testing.T) {
	src := `
void swap(int *a, int *b) { int t = *a; *a = *b; *b = t; }
int f(int x, int y) {
    int a = x, b = y;
    swap(&a, &b);
    return a * 1000 + b;
}`
	for _, k := range allStrategies {
		st, _ := compileRun(t, src, "f", k, false, Int(3), Int(7))
		if st.RetI != 7003 {
			t.Errorf("%v: f(3,7) = %d, want 7003", k, st.RetI)
		}
	}
}

func TestRunIntDoubleConversions(t *testing.T) {
	src := `
int trunc2(double x) { return (int) (x * 2.0); }
double widen(int i) { return i / 4.0; }`
	st, _ := compileRun(t, src, "trunc2", strategy.Postpass, false, Float64(3.7))
	if st.RetI != 7 {
		t.Errorf("trunc2(3.7) = %d, want 7", st.RetI)
	}
	st, _ = compileRun(t, src, "widen", strategy.Postpass, false, Int(10))
	if st.RetF != 2.5 {
		t.Errorf("widen(10) = %v, want 2.5", st.RetF)
	}
}

func TestScheduledNotSlowerThanNaive(t *testing.T) {
	// The headline property: scheduled code is at least as fast as
	// unscheduled code on a latency-exposed pipeline.
	src := `
double a[64], b[64], c[64];
void setup(int n) {
    int i;
    for (i = 0; i < n; i++) { a[i] = i; b[i] = 2 * i; }
}
double work(int n) {
    int i;
    double s = 0.0;
    for (i = 0; i < n; i++) {
        c[i] = a[i] * b[i] + a[i] + 3.0 * b[i];
        s = s + c[i];
    }
    return s;
}`
	cycles := map[strategy.Kind]int64{}
	var want float64
	for i := 0; i < 64; i++ {
		ai, bi := float64(i), float64(2*i)
		want += ai*bi + ai + 3.0*bi
	}
	for _, k := range allStrategies {
		c, err := driver.Compile("toyp", "c", "t.c", src, driver.Config{Strategy: k})
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		s := New(c.Prog, Options{})
		if _, err := s.Run("setup", Int(64)); err != nil {
			t.Fatalf("setup: %v", err)
		}
		st, err := s.Run("work", Int(64))
		if err != nil {
			t.Fatalf("work: %v", err)
		}
		if math.Abs(st.RetF-want) > 1e-9 {
			t.Errorf("%v: wrong result %v, want %v", k, st.RetF, want)
		}
		cycles[k] = st.Cycles
	}
	if cycles[strategy.Postpass] > cycles[strategy.Naive] {
		t.Errorf("postpass (%d cycles) slower than naive (%d)", cycles[strategy.Postpass], cycles[strategy.Naive])
	}
	if cycles[strategy.Postpass] == cycles[strategy.Naive] {
		t.Logf("warning: scheduling bought nothing (%d cycles)", cycles[strategy.Naive])
	}
	t.Logf("cycles: naive=%d postpass=%d ips=%d rase=%d",
		cycles[strategy.Naive], cycles[strategy.Postpass], cycles[strategy.IPS], cycles[strategy.RASE])
}

func TestCacheMissesCostCycles(t *testing.T) {
	src := `
double a[2048];
double sweep(int n) {
    int i;
    double s = 0.0;
    for (i = 0; i < n; i++) s = s + a[i];
    return s;
}`
	c, err := driver.Compile("toyp", "c", "t.c", src, driver.Config{Strategy: strategy.Postpass})
	if err != nil {
		t.Fatal(err)
	}
	cold := New(c.Prog, Options{Cache: DefaultCache()})
	stCold, err := cold.Run("sweep", Int(2048))
	if err != nil {
		t.Fatal(err)
	}
	warm := New(c.Prog, Options{})
	stWarm, err := warm.Run("sweep", Int(2048))
	if err != nil {
		t.Fatal(err)
	}
	if stCold.LoadMisses == 0 {
		t.Error("no cache misses on a 16KB sweep")
	}
	if stCold.Cycles <= stWarm.Cycles {
		t.Errorf("cache misses cost nothing: %d vs %d", stCold.Cycles, stWarm.Cycles)
	}
}

func TestBlockCountsProfile(t *testing.T) {
	src := `
int lp(int n) {
    int s = 0, i;
    for (i = 0; i < n; i++) s += i;
    return s;
}`
	st, _ := compileRun(t, src, "lp", strategy.Postpass, false, Int(37))
	// The loop body runs 37 times and the head 38 times.
	found37, found38 := false, false
	for _, c := range st.BlockCounts {
		if c == 37 {
			found37 = true
		}
		if c == 38 {
			found38 = true
		}
	}
	if !found37 || !found38 {
		t.Errorf("block counts %v missing 37/38", st.BlockCounts)
	}
}

func TestDilationAndWords(t *testing.T) {
	src := `int f(int a) { return a + 1; }`
	st, _ := compileRun(t, src, "f", strategy.Postpass, false, Int(1))
	if st.Instrs == 0 || st.Words == 0 || st.Words > st.Instrs {
		t.Errorf("instrs=%d words=%d", st.Instrs, st.Words)
	}
	if st.RetI != 2 {
		t.Errorf("f(1) = %d", st.RetI)
	}
}

// TestRunsAreIndependentTimings: each Run starts from an empty scoreboard
// and reservation table, so a second Run of the same entry reports the
// cycles of the first. The function never uses its product, so it returns
// while r2000's mul still holds the multiplier (fourteen cycles), and the
// second run wants the multiplier before that claim would lapse.
func TestRunsAreIndependentTimings(t *testing.T) {
	src := `void f(int a, int b) { int x = a * b; }`
	c, err := driver.Compile("r2000", "c", "t.c", src, driver.Config{Strategy: strategy.Postpass})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	s := New(c.Prog, Options{})
	first, err := s.Run("f", Int(6), Int(7))
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Run("f", Int(6), Int(7))
	if err != nil {
		t.Fatal(err)
	}
	if first.Cycles != second.Cycles || first.Words != second.Words {
		t.Errorf("first run %d cycles / %d words, second %d / %d", first.Cycles, first.Words, second.Cycles, second.Words)
	}
}
