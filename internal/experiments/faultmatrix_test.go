package experiments

import (
	"errors"
	"testing"
	"time"

	"marion/internal/driver"
	"marion/internal/faults"
	"marion/internal/pipeline"
	"marion/internal/strategy"
	"marion/internal/targets"
)

// chaosBudget bounds each per-function attempt so hang-mode faults
// resolve into typed budget errors instead of stalling the sweep.
const chaosBudget = 30 * time.Millisecond

// chaosSrc is the module every cell compiles: small enough that the
// sweep stays fast, mixed enough (integer loop, float expression, call)
// to reach every injection site on every target.
const chaosSrc = `
int ker(int n) {
    int s = 0;
    int i;
    for (i = 0; i < n; i++) s += i * i;
    return s;
}
double mix(double a, double b) { return a * b + a - b; }
int use(int n) { return ker(n) + ker(n + 1); }
`

// TestFaultMatrix is the chaos sweep. It arms one fault at a time —
// every injection site × every mode — on the first attempt only, and
// compiles chaosSrc for every target × strategy with the degradation
// ladder and the emitted-code verifier on. A robust back end never lets
// the process die: every function degrades to a fallback rung whose
// output verifies clean. An outright failure or a verifier finding fails
// the cell. Each target is one parallel subtest.
func TestFaultMatrix(t *testing.T) {
	strats := []strategy.Kind{strategy.Naive, strategy.Postpass, strategy.IPS, strategy.RASE, strategy.Local}
	for _, tn := range targets.Names() {
		t.Run(tn, func(t *testing.T) {
			t.Parallel()
			m, err := targets.Load(tn)
			if err != nil {
				t.Fatal(err)
			}
			for _, site := range faults.Sites() {
				for _, mode := range faults.Modes() {
					set, err := faults.Parse(site + ":" + mode.String())
					if err != nil {
						t.Fatal(err)
					}
					for _, st := range strats {
						// A fresh module per compile: the back end
						// rewrites the IL in place.
						mod, err := driver.Frontend("chaos.c", chaosSrc)
						if err != nil {
							t.Fatal(err)
						}
						c, err := driver.CompileModule(m, mod, driver.Config{
							Strategy: st, Workers: 2,
							Verify: true, Budget: chaosBudget, Faults: set,
						})
						var diags *pipeline.Diagnostics
						switch {
						case errors.As(err, &diags):
							t.Errorf("%s %s/%s: %d outright failure(s):\n%v", set, tn, st, len(diags.All()), err)
						case err != nil:
							t.Fatalf("%s %s/%s: %v", set, tn, st, err)
						case len(c.Verify.Findings) > 0:
							t.Errorf("%s %s/%s: %d verifier finding(s):\n%s", set, tn, st, len(c.Verify.Findings), c.Verify)
						case len(c.Degradations) != len(mod.Funcs):
							t.Errorf("%s %s/%s: degraded %d/%d functions", set, tn, st, len(c.Degradations), len(mod.Funcs))
						}
					}
				}
			}
		})
	}
}
