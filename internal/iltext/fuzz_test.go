package iltext_test

import (
	"testing"

	"marion/internal/iltext"
	"marion/internal/livermore"
)

// floatEdges is one function whose constants are the floating values a
// lossy print or a bits-blind parse would get wrong: -0, NaN, both
// infinities and a subnormal.
const floatEdges = `module edges
global g double size 8 initf -0 NaN +Inf -Inf 5e-324

func edges ret double
reg t0 double "x"
frame 0
block L0 depth 0
(asgn double t0 (const double -0))
(asgn double t0 (add double (reg double t0) (const double NaN)))
(asgn double t0 (mul double (reg double t0) (const double +Inf)))
(asgn double t0 (sub double (reg double t0) (const double -Inf)))
(asgn double t0 (div double (reg double t0) (const double 5e-324)))
(asgn double t0 (add double (reg double t0) (const float -0)))
(ret double (reg double t0))
`

// TestFloatEdgesFingerprintPinned: the floating edge cases fingerprint
// as they did when a float constant's value had a field of its own, so
// a cache filled then still hits. The digest was computed before the
// value moved into IVal's bits.
func TestFloatEdgesFingerprintPinned(t *testing.T) {
	m, err := iltext.Parse("edges", floatEdges)
	if err != nil {
		t.Fatal(err)
	}
	const want = "e18492d42ea5475b4ae0a83a57d0b1e211af74b1db107e01427b17ad56d58930"
	if got := m.Funcs[0].Fingerprint().String(); got != want {
		t.Errorf("fingerprint %s, want %s", got, want)
	}
}

// FuzzParse: whatever Parse accepts, printing it gives a text that
// Parse accepts again and that prints the same (Print∘Parse is a fixed
// point from the first print on), and the functions parsed from the
// reprint have the fingerprints of the ones parsed from the input. The
// seeds are the Livermore suite's IL, the floating edge cases and
// truncations of both; under plain go test they run as subtests. The
// edge cases must also print back exactly as written, every bit kept.
func FuzzParse(f *testing.F) {
	mod, err := livermore.SuiteModule()
	if err != nil {
		f.Fatal(err)
	}
	if edges, err := iltext.Parse("edges", floatEdges); err != nil {
		f.Fatal(err)
	} else if got := iltext.Print(edges); got != floatEdges {
		f.Fatalf("the floating edge cases print back as\n%s", got)
	}
	suite := iltext.Print(mod)
	for _, src := range []string{suite, floatEdges} {
		f.Add(src)
		for _, cut := range []int{len(src) / 3, len(src) / 2, len(src) - 2} {
			f.Add(src[:cut])
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		m1, err := iltext.Parse("fuzz", src)
		if err != nil {
			return
		}
		text := iltext.Print(m1)
		m2, err := iltext.Parse("fuzz", text)
		if err != nil {
			t.Fatalf("the print of an accepted input does not parse: %v\n%s", err, text)
		}
		if again := iltext.Print(m2); again != text {
			t.Fatalf("print is not a fixed point:\n--- first\n%s\n--- second\n%s", text, again)
		}
		if len(m1.Funcs) != len(m2.Funcs) {
			t.Fatalf("%d functions parsed, %d reparsed", len(m1.Funcs), len(m2.Funcs))
		}
		for i, fn := range m1.Funcs {
			if a, b := fn.Fingerprint(), m2.Funcs[i].Fingerprint(); a != b {
				t.Errorf("%s: fingerprint %s, reparsed %s", fn.Name, a, b)
			}
		}
	})
}
