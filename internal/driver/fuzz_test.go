package driver_test

import (
	"testing"

	"marion/internal/driver"
	"marion/internal/gentest"
	"marion/internal/livermore"
)

// FuzzLowerC feeds arbitrary text to the C front end (lexer, parser,
// type checker, lowering) through driver.Lower: it may refuse the text,
// but must not panic. The seeds are the C units of gentest.Golden and the
// Livermore kernels, whole and cut short; under plain go test they run
// as subtests.
func FuzzLowerC(f *testing.F) {
	var seeds []string
	for _, u := range gentest.Golden() {
		if u.Lang == "c" {
			seeds = append(seeds, u.Text)
		}
	}
	for _, k := range livermore.Kernels {
		seeds = append(seeds, k.Source)
	}
	for _, src := range seeds {
		f.Add(src)
		f.Add(src[:len(src)/2])
	}
	f.Fuzz(func(t *testing.T, src string) {
		driver.Lower("c", "fuzz.c", src)
	})
}
