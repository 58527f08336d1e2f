package driver_test

import (
	"testing"

	"marion/internal/driver"
	"marion/internal/gentest"
	"marion/internal/livermore"
)

// FuzzLowerC feeds arbitrary text to the C front end (lexer, parser,
// type checker, lowering) on a frontEnd kept between inputs, as the pool
// keeps it: it may refuse the text, but must not panic, must lower it
// into the frontEnd's rewound slab (LowerScoped) as a fresh front end
// lowers it, must leave nothing of the text in the frontEnd, and must
// leave the frontEnd lowering a fixed unit (the first Livermore kernel)
// as it did first.
// The seeds are the C units of gentest.Golden, the Livermore kernels,
// whole and cut short, and units that fail in the parser and the
// checker; under plain go test they run as subtests.
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
	for _, src := range frontFailures {
		f.Add(src)
	}
	fixed := livermore.Kernels[0].Source
	want := lowerFresh("fixed.c", fixed)
	kept := new(driver.Kept)
	f.Fuzz(func(t *testing.T, src string) {
		if got, want := lowerScoped(t, kept, "c", "fuzz.c", src), lowerFresh("fuzz.c", src); got != want {
			t.Fatalf("on a rewound slab, the input lowers to\n%s\nwant\n%s", got, want)
		}
		driver.LowerOn(kept, "fuzz.c", src)
		if path := frontEndPin(kept.Workers()[0]); path != "" {
			t.Fatalf("after the input, the pooled frontEnd holds %s", path)
		}
		if got := lowered(driver.LowerOn(kept, "fixed.c", fixed)); got != want {
			t.Fatalf("after the input, the pooled frontEnd lowers the fixed unit to\n%s", got)
		}
	})
}
