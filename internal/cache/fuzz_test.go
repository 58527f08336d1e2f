package cache_test

import (
	"bytes"
	"runtime"
	"testing"

	"marion/internal/cache"
	"marion/internal/driver"
	"marion/internal/gentest"
	"marion/internal/iltext"
	"marion/internal/ir"
	"marion/internal/mach"
	"marion/internal/strategy"
)

// fuzzCase is one function Decode is fuzzed against: the machine, the
// lowered function, the entry a compile stored for it and the text a
// cold compile printed for it.
type fuzzCase struct {
	m       *mach.Machine
	fn      *ir.Func
	payload []byte
	cold    []byte
}

// longestName is the longest name Decode can write into fn's text: its
// own, a block label's, a parameter's or a local's. It bounds how much
// one hole can grow the text by.
func longestName(fn *ir.Func) int {
	n := len(fn.Name)
	for _, b := range fn.Blocks {
		n = max(n, len(b.Name()))
	}
	for _, s := range append(append([]*ir.Sym(nil), fn.Params...), fn.Locals...) {
		n = max(n, len(s.Name))
	}
	return n
}

// FuzzDecode: Decode against a fixed lowered function never panics. It
// either returns an error, or a text no longer than the payload plus
// what its holes can grow by (a hole takes at least three bytes of
// payload and grows by at most the function's longest name), having
// allocated at most a fixed multiple of that; and the unmodified entry
// splices to what the cold compile printed. The fuzzed input picks the
// function (which, modulo the number of cases) and gives the payload.
// The seeds are the entries of every function of gentest.Golden and
// gentest.Serve on r2000, m88000 and i860 under postpass, and
// truncations of each; under plain go test they run as subtests.
func FuzzDecode(f *testing.F) {
	frontEnds := map[string]func(name, src string) (*ir.Module, error){"c": driver.Frontend, "il": iltext.Parse}
	var cases []fuzzCase
	for _, target := range []string{"r2000", "m88000", "i860"} {
		for _, u := range append(gentest.Golden(), gentest.Serve()...) {
			lower := func() *ir.Module {
				mod, err := frontEnds[u.Lang](u.Name, u.Text)
				if err != nil {
					f.Fatal(err)
				}
				return mod
			}
			_, entries := realEntries(f, target, strategy.Postpass, lower)
			cold, err := driver.CompileModule(entries[0].m, lower(), driver.Config{Strategy: strategy.Postpass})
			if err != nil {
				f.Fatal(err)
			}
			for i, e := range entries {
				cases = append(cases, fuzzCase{e.m, e.fn, e.payload, cold.Prog.Funcs[i].AppendText(nil, nil)})
			}
		}
	}
	for i, c := range cases {
		f.Add(uint16(i), c.payload)
		for _, cut := range []int{len(c.payload) / 3, len(c.payload) / 2, len(c.payload) - 2} {
			f.Add(uint16(i), c.payload[:cut])
		}
	}
	f.Fuzz(func(t *testing.T, which uint16, payload []byte) {
		c := cases[int(which)%len(cases)]
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ent, err := cache.Decode(payload, c.m, c.fn)
		runtime.ReadMemStats(&after)
		textBound := len(payload) + len(payload)/3*longestName(c.fn)
		// The fixed part is what the runtime and the fuzzing engine
		// allocate between the two reads.
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(2*textBound+64<<10) {
			t.Fatalf("Decode allocated %d bytes for a %d-byte payload", alloc, len(payload))
		}
		if err != nil {
			return
		}
		if got := len(ent.Func.Text); got > textBound {
			t.Fatalf("a %d-byte payload decoded to %d bytes of text", len(payload), got)
		}
		if bytes.Equal(payload, c.payload) && !bytes.Equal(ent.Func.Text, c.cold) {
			t.Fatalf("%s: the entry splices to\n%s\nthe cold compile printed\n%s", c.fn.Name, ent.Func.Text, c.cold)
		}
	})
}
