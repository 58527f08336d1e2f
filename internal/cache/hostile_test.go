package cache_test

import (
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"marion/internal/asm"
	"marion/internal/cache"
	"marion/internal/driver"
	"marion/internal/ir"
	"marion/internal/livermore"
	"marion/internal/mach"
	"marion/internal/metrics"
	"marion/internal/strategy"
	"marion/internal/targets"
)

// hostileSrc has what the Livermore kernels lack: calls (implicit uses
// and defs), memory-resident locals, an addressed parameter and callee
// symbols.
const hostileSrc = `
int g[8];
double scale;
int leaf(int a, int b) { return a * b + g[a & 7]; }
int walk(int n, int seed) {
    int buf[6];
    int i;
    int *p;
    p = &seed;
    for (i = 0; i < 6; i = i + 1) buf[i] = leaf(i, *p) + n;
    return buf[n % 6] + leaf(buf[1], buf[2]);
}
`

// The allocation a failing Decode may make, as a multiple of the payload
// length plus a fixed part. Decode holds every count to the bytes still
// unread before it allocates, so the worst payload is one that spends
// its bytes where memory per byte is highest: a block count claiming
// three bytes a block (16 B/B), then an instruction count claiming six
// bytes an instruction (9 B/B), then operand counts claiming one byte
// an operand (32 B/B, times 2.2 for the slab's chunking); the fixed
// part is the symbol table harvested from the IR, which the payload
// does not control.
const (
	hostileAllocPerByte = 160
	hostileAllocFixed   = 16 << 10
)

// realEntry is a payload the pipeline stored, with the machine and the
// freshly lowered function a later hit would decode it against.
type realEntry struct {
	key     cache.Key
	payload []byte
	m       *mach.Machine
	fn      *ir.Func
}

// realEntries fills a cache by compiling lower()'s module cold, then
// compiles a second lowering warm — which lays out its globals and
// leaves its IR otherwise as lowered — and fetches each of its
// functions' entries by content address.
func realEntries(t *testing.T, target string, kind strategy.Kind, lower func() *ir.Module) (*cache.Cache, []realEntry) {
	t.Helper()
	m, err := targets.Load(target)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cache.New(cache.Options{Registry: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	cfg := driver.Config{Strategy: kind, Cache: c}
	if _, err := driver.CompileModule(m, lower(), cfg); err != nil {
		t.Fatal(err)
	}
	warm := lower()
	if c, err := driver.CompileModule(m, warm, cfg); err != nil || c.CacheHits != len(warm.Funcs) {
		t.Fatalf("%s/%s: warm compile: %v, %d hits of %d", target, kind, err, c.CacheHits, len(warm.Funcs))
	}
	cfgKey := cache.ConfigKey(cfg.Strategy, cfg.Options, cfg.LinearSelect)
	var out []realEntry
	for _, fn := range warm.Funcs {
		key := cache.FuncKey(fn.Fingerprint(), m.Fingerprint(), cfgKey)
		payload, ok := c.Get(key)
		if !ok {
			t.Fatalf("%s/%s %s: no entry under the key a warm run would use", target, kind, fn.Name)
		}
		if _, err := cache.Decode(payload, m, fn); err != nil {
			t.Fatalf("%s/%s %s: pristine entry does not decode: %v", target, kind, fn.Name, err)
		}
		out = append(out, realEntry{key, payload, m, fn})
	}
	return c, out
}

func lowerHostile(t *testing.T) func() *ir.Module {
	return func() *ir.Module {
		mod, err := driver.Frontend("hostile.c", hostileSrc)
		if err != nil {
			t.Fatal(err)
		}
		return mod
	}
}

func lowerLivermore(t *testing.T) func() *ir.Module {
	return func() *ir.Module {
		mod, err := livermore.SuiteModule()
		if err != nil {
			t.Fatal(err)
		}
		return mod
	}
}

// countSite is one count in an encoded entry: what it counts and where
// its varint sits.
type countSite struct {
	what      string
	off, size int
	value     uint64
}

// valueSite is one register id, operand half, cycle or sequence id in
// an encoded entry: what it is and where its varint sits.
type valueSite struct {
	what      string
	off, size int
	value     int64
}

// countSites walks an entry-v1 payload and returns every count in it.
func countSites(t *testing.T, p []byte) []countSite {
	t.Helper()
	counts, _ := entrySites(t, p)
	return counts
}

// entrySites walks an entry-v1 payload and returns every count and every
// value site in it. It is the test's own reading of the format Encode
// writes.
func entrySites(t *testing.T, p []byte) (counts []countSite, values []valueSite) {
	t.Helper()
	pos := 0
	u := func() uint64 {
		v, n := binary.Uvarint(p[pos:])
		if n <= 0 {
			t.Fatalf("bad uvarint at %d", pos)
		}
		pos += n
		return v
	}
	i := func() {
		_, n := binary.Varint(p[pos:])
		if n <= 0 {
			t.Fatalf("bad varint at %d", pos)
		}
		pos += n
	}
	count := func(what string) int {
		off := pos
		v := u()
		counts = append(counts, countSite{what, off, pos - off, v})
		return int(v)
	}
	val := func(what string) {
		v, n := binary.Varint(p[pos:])
		if n <= 0 {
			t.Fatalf("bad varint at %d", pos)
		}
		values = append(values, valueSite{what, pos, n, v})
		pos += n
	}
	str := func() { pos += int(u()) }
	physList := func(what string) {
		for n := count(what); n > 0; n-- {
			val(what + " id")
		}
	}

	str() // "entry-v1"
	i()   // frame size
	i()   // outgoing
	pos++ // uses calls
	i()   // spill slots
	physList("callee-save")
	for n := count("pseudo"); n > 0; n-- {
		i()
		i()
		val("precolor")
		pos += 8 + 1
	}
	for nb := count("block"); nb > 0; nb-- {
		u()
		i()
		for ni := count("instruction"); ni > 0; ni-- {
			u()
			for na := count("operand"); na > 0; na-- {
				kind := asm.OperandKind(p[pos])
				pos++
				switch kind {
				case asm.OpPseudo, asm.OpImm:
					i()
				case asm.OpPhys:
					val("operand phys")
				case asm.OpPseudoHalf:
					i()
					val("operand half")
				case asm.OpBlock:
					u()
				case asm.OpSym:
					class := p[pos]
					pos++
					switch class {
					case 1, 2:
						u()
					case 3:
						str()
					}
				}
			}
			physList("implicit use")
			physList("implicit def")
			val("cycle")
			val("sequence id")
		}
	}
	for n := 0; n < 9; n++ {
		i()
	}
	if pos != len(p) {
		t.Fatalf("walked %d of %d bytes", pos, len(p))
	}
	return counts, values
}

// replaceValue returns p with the value at s replaced by v.
func replaceValue(p []byte, s valueSite, v int64) []byte {
	out := append([]byte(nil), p[:s.off]...)
	out = binary.AppendVarint(out, v)
	return append(out, p[s.off+s.size:]...)
}

// inflate returns p with the count at s replaced by v.
func inflate(p []byte, s countSite, v uint64) []byte {
	out := append([]byte(nil), p[:s.off]...)
	out = binary.AppendUvarint(out, v)
	return append(out, p[s.off+s.size:]...)
}

// decodeAlloc decodes p and returns the error with the bytes the call
// allocated.
func decodeAlloc(p []byte, e realEntry) (error, uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := cache.Decode(p, e.m, e.fn)
	runtime.ReadMemStats(&after)
	return err, after.TotalAlloc - before.TotalAlloc
}

// Every truncation of a real entry, and every count in it — callee-saves,
// pseudos, blocks, instructions, operands, implicit uses and defs —
// inflated to any value the bytes behind it cannot back, is an error
// that costs memory in proportion to the payload, not to the count.
func TestDecodeHostileCounts(t *testing.T) {
	var entries []realEntry
	for _, cfg := range []struct {
		target string
		kind   strategy.Kind
		lower  func() *ir.Module
	}{
		{"r2000", strategy.Postpass, lowerLivermore(t)},
		{"i860", strategy.RASE, lowerHostile(t)},
		{"m88000", strategy.IPS, lowerHostile(t)},
		{"toyp", strategy.Postpass, lowerHostile(t)},
	} {
		_, es := realEntries(t, cfg.target, cfg.kind, cfg.lower)
		if len(es) > 6 {
			// Reading MemStats stops the world twice a probe; six
			// kernels' worth of probes is a few seconds.
			es = es[:6]
		}
		entries = append(entries, es...)
	}

	seen := map[string]int{}
	var worst float64
	probes := 0
	check := func(e realEntry, p []byte, what string, mustFail bool) {
		probes++
		err, alloc := decodeAlloc(p, e)
		if mustFail && err == nil {
			t.Fatalf("%s: %s decoded without error", e.fn.Name, what)
		}
		if err == nil {
			return
		}
		limit := uint64(hostileAllocPerByte*len(p) + hostileAllocFixed)
		if alloc > limit {
			t.Fatalf("%s: %s: failing Decode allocated %d bytes for a %d-byte payload (limit %d)",
				e.fn.Name, what, alloc, len(p), limit)
		}
		if r := float64(alloc) / float64(limit); r > worst {
			worst = r
		}
	}
	for _, e := range entries {
		for k := 0; k < len(e.payload); k++ {
			check(e, e.payload[:k], "truncation", true)
		}
		for _, s := range countSites(t, e.payload) {
			seen[s.what]++
			rest := uint64(len(e.payload) - s.off - s.size)
			for _, v := range []uint64{
				rest, rest + 1, uint64(len(e.payload)), 1 << 16, 1 << 32, math.MaxInt64, math.MaxUint64,
			} {
				// Nothing Decode counts encodes in under a byte, and an
				// entry ends in fields that are not counted: as many
				// items as bytes left cannot all be there. rest is the
				// largest count the operand and register-list guards
				// let through to an allocation.
				check(e, inflate(e.payload, s, v), s.what+" count", true)
			}
			// One too many shifts every later field: no panic, no blow-up.
			check(e, inflate(e.payload, s, s.value+1), s.what+" count + 1", false)
		}
	}
	for _, what := range []string{"callee-save", "pseudo", "block", "instruction", "operand", "implicit use", "implicit def"} {
		if seen[what] == 0 {
			t.Errorf("no %s count in the corpus", what)
		}
	}
	t.Logf("%d entries, %d probes; the costliest failing Decode allocated %.0f%% of its limit", len(entries), probes, 100*worst)
}

// Every value Decode stores in a field narrower than the varint it
// reads — a physical register id (an int16), an operand half (a uint8),
// a cycle or sequence id (an int32) — replaced by one the field cannot
// hold is an error, not a value wrapped into one that prints as
// something else. NoPhys is admitted only as a precolor. Each site is
// also rewritten to a legal value first, which must decode: the error
// is the value's, not the rewrite's.
func TestDecodeHostileValues(t *testing.T) {
	var entries []realEntry
	for _, cfg := range []struct {
		target string
		kind   strategy.Kind
	}{
		{"i860", strategy.RASE},
		{"m88000", strategy.IPS},
		{"toyp", strategy.Postpass},
	} {
		_, es := realEntries(t, cfg.target, cfg.kind, lowerHostile(t))
		entries = append(entries, es...)
	}
	const wrap16, wrap32 = 1 << 16, 1 << 32
	seen := map[string]int{}
	probes := 0
	for _, e := range entries {
		decode := func(p []byte, what string, v int64, wantErr bool) {
			probes++
			_, err := cache.Decode(p, e.m, e.fn)
			switch {
			case wantErr && err == nil:
				t.Fatalf("%s: %s %d decoded without error", e.fn.Name, what, v)
			case !wantErr && err != nil:
				t.Fatalf("%s: %s %d: %v", e.fn.Name, what, v, err)
			}
		}
		numPhys := int64(e.m.NumPhys)
		counts, values := entrySites(t, e.payload)
		pseudos := false
		for _, c := range counts {
			pseudos = pseudos || c.what == "pseudo" && c.value > 0
		}
		for _, s := range values {
			seen[s.what]++
			var good, bad []int64
			switch s.what {
			case "callee-save id", "implicit use id", "implicit def id", "operand phys":
				good = []int64{0, numPhys - 1}
				bad = []int64{-1, -2, numPhys, math.MaxInt16 + 1, wrap16 + s.value, math.MinInt64}
			case "precolor":
				good = []int64{-1, 0, numPhys - 1}
				bad = []int64{-2, numPhys, wrap16 - 1, wrap16 + s.value, math.MaxInt64}
			case "cycle", "sequence id":
				good = []int64{0, math.MaxInt32, math.MinInt32}
				bad = []int64{math.MaxInt32 + 1, math.MinInt32 - 1, wrap32 + s.value}
			default:
				t.Fatalf("unexpected value site %q", s.what)
			}
			for _, v := range good {
				decode(replaceValue(e.payload, s, v), s.what, v, false)
			}
			for _, v := range bad {
				decode(replaceValue(e.payload, s, v), s.what, v, true)
			}
			if s.what != "operand phys" || !pseudos {
				continue
			}
			// Compiled code holds no lo/hi half operands (the allocator
			// resolves them), so one is made here out of a register
			// operand: the kind byte before the id, then pseudo 0 and the
			// half in the id's place.
			for _, h := range []int64{0, 1, 2, -1, 1 << 8, 1<<8 + 1} {
				seen["operand half"]++
				p := append([]byte(nil), e.payload[:s.off-1]...)
				p = append(p, byte(asm.OpPseudoHalf))
				p = binary.AppendVarint(p, 0)
				p = binary.AppendVarint(p, h)
				p = append(p, e.payload[s.off+s.size:]...)
				decode(p, "operand half", h, h != 0 && h != 1)
			}
		}
	}
	for _, what := range []string{"callee-save id", "implicit use id", "implicit def id", "operand phys", "precolor", "cycle", "sequence id", "operand half"} {
		if seen[what] == 0 {
			t.Errorf("no %s in the corpus", what)
		}
	}
	t.Logf("%d entries, %d probes", len(entries), probes)
}

// A hostile entry under a live key is a miss that heals: the pipeline
// rejects it, recompiles, and stores a good entry in its place.
func TestHostileEntryRejected(t *testing.T) {
	c, entries := realEntries(t, "m88000", strategy.Postpass, lowerHostile(t))
	m := entries[0].m
	cfg := driver.Config{Strategy: strategy.Postpass, Cache: c}
	compile := func() string {
		out, err := driver.CompileModule(m, lowerHostile(t)(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return out.Prog.Print()
	}
	want := compile()
	for _, e := range entries {
		var bad [][]byte
		for k := 0; k < len(e.payload); k += 7 {
			bad = append(bad, e.payload[:k])
		}
		for _, s := range countSites(t, e.payload) {
			bad = append(bad, inflate(e.payload, s, uint64(len(e.payload))))
		}
		for _, p := range bad {
			before := c.Stats()
			c.Put(e.key, p)
			if got := compile(); got != want {
				t.Fatalf("%s: output changed after a hostile entry", e.fn.Name)
			}
			after := c.Stats()
			if after.Rejects != before.Rejects+1 {
				t.Fatalf("%s: rejects %d -> %d, want one more", e.fn.Name, before.Rejects, after.Rejects)
			}
			if healed, ok := c.Get(e.key); !ok || string(healed) != string(e.payload) {
				t.Fatalf("%s: entry not healed after the reject", e.fn.Name)
			}
		}
	}
}
