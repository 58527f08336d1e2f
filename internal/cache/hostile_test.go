package cache_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"marion/internal/cache"
	"marion/internal/driver"
	"marion/internal/gentest"
	"marion/internal/ir"
	"marion/internal/livermore"
	"marion/internal/mach"
	"marion/internal/metrics"
	"marion/internal/strategy"
	"marion/internal/targets"
)

// hostileSrc has what the Livermore kernels lack: calls, memory-resident
// locals, an addressed parameter and callee symbols.
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
// length plus a fixed part. Decode allocates the Entry with its Func, an
// error, and — only once a name differs from the stored one, which a
// probe against the function the entry was stored for never makes —
// the rebound text, at most 1.125 times the text. The fixed part is
// what the runtime itself now and then allocates between the two
// MemStats reads of a probe (5.4 KiB).
const (
	hostileAllocPerByte = 2
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
func realEntries(t testing.TB, target string, kind strategy.Kind, lower func() *ir.Module) (*cache.Cache, []realEntry) {
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
	cfgKey := cache.ConfigKey(cfg.Strategy, cfg.Options, false)
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

func lowerSource(t testing.TB, name, src string) func() *ir.Module {
	return func() *ir.Module {
		mod, err := driver.Frontend(name, src)
		if err != nil {
			t.Fatal(err)
		}
		return mod
	}
}

func lowerHostile(t testing.TB) func() *ir.Module { return lowerSource(t, "hostile.c", hostileSrc) }

func lowerLivermore(t testing.TB) func() *ir.Module {
	return func() *ir.Module {
		mod, err := livermore.SuiteModule()
		if err != nil {
			t.Fatal(err)
		}
		return mod
	}
}

// Hole kinds, as the entry writes them.
const (
	holeFunc = iota
	holeBlock
	holeParam
	holeLocal
	holeGlobal
	numHoleKinds
)

// hole is one entry of an entry-v2 relocation list.
type hole struct {
	off, n uint64
	kind   byte
	idx    uint64
}

func indexed(kind byte) bool { return kind == holeBlock || kind == holeParam || kind == holeLocal }

// entry is the test's own reading of an entry-v2 payload: the version
// and statistics, the text, the holes, and where the two counts sit.
type entry struct {
	head          []byte
	text          []byte
	holes         []hole
	textLenSite   countSite
	holeCountSite countSite
}

// countSite is one count in an encoded entry: what it counts and where
// its varint sits.
type countSite struct {
	what      string
	off, size int
	value     uint64
}

func parseEntry(t testing.TB, p []byte) entry {
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
	count := func(what string) countSite {
		off := pos
		v := u()
		return countSite{what, off, pos - off, v}
	}
	pos += int(u()) // "entry-v2"
	for range 9 {
		if _, n := binary.Varint(p[pos:]); n <= 0 {
			t.Fatalf("bad varint at %d", pos)
		} else {
			pos += n
		}
	}
	var e entry
	e.head = p[:pos]
	e.textLenSite = count("text length")
	e.text = p[pos : pos+int(e.textLenSite.value)]
	pos += len(e.text)
	e.holeCountSite = count("hole")
	for range e.holeCountSite.value {
		h := hole{off: u(), n: u(), kind: p[pos]}
		pos++
		if indexed(h.kind) {
			h.idx = u()
		}
		e.holes = append(e.holes, h)
	}
	if pos != len(p) {
		t.Fatalf("walked %d of %d bytes", pos, len(p))
	}
	return e
}

// bytes encodes e as Encode would.
func (e entry) bytes() []byte {
	p := append([]byte(nil), e.head...)
	p = binary.AppendUvarint(p, uint64(len(e.text)))
	p = append(p, e.text...)
	p = binary.AppendUvarint(p, uint64(len(e.holes)))
	for _, h := range e.holes {
		p = binary.AppendUvarint(p, h.off)
		p = binary.AppendUvarint(p, h.n)
		p = append(p, h.kind)
		if indexed(h.kind) {
			p = binary.AppendUvarint(p, h.idx)
		}
	}
	return p
}

// clone returns a copy of e that shares nothing with it.
func (e entry) clone() entry {
	e.text = slices.Clone(e.text)
	e.holes = slices.Clone(e.holes)
	return e
}

// edit returns e with text[at:at+n] replaced by repl and the holes
// behind the edit moved with it.
func (e entry) edit(at, n int, repl string) entry {
	e = e.clone()
	e.text = slices.Concat(e.text[:at], []byte(repl), e.text[at+n:])
	for i := range e.holes {
		if e.holes[i].off >= uint64(at+n) {
			e.holes[i].off += uint64(len(repl) - n)
		}
	}
	return e
}

// inHole reports whether text[at] lies inside a hole.
func (e entry) inHole(at int) bool {
	for _, h := range e.holes {
		if uint64(at) >= h.off && uint64(at) < h.off+h.n {
			return true
		}
	}
	return false
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

// Every truncation of a real entry, and both of its counts — the text's
// length and the number of holes — inflated to any value the bytes
// behind them cannot back, is an error that costs memory in proportion
// to the payload, not to the count.
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
		pe := parseEntry(t, e.payload)
		for _, s := range []countSite{pe.textLenSite, pe.holeCountSite} {
			seen[s.what]++
			rest := uint64(len(e.payload) - s.off - s.size)
			for _, v := range []uint64{
				rest + 1, uint64(len(e.payload)), 1 << 16, 1 << 32, math.MaxInt64, math.MaxUint64,
			} {
				check(e, inflate(e.payload, s, v), s.what+" count", true)
			}
			// One too many or too few shifts every later field: no
			// panic, no blow-up.
			check(e, inflate(e.payload, s, s.value+1), s.what+" count + 1", true)
			check(e, inflate(e.payload, s, s.value-1), s.what+" count - 1", true)
		}
	}
	for _, what := range []string{"text length", "hole"} {
		if seen[what] == 0 {
			t.Errorf("no %s count in the corpus", what)
		}
	}
	t.Logf("%d entries, %d probes; the costliest failing Decode allocated %.0f%% of its limit", len(entries), probes, 100*worst)
}

// mutant is one rewrite of a real entry and whether Decode must refuse
// it.
type mutant struct {
	class   string
	e       entry
	payload []byte // when set, the payload instead of e's encoding
	wantErr bool
}

var physRe = regexp.MustCompile(`[ ,]p(\d+)`)

// mutants rewrites e in every way Decode must see through, and in legal
// ways beside each, which must decode: the error is the value's, not
// the rewrite's.
func mutants(e entry, m *mach.Machine, fn *ir.Func) []mutant {
	var out []mutant
	add := func(class string, e entry, wantErr bool) {
		out = append(out, mutant{class: class, e: e, wantErr: wantErr})
	}
	bounds := map[byte]uint64{holeBlock: uint64(len(fn.Blocks)), holeParam: uint64(len(fn.Params)), holeLocal: uint64(len(fn.Locals))}
	classes := map[byte]string{holeBlock: "block index", holeParam: "param index", holeLocal: "local index"}
	for i, h := range e.holes {
		set := func(h hole) entry {
			c := e.clone()
			c.holes[i] = h
			return c
		}
		// An index inside the current function, and past it.
		if indexed(h.kind) {
			for _, v := range []uint64{0, bounds[h.kind] - 1} {
				add(classes[h.kind], set(hole{h.off, h.n, h.kind, v}), false)
			}
			for _, v := range []uint64{bounds[h.kind], bounds[h.kind] + 1, math.MaxUint64} {
				add(classes[h.kind], set(hole{h.off, h.n, h.kind, v}), true)
			}
		}
		// A global symbol's name made a parameter's or a local's, which
		// the corpus's code rarely addresses by name.
		if h.kind == holeGlobal {
			for _, k := range []byte{holeParam, holeLocal} {
				if bounds[k] > 0 {
					add(classes[k], set(hole{h.off, h.n, k, bounds[k] - 1}), false)
				}
				add(classes[k], set(hole{h.off, h.n, k, bounds[k]}), true)
			}
			name := h.off + h.n - 1
			c := e.edit(int(name), 1, "\x01")
			add("control byte", c, true)
		}
		// A kind the format lacks, or one its place does not take.
		for _, k := range []byte{numHoleKinds, 0xff} {
			add("hole kind", set(hole{h.off, h.n, k, 0}), true)
		}
		switch h.kind {
		case holeFunc:
			add("hole kind", set(hole{h.off, h.n, holeGlobal, 0}), true)
		case holeBlock:
			if e.text[h.off+h.n] == ':' {
				add("hole kind", set(hole{h.off, h.n, holeGlobal, 0}), true)
			}
		default:
			add("hole kind", set(hole{h.off, h.n, holeFunc, 0}), true)
		}
		if i == 0 {
			continue
		}
		// Offsets out of order, overlapping, or past the text.
		prev := e.holes[i-1]
		swapped := e.clone()
		swapped.holes[i-1], swapped.holes[i] = swapped.holes[i], swapped.holes[i-1]
		add("unsorted holes", swapped, true)
		add("overlapping holes", set(hole{prev.off + prev.n - 1, h.n + h.off - (prev.off + prev.n - 1), h.kind, h.idx}), true)
		if i == len(e.holes)-1 {
			n := uint64(len(e.text))
			add("hole past the end", set(hole{n, 1, h.kind, h.idx}), true)
			add("hole past the end", set(hole{h.off, n - h.off + 1, h.kind, h.idx}), true)
			add("hole past the end", set(hole{math.MaxUint64, 1, h.kind, h.idx}), true)
			dropped := e.clone()
			dropped.holes = dropped.holes[:i]
			add("missing hole", dropped, true)
		}
	}

	// Registers inside and outside the machine; numbers strconv would
	// not write.
	for _, loc := range physRe.FindAllSubmatchIndex(e.text, -1) {
		if e.inHole(loc[2]) {
			continue
		}
		at, n := loc[2], loc[3]-loc[2]
		id, _ := strconv.Atoi(string(e.text[at:loc[3]]))
		for _, v := range []int{0, m.NumPhys - 1} {
			add("physical register", e.edit(at, n, strconv.Itoa(v)), false)
		}
		for _, v := range []string{strconv.Itoa(m.NumPhys), strconv.Itoa(m.NumPhys + 1), strconv.Itoa(1<<16 + id), "18446744073709551616", "-1"} {
			add("physical register", e.edit(at, n, v), true)
		}
		add("number", e.edit(at, n, "0"+strconv.Itoa(id)), true)
	}
	frame := bytes.Index(e.text, []byte("frame=")) + len("frame=")
	frameLen := bytes.IndexByte(e.text[frame:], '\n')
	for _, v := range []string{"0", "-9223372036854775808", "9223372036854775807", "12"} {
		add("number", e.edit(frame, frameLen, v), false)
	}
	for _, v := range []string{"-0", "+12", "012", "9223372036854775808", "-9223372036854775809", "", "1 2"} {
		add("number", e.edit(frame, frameLen, v), true)
	}

	// Mnemonics: every template's, and none.
	lines := bytes.SplitAfter(e.text, []byte("\n"))
	at := 0
	for _, line := range lines {
		if bytes.HasPrefix(line, []byte("  ")) && len(line) > 4 {
			start := at + 4
			end := start + bytes.IndexAny(line[4:], " \n")
			add("template", e.edit(start, end-start, m.Instrs[0].Mnemonic), false)
			for _, bad := range []string{"bogus", "", string(e.text[start:end]) + "x", "\x00" + string(e.text[start+1:end])} {
				if !m.HasMnemonic([]byte(bad)) {
					add("template", e.edit(start, end-start, bad), true)
				}
			}
			add("control byte", e.edit(start-1, 1, "\t"), true)
			add("control byte", e.edit(at+len(line)-1, 0, "\r"), true)
			// A hole over the mnemonic: a name where none may stand.
			c := e.clone()
			i := slices.IndexFunc(c.holes, func(h hole) bool { return h.off > uint64(start) })
			if i < 0 {
				i = len(c.holes)
			}
			c.holes = slices.Insert(c.holes, i, hole{uint64(start), uint64(end - start), holeGlobal, 0})
			add("hole outside a name", c, true)
		}
		at += len(line)
	}

	// Trailing bytes.
	for _, tail := range [][]byte{{0}, {1, 2, 3}} {
		out = append(out, mutant{class: "trailing bytes", payload: append(e.bytes(), tail...), wantErr: true})
	}
	return out
}

// Every value and structure of real entries rewritten to one Decode
// must refuse — an index past the current function, a register past
// the machine, a mnemonic no template has, a number strconv would not
// write, holes out of order, overlapping or past the text, a hole kind
// the format lacks or its place does not take, a control byte, a hole
// where no name stands or none where one does, trailing bytes — is an
// error; each class is also rewritten to a legal value, which must
// decode.
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
	seen := map[string]int{}
	probes := 0
	for _, re := range entries {
		for _, mu := range mutants(parseEntry(t, re.payload), re.m, re.fn) {
			probes++
			seen[mu.class]++
			p := mu.payload
			if p == nil {
				p = mu.e.bytes()
			}
			ent, err := cache.Decode(p, re.m, re.fn)
			switch {
			case mu.wantErr && err == nil:
				t.Fatalf("%s: %s decoded without error:\n%s", re.fn.Name, mu.class, ent.Func.Text)
			case !mu.wantErr && err != nil:
				t.Fatalf("%s: legal %s: %v\n%s", re.fn.Name, mu.class, err, mu.e.text)
			}
		}
	}
	for _, class := range []string{
		"block index", "param index", "local index", "physical register", "number", "template",
		"trailing bytes", "unsorted holes", "overlapping holes", "hole past the end", "missing hole",
		"hole kind", "control byte", "hole outside a name",
	} {
		if seen[class] == 0 {
			t.Errorf("no %s probe in the corpus", class)
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
		pe := parseEntry(t, e.payload)
		for _, s := range []countSite{pe.textLenSite, pe.holeCountSite} {
			bad = append(bad, inflate(e.payload, s, uint64(len(e.payload))))
		}
		classes := map[string]bool{}
		for _, mu := range mutants(pe, m, e.fn) {
			if mu.wantErr && !classes[mu.class] {
				classes[mu.class] = true
				p := mu.payload
				if p == nil {
					p = mu.e.bytes()
				}
				bad = append(bad, p)
			}
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

// An entry in the previous format (entry-v1, written by the codec that
// rebuilt instructions: testdata/entry-v1.bin is the first function of
// the first golden unit on r2000 under postpass) left on the disk tier
// heals: Decode refuses it, Reject clears both tiers, a compile stores
// entry-v2 in its place, and the next compile hits.
func TestOldEntryHeals(t *testing.T) {
	v1, err := os.ReadFile("testdata/entry-v1.bin")
	if err != nil {
		t.Fatal(err)
	}
	u := gentest.Golden()[0]
	lower := lowerSource(t, u.Name, u.Text)
	_, entries := realEntries(t, "r2000", strategy.Postpass, lower)
	e := entries[0]
	if bytes.Equal(v1, e.payload) || !bytes.HasPrefix(v1, []byte("\x08entry-v1")) {
		t.Fatal("testdata/entry-v1.bin is not an entry-v1 payload")
	}
	if _, err := cache.Decode(v1, e.m, e.fn); err == nil {
		t.Fatal("an entry-v1 payload decodes")
	}

	dir := t.TempDir()
	onDisk := func() *cache.Cache {
		c, err := cache.New(cache.Options{Dir: dir, Registry: metrics.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	onDisk().Put(e.key, v1)
	// Reject clears both tiers: the key misses in this cache, whose
	// memory tier held it, and in a fresh one, which reads the disk.
	c := onDisk()
	if p, ok := c.Get(e.key); !ok || !bytes.Equal(p, v1) {
		t.Fatal("the entry-v1 payload is not on the disk tier")
	}
	c.Reject(e.key)
	if _, ok := c.Get(e.key); ok {
		t.Fatal("Reject left the entry in the memory tier")
	}
	if _, ok := onDisk().Get(e.key); ok {
		t.Fatal("Reject left the entry on the disk tier")
	}

	// Through the pipeline: the hit is refused, rejected and recompiled.
	onDisk().Put(e.key, v1)
	c = onDisk()
	cfg := driver.Config{Strategy: strategy.Postpass, Cache: c}
	cold, err := driver.CompileModule(e.m, lower(), driver.Config{Strategy: strategy.Postpass})
	if err != nil {
		t.Fatal(err)
	}
	mod := lower()
	out, err := driver.CompileModule(e.m, mod, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.DiskHits != 1 || st.Rejects != 1 || out.CacheHits != 0 || st.Stores != int64(len(mod.Funcs)) {
		t.Fatalf("first compile: %+v, %d hits", st, out.CacheHits)
	}
	if out.Prog.Print() != cold.Prog.Print() {
		t.Fatal("the compile that healed the entry printed other bytes than a cold one")
	}
	if p, ok := onDisk().Get(e.key); !ok || !bytes.Equal(p, e.payload) {
		t.Fatal("the disk tier does not hold the entry-v2 payload")
	}
	mod = lower()
	out, err = driver.CompileModule(e.m, mod, cfg)
	if err != nil || out.CacheHits != len(mod.Funcs) || out.Prog.Print() != cold.Prog.Print() {
		t.Fatalf("second compile: %v, %d hits of %d", err, out.CacheHits, len(mod.Funcs))
	}
}
