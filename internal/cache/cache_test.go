package cache

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"marion/internal/metrics"
	"marion/internal/strategy"
)

func testKey(i int) Key {
	var k Key
	k[0] = byte(i)
	k[1] = byte(i >> 8)
	k[31] = byte(i >> 16)
	return k
}

func newMem(t *testing.T, maxBytes int64) *Cache {
	t.Helper()
	c, err := New(Options{MaxBytes: maxBytes, Registry: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestMemoryHit(t *testing.T) {
	c := newMem(t, 1<<20)
	k := testKey(1)
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(k, []byte("payload"))
	got, ok := c.Get(k)
	if !ok || string(got) != "payload" {
		t.Fatalf("get = %q, %v", got, ok)
	}
	s := c.Stats()
	if s.MemHits != 1 || s.Misses != 1 || s.Stores != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	// Keys that all fall in shard 0 so the LRU order is observable; cap
	// small enough (the per-shard floor, 64 KiB) that a few large blobs
	// force eviction.
	c, err := New(Options{MaxBytes: 1, Registry: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	key := func(i int) Key { return testKey(i * numShards) }
	blob := make([]byte, 30<<10)
	for i := 0; i < 3; i++ {
		c.Put(key(i), blob)
	}
	// 3 x 30KiB > 64KiB: the first (least recent) entry must be gone.
	if _, ok := c.Get(key(0)); ok {
		t.Fatal("LRU victim still present")
	}
	if _, ok := c.Get(key(2)); !ok {
		t.Fatal("most recent entry evicted")
	}
	if c.Stats().Evictions == 0 {
		t.Fatal("no evictions counted")
	}
	// Touch entry 1, add another: entry 1 must survive over entry 2.
	if _, ok := c.Get(key(1)); !ok {
		t.Fatal("entry 1 missing before touch test")
	}
	c.Put(key(3), blob)
	if _, ok := c.Get(key(1)); !ok {
		t.Fatal("recently used entry evicted before older one")
	}
}

func TestDiskTierAndPromotion(t *testing.T) {
	dir := t.TempDir()
	c1, err := New(Options{Dir: dir, Registry: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(7)
	c1.Put(k, []byte("persisted"))

	// A fresh cache over the same directory: miss in memory, hit on disk.
	c2, err := New(Options{Dir: dir, Registry: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get(k)
	if !ok || string(got) != "persisted" {
		t.Fatalf("disk get = %q, %v", got, ok)
	}
	if s := c2.Stats(); s.DiskHits != 1 {
		t.Fatalf("stats = %+v", s)
	}
	// Promotion: second get is a memory hit.
	if _, ok := c2.Get(k); !ok {
		t.Fatal("promoted entry missing")
	}
	if s := c2.Stats(); s.MemHits != 1 {
		t.Fatalf("stats after promotion = %+v", s)
	}
}

func TestCorruptDiskEntryRejected(t *testing.T) {
	dir := t.TempDir()
	c1, err := New(Options{Dir: dir, Registry: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(9)
	c1.Put(k, []byte("good payload"))

	// Poison the stored file: flip a payload byte.
	path := filepath.Join(dir, k.String()+".mce")
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-1] ^= 0xFF
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	c2, err := New(Options{Dir: dir, Registry: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get(k); ok {
		t.Fatal("corrupt entry served")
	}
	s := c2.Stats()
	if s.Rejects != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt file not deleted")
	}
}

func TestRejectRemovesBothTiers(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Options{Dir: dir, Registry: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(11)
	c.Put(k, []byte("doomed"))
	c.Reject(k)
	if _, ok := c.Get(k); ok {
		t.Fatal("rejected entry still served")
	}
	if _, err := os.Stat(filepath.Join(dir, k.String()+".mce")); !os.IsNotExist(err) {
		t.Fatal("rejected file not deleted")
	}
}

func TestConcurrentGetPutStore(t *testing.T) {
	c, err := New(Options{Dir: t.TempDir(), MaxBytes: 1 << 20, Registry: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := testKey(i % 32)
				want := []byte(fmt.Sprintf("entry-%d", i%32))
				if got, ok := c.Get(k); ok && !bytes.Equal(got, want) {
					t.Errorf("key %d: got %q", i%32, got)
					return
				}
				c.Put(k, want)
			}
		}(g)
	}
	wg.Wait()
}

func TestConfigKey(t *testing.T) {
	base := func() (strategy.Kind, strategy.Options, bool) {
		return strategy.RASE, strategy.Options{}, false
	}
	k, o, l := base()
	a := ConfigKey(k, o, l)
	b := ConfigKey(k, o, l)
	if a != b {
		t.Fatal("config key not deterministic")
	}
	// The default configuration's key as every build so far computed it:
	// an on-disk cache written by an older build must keep hitting.
	if got := hex.EncodeToString(a[:]); got != "491bc7af2cfe866f639d411f56da882758ce6780c5092e86f5a145c0e321bf96" {
		t.Fatalf("ConfigKey(RASE, Options{}, false) = %s: the key's byte layout moved", got)
	}
	// Every caller passes false for the retired linear-selection bit, so
	// each kind's default key is the one a -cachedir already holds.
	for kind, want := range map[strategy.Kind]string{
		strategy.Naive:    "92e94fac5b94a62b9a848a376742cd4502e6caf7fafde65a3bf83b9ca6410a41",
		strategy.Postpass: "e22533effc7534d5498f6c91fd6bf09a53e66d7acbb1cc965ee1033fed92dbd9",
		strategy.IPS:      "84ab1ced7aa7154167ff2211c143af199a1978fb63c773e64cb9d1854a15dc4f",
		strategy.RASE:     "491bc7af2cfe866f639d411f56da882758ce6780c5092e86f5a145c0e321bf96",
		strategy.Local:    "e684cbe38b68416ff696afe0a67b508f31979db3cedbd8c576fe14c05fe0859b",
	} {
		if got := ConfigKey(kind, strategy.Options{}, false); hex.EncodeToString(got[:]) != want {
			t.Errorf("ConfigKey(%s, Options{}, false) = %x, pinned %s", kind, got, want)
		}
	}
	if ConfigKey(strategy.IPS, o, l) == a {
		t.Fatal("strategy kind not in key")
	}
	if ConfigKey(k, o, true) == a {
		t.Fatal("linear-selection bit not in key")
	}
	for name, set := range map[string]func(*strategy.Options){
		"CurrentCycleOnly": func(o *strategy.Options) { o.CurrentCycleOnly = true },
		"NoAnti":           func(o *strategy.Options) { o.NoAnti = true },
		"FillDelaySlots":   func(o *strategy.Options) { o.FillDelaySlots = true },
	} {
		o1 := o
		set(&o1)
		if ConfigKey(k, o1, l) == a {
			t.Errorf("%s not in key", name)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	payload := []byte("some payload bytes")
	blob := frame(payload)
	got, err := unframe(blob)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("unframe = %q, %v", got, err)
	}
	// Any single-byte corruption must be caught.
	for i := range blob {
		bad := append([]byte(nil), blob...)
		bad[i] ^= 0x01
		if _, err := unframe(bad); err == nil {
			t.Fatalf("corruption at byte %d not detected", i)
		}
	}
	if _, err := unframe(blob[:10]); err == nil {
		t.Fatal("truncated blob not detected")
	}
}

// TestFlush covers the drain path: entries whose disk file is missing
// (lost write, late-created tier) are rewritten; present ones are not.
func TestFlush(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Options{Dir: dir, Registry: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		c.Put(testKey(i), []byte(fmt.Sprintf("payload-%d", i)))
	}
	if n := c.Flush(); n != 0 {
		t.Fatalf("flush after clean puts wrote %d entries, want 0", n)
	}

	// Lose two disk files; flush must restore exactly those.
	for i := 0; i < 2; i++ {
		if err := os.Remove(filepath.Join(dir, testKey(i).String()+".mce")); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.Flush(); n != 2 {
		t.Fatalf("flush wrote %d entries, want 2", n)
	}
	for i := 0; i < 4; i++ {
		blob, err := os.ReadFile(filepath.Join(dir, testKey(i).String()+".mce"))
		if err != nil {
			t.Fatalf("entry %d missing after flush: %v", i, err)
		}
		payload, err := unframe(blob)
		if err != nil || string(payload) != fmt.Sprintf("payload-%d", i) {
			t.Fatalf("entry %d corrupt after flush: %q, %v", i, payload, err)
		}
	}

	mem := newMem(t, 1<<20)
	mem.Put(testKey(9), []byte("x"))
	if n := mem.Flush(); n != 0 {
		t.Fatalf("flush without disk tier wrote %d, want 0", n)
	}
}
