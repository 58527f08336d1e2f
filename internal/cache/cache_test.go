package cache

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math/rand"
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

// TestLRUMatchesModel drives the memory tier with seeded puts and gets
// over keys that differ in their first byte and holds it, operation by
// operation, to a reference LRU: a slice in recency order and a byte
// count, evicting from the old end while the count is over MaxBytes
// and more than one entry is held. Every hit, miss, payload and
// eviction count must agree, and the tier must never hold more than
// MaxBytes unless it holds a single entry.
func TestLRUMatchesModel(t *testing.T) {
	type held struct {
		key     Key
		payload []byte
	}
	framed := func(payload []byte) int64 { return int64(len(frame(payload))) }
	for _, maxBytes := range []int64{1, 4 << 10, 64 << 10} {
		t.Run(fmt.Sprint(maxBytes), func(t *testing.T) {
			rng := rand.New(rand.NewSource(maxBytes))
			keys := make([]Key, 48)
			for i := range keys {
				rng.Read(keys[i][:])
				keys[i][0] = byte(i * 5) // every key its own first byte
			}
			c := newMem(t, maxBytes)
			var model []held // most recent first
			var modelBytes, hits, misses, evictions int64
			find := func(k Key) int {
				for i, h := range model {
					if h.key == k {
						return i
					}
				}
				return -1
			}
			touch := func(i int) held {
				h := model[i]
				model = append(model[:i], model[i+1:]...)
				model = append([]held{h}, model...)
				return h
			}
			for op := range 6000 {
				k := keys[rng.Intn(len(keys))]
				if rng.Intn(2) == 0 {
					size := rng.Intn(int(maxBytes/3) + 1)
					if rng.Intn(50) == 0 {
						size = int(maxBytes) + 1 // larger than the whole tier
					}
					payload := make([]byte, size)
					rng.Read(payload)
					c.Put(k, payload)
					if i := find(k); i >= 0 {
						modelBytes -= framed(touch(i).payload)
						model[0].payload = payload
					} else {
						model = append([]held{{k, payload}}, model...)
					}
					modelBytes += framed(payload)
					for modelBytes > maxBytes && len(model) > 1 {
						modelBytes -= framed(model[len(model)-1].payload)
						model = model[:len(model)-1]
						evictions++
					}
				} else {
					got, ok := c.Get(k)
					i := find(k)
					if ok != (i >= 0) {
						t.Fatalf("op %d: Get(%x...) hit = %v, model %v", op, k[:4], ok, i >= 0)
					}
					if ok {
						hits++
						if want := touch(i).payload; !bytes.Equal(got, want) {
							t.Fatalf("op %d: Get(%x...) returned %d bytes, model %d", op, k[:4], len(got), len(want))
						}
					} else {
						misses++
					}
				}
				s := c.Stats()
				if s.MemHits != hits || s.Misses != misses || s.Evictions != evictions {
					t.Fatalf("op %d: hits/misses/evictions %d/%d/%d, model %d/%d/%d",
						op, s.MemHits, s.Misses, s.Evictions, hits, misses, evictions)
				}
				order, held := lruState(c)
				if len(order) != len(model) || held != modelBytes {
					t.Fatalf("op %d: tier holds %d entries, %d bytes; model %d, %d", op, len(order), held, len(model), modelBytes)
				}
				for i, k := range order {
					if k != model[i].key {
						t.Fatalf("op %d: recency position %d holds %x..., model %x...", op, i, k[:4], model[i].key[:4])
					}
				}
				if held > maxBytes && len(order) > 1 {
					t.Fatalf("op %d: %d entries hold %d bytes over MaxBytes %d", op, len(order), held, maxBytes)
				}
			}
			if evictions == 0 || hits == 0 || misses == 0 {
				t.Fatalf("the run never saw an eviction, hit and miss: %d/%d/%d", evictions, hits, misses)
			}
		})
	}
}

// lruState returns the memory tier's keys, most recent first, and the
// bytes their blobs hold. It is -1 when the tier's own byte count or
// its map disagrees with the list.
func lruState(c *Cache) ([]Key, int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var order []Key
	var sum int64
	for n := c.head; n != nil; n = n.next {
		order = append(order, n.key)
		sum += int64(len(n.blob))
	}
	if sum != c.bytes || len(order) != len(c.items) {
		sum = -1
	}
	return order, sum
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
