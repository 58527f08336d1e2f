// Package cache is Marion's content-addressed compilation cache.
//
// Marion's premise is that the machine description, not the compiler,
// is the variable: a compiled function is a pure function of
// (canonical IR, machine-description fingerprint, strategy/config), so
// compilation results are perfectly content-addressable. The cache maps
// that key triple (see Key / FuncKey) to a serialized compiled function
// (see Encode / Decode) through two tiers:
//
//   - an in-memory LRU under one lock, holding at most MaxBytes of
//     framed blobs (or a single larger entry), and
//   - an optional on-disk tier, one checksummed file per entry, written
//     atomically (temp + rename), shared across processes and runs.
//
// Every stored blob is framed with a SHA-256 payload checksum; a
// corrupt or truncated disk entry is rejected (and deleted) on read,
// so a poisoned cache degrades to a recompile, never to wrong code.
// Admission policy is the caller's: the driver only stores entries
// after internal/verify passes the compiled function.
package cache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"marion/internal/metrics"
)

// Key is a content-address: a hash over the canonical IR digest, the
// machine-description fingerprint and the strategy/config key.
type Key [32]byte

// String returns the key as lowercase hex (also the disk file stem).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// magic heads every framed blob; bump it when the entry payload format
// changes so stale disk tiers read as misses, not decode errors.
var magic = []byte("MCE1")

// Options configure a Cache.
type Options struct {
	// MaxBytes bounds the in-memory tier (sum of framed blob sizes);
	// only a single entry larger than it is ever held over it.
	// <= 0 means 64 MiB.
	MaxBytes int64
	// Dir, when non-empty, enables the on-disk tier rooted there (the
	// directory is created if needed).
	Dir string
	// Registry receives the cache's counters; nil means
	// metrics.Default().
	Registry *metrics.Registry
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	MemHits   int64 `json:"mem_hits"`
	DiskHits  int64 `json:"disk_hits"`
	Misses    int64 `json:"misses"`
	Stores    int64 `json:"stores"`
	Evictions int64 `json:"evictions"`
	// Rejects counts corrupt or undecodable entries thrown away
	// (checksum mismatches on disk reads plus caller-reported decode
	// failures).
	Rejects int64 `json:"rejects"`
}

// Hits returns total hits across both tiers.
func (s Stats) Hits() int64 { return s.MemHits + s.DiskHits }

// Cache is the two-tier content-addressed store. All methods are safe
// for concurrent use.
type Cache struct {
	mu       sync.Mutex
	items    map[Key]*entryNode
	head     *entryNode // most recent
	tail     *entryNode // least recent
	bytes    int64
	maxBytes int64
	dir      string

	memHits, diskHits, misses  *metrics.Counter
	stores, evictions, rejects *metrics.Counter
}

type entryNode struct {
	key        Key
	blob       []byte // framed: magic + checksum + payload
	prev, next *entryNode
}

// New builds a cache. With a Dir, the directory is created; an error
// creating it disables nothing else (the memory tier still works) but
// is returned so callers can warn.
func New(o Options) (*Cache, error) {
	if o.MaxBytes <= 0 {
		o.MaxBytes = 64 << 20
	}
	reg := o.Registry
	if reg == nil {
		reg = metrics.Default()
	}
	c := &Cache{
		items:     map[Key]*entryNode{},
		maxBytes:  o.MaxBytes,
		dir:       o.Dir,
		memHits:   reg.Counter("cache.hits.mem"),
		diskHits:  reg.Counter("cache.hits.disk"),
		misses:    reg.Counter("cache.misses"),
		stores:    reg.Counter("cache.stores"),
		evictions: reg.Counter("cache.evictions"),
		rejects:   reg.Counter("cache.rejects"),
	}
	var err error
	if c.dir != "" {
		if err = os.MkdirAll(c.dir, 0o755); err != nil {
			c.dir = ""
			err = fmt.Errorf("cache: disk tier disabled: %w", err)
		}
	}
	return c, err
}

// frame wraps a payload with magic and checksum.
func frame(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	blob := make([]byte, 0, len(magic)+len(sum)+len(payload))
	blob = append(blob, magic...)
	blob = append(blob, sum[:]...)
	blob = append(blob, payload...)
	return blob
}

// unframe verifies magic and checksum and returns the payload.
func unframe(blob []byte) ([]byte, error) {
	if len(blob) < len(magic)+sha256.Size || !bytes.Equal(blob[:len(magic)], magic) {
		return nil, errors.New("cache: bad entry header")
	}
	payload := blob[len(magic)+sha256.Size:]
	sum := sha256.Sum256(payload)
	if !bytes.Equal(blob[len(magic):len(magic)+sha256.Size], sum[:]) {
		return nil, errors.New("cache: entry checksum mismatch")
	}
	return payload, nil
}

// Get returns the payload stored under k. The in-memory tier is
// consulted first; a disk hit is promoted into memory. A corrupt disk
// entry counts as a reject (the file is deleted) and reads as a miss.
func (c *Cache) Get(k Key) ([]byte, bool) {
	c.mu.Lock()
	if n, ok := c.items[k]; ok {
		c.moveToFront(n)
		blob := n.blob
		c.mu.Unlock()
		payload, err := unframe(blob)
		if err != nil {
			// Memory corruption is next to impossible, but never
			// serve a blob that fails its own checksum.
			c.Reject(k)
			return nil, false
		}
		c.memHits.Inc()
		return payload, true
	}
	c.mu.Unlock()

	if c.dir != "" {
		path := c.path(k)
		blob, err := os.ReadFile(path)
		if err == nil {
			payload, uerr := unframe(blob)
			if uerr != nil {
				// Poisoned entry: reject and fall through to a miss —
				// the caller recompiles and re-stores a good entry.
				os.Remove(path)
				c.rejects.Inc()
			} else {
				c.insert(k, blob)
				c.diskHits.Inc()
				return payload, true
			}
		}
	}
	c.misses.Inc()
	return nil, false
}

// Put stores a payload under k in both tiers. Storing an existing key
// refreshes it (last write wins; identical content by construction).
func (c *Cache) Put(k Key, payload []byte) {
	blob := frame(payload)
	c.insert(k, blob)
	c.stores.Inc()
	if c.dir != "" {
		c.writeFile(k, blob)
	}
}

// Reject removes k from both tiers and counts a rejected entry; the
// driver calls it when a blob fails structural decode (e.g. a stale
// format inside a valid frame).
func (c *Cache) Reject(k Key) {
	c.mu.Lock()
	if n, ok := c.items[k]; ok {
		c.remove(n)
	}
	c.mu.Unlock()
	if c.dir != "" {
		os.Remove(c.path(k))
	}
	c.rejects.Inc()
}

// Flush writes every in-memory entry that is missing from the on-disk
// tier (a Put's disk write can fail silently — full disk, torn
// shutdown — and entries born before the tier's directory existed have
// no file at all). It returns the number of entries written. The
// compile-service daemon calls it during graceful drain so a restart
// warms from a complete disk tier; with no disk tier it is a no-op.
func (c *Cache) Flush() int {
	if c.dir == "" {
		return 0
	}
	c.mu.Lock()
	pending := make(map[Key][]byte, len(c.items))
	for k, n := range c.items {
		pending[k] = n.blob
	}
	c.mu.Unlock()
	// Write outside the lock: blobs are immutable once framed
	// (replacement swaps the slice, never mutates it), and identical
	// content by construction.
	written := 0
	for k, blob := range pending {
		if _, err := os.Stat(c.path(k)); err == nil {
			continue
		}
		c.writeFile(k, blob)
		written++
	}
	return written
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() Stats {
	return Stats{
		MemHits:   c.memHits.Value(),
		DiskHits:  c.diskHits.Value(),
		Misses:    c.misses.Value(),
		Stores:    c.stores.Value(),
		Evictions: c.evictions.Value(),
		Rejects:   c.rejects.Value(),
	}
}

func (c *Cache) insert(k Key, blob []byte) {
	c.mu.Lock()
	if n, ok := c.items[k]; ok {
		c.bytes += int64(len(blob)) - int64(len(n.blob))
		n.blob = blob
		c.moveToFront(n)
	} else {
		n = &entryNode{key: k, blob: blob}
		c.items[k] = n
		c.pushFront(n)
		c.bytes += int64(len(blob))
	}
	for c.bytes > c.maxBytes && c.tail != c.head {
		c.evictions.Inc()
		c.remove(c.tail)
	}
	c.mu.Unlock()
}

func (c *Cache) path(k Key) string {
	return filepath.Join(c.dir, k.String()+".mce")
}

// writeFile writes atomically: a rename either installs the whole blob
// or leaves the previous entry; concurrent writers of the same key
// write identical content.
func (c *Cache) writeFile(k Key, blob []byte) {
	tmp, err := os.CreateTemp(c.dir, "put-*")
	if err != nil {
		return
	}
	name := tmp.Name()
	_, werr := tmp.Write(blob)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(name)
		return
	}
	if err := os.Rename(name, c.path(k)); err != nil {
		os.Remove(name)
	}
}

// Intrusive LRU list ops (c.mu held).

func (c *Cache) pushFront(n *entryNode) {
	n.prev = nil
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

func (c *Cache) moveToFront(n *entryNode) {
	if c.head == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}

func (c *Cache) unlink(n *entryNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (c *Cache) remove(n *entryNode) {
	c.unlink(n)
	delete(c.items, n.key)
	c.bytes -= int64(len(n.blob))
}
