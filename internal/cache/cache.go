// Package cache is Marion's content-addressed compilation cache.
//
// Marion's premise is that the machine description, not the compiler,
// is the variable: a compiled function is a pure function of
// (canonical IR, machine-description fingerprint, strategy/config), so
// compilation results are perfectly content-addressable. The cache maps
// that key triple (see Key / FuncKey) to a serialized compiled function
// (see Encode / Decode) through two tiers:
//
//   - a sharded in-memory LRU, sized in bytes, lock-striped so the
//     parallel per-function back end workers rarely contend, and
//   - an optional on-disk tier, one checksummed file per entry, written
//     atomically (temp + rename), shared across processes and runs.
//
// Every stored blob is framed with a SHA-256 payload checksum; a
// corrupt or truncated disk entry is rejected (and deleted) on read,
// so a poisoned cache degrades to a recompile, never to wrong code.
// Admission policy is the caller's: the pipeline only stores entries
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

// numShards is the memory tier's lock-stripe count. A key's shard is its
// first byte modulo numShards, and each shard holds an even share of
// Options.MaxBytes.
const numShards = 16

// Options configure a Cache.
type Options struct {
	// MaxBytes bounds the in-memory tier (sum of blob sizes);
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
	shards [numShards]shard
	perCap int64
	dir    string

	memHits, diskHits, misses  *metrics.Counter
	stores, evictions, rejects *metrics.Counter
}

type shard struct {
	mu    sync.Mutex
	items map[Key]*entryNode
	head  *entryNode // most recent
	tail  *entryNode // least recent
	bytes int64
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
		perCap:    o.MaxBytes / numShards,
		dir:       o.Dir,
		memHits:   reg.Counter("cache.hits.mem"),
		diskHits:  reg.Counter("cache.hits.disk"),
		misses:    reg.Counter("cache.misses"),
		stores:    reg.Counter("cache.stores"),
		evictions: reg.Counter("cache.evictions"),
		rejects:   reg.Counter("cache.rejects"),
	}
	if c.perCap < 1<<16 {
		c.perCap = 1 << 16
	}
	for i := range c.shards {
		c.shards[i].items = map[Key]*entryNode{}
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

func (c *Cache) shardOf(k Key) *shard { return &c.shards[int(k[0])%len(c.shards)] }

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
	s := c.shardOf(k)
	s.mu.Lock()
	if n, ok := s.items[k]; ok {
		s.moveToFront(n)
		blob := n.blob
		s.mu.Unlock()
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
	s.mu.Unlock()

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
// pipeline calls it when a blob fails structural decode (e.g. a stale
// format inside a valid frame).
func (c *Cache) Reject(k Key) {
	s := c.shardOf(k)
	s.mu.Lock()
	if n, ok := s.items[k]; ok {
		s.remove(n)
	}
	s.mu.Unlock()
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
	written := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		pending := make(map[Key][]byte, len(s.items))
		for k, n := range s.items {
			pending[k] = n.blob
		}
		s.mu.Unlock()
		// Write outside the shard lock: blobs are immutable once framed
		// (replacement swaps the slice, never mutates it), and identical
		// content by construction.
		for k, blob := range pending {
			if _, err := os.Stat(c.path(k)); err == nil {
				continue
			}
			c.writeFile(k, blob)
			written++
		}
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
	s := c.shardOf(k)
	s.mu.Lock()
	if n, ok := s.items[k]; ok {
		s.bytes += int64(len(blob)) - int64(len(n.blob))
		n.blob = blob
		s.moveToFront(n)
	} else {
		n = &entryNode{key: k, blob: blob}
		s.items[k] = n
		s.pushFront(n)
		s.bytes += int64(len(blob))
	}
	for s.bytes > c.perCap && s.tail != nil && s.tail != s.head {
		c.evictions.Inc()
		s.remove(s.tail)
	}
	s.mu.Unlock()
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

// Intrusive LRU list ops (shard lock held).

func (s *shard) pushFront(n *entryNode) {
	n.prev = nil
	n.next = s.head
	if s.head != nil {
		s.head.prev = n
	}
	s.head = n
	if s.tail == nil {
		s.tail = n
	}
}

func (s *shard) moveToFront(n *entryNode) {
	if s.head == n {
		return
	}
	s.unlink(n)
	s.pushFront(n)
}

func (s *shard) unlink(n *entryNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		s.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		s.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (s *shard) remove(n *entryNode) {
	s.unlink(n)
	delete(s.items, n.key)
	s.bytes -= int64(len(n.blob))
}
