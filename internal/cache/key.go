package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"sort"

	"marion/internal/ir"
	"marion/internal/strategy"
)

// ConfigKey digests every pipeline knob that can change emitted code:
// the strategy kind, the linear-selection toggle, and the strategy /
// scheduler / DAG options. Per-run plumbing that cannot change the
// result — deadlines, fault injectors, worker counts, whether the
// verifier *reports* — is deliberately excluded, so runs that differ
// only in parallelism or budgets share cache entries.
func ConfigKey(kind strategy.Kind, opts strategy.Options, linearSelect bool) [32]byte {
	w := &keyFP{h: sha256.New()}
	w.str("marion-cfg-key-v1")
	w.u64(uint64(kind))
	w.bool(linearSelect)
	w.bool(opts.FillDelaySlots)

	s := opts.Sched
	w.bool(s.CurrentCycleOnly)
	w.bool(s.FIFO)
	w.bool(s.Sequential)
	w.bool(s.NoPack)
	w.i64(int64(s.MaxCycles))
	w.bool(s.Dag.NoAnti)
	w.bool(s.Dag.NoMemory)
	w.bool(s.Dag.NoProtect)

	// MaxLive is keyed by register set; register-set names are unique
	// within a machine, so sorting by name makes the walk deterministic.
	w.u64(uint64(len(s.MaxLive)))
	if len(s.MaxLive) > 0 {
		type kv struct {
			name string
			n    int
		}
		kvs := make([]kv, 0, len(s.MaxLive))
		for rs, n := range s.MaxLive {
			kvs = append(kvs, kv{rs.Name, n})
		}
		sort.Slice(kvs, func(a, b int) bool { return kvs[a].name < kvs[b].name })
		for _, e := range kvs {
			w.str(e.name)
			w.i64(int64(e.n))
		}
	}
	// LiveOut is per-function state computed inside the strategy; a
	// caller-provided one would make the key function-specific, so hash
	// it too rather than silently ignoring it.
	w.u64(uint64(len(s.LiveOut)))
	for _, live := range s.LiveOut {
		w.bool(live)
	}

	var d [32]byte
	w.h.Sum(d[:0])
	return d
}

// FuncKey combines the three content-address components — canonical IR
// digest, machine-description fingerprint, config key — into the cache
// key for one function's compilation.
func FuncKey(irDigest ir.Digest, machFP, cfgKey [32]byte) Key {
	h := sha256.New()
	h.Write([]byte("marion-func-key-v1"))
	h.Write(irDigest[:])
	h.Write(machFP[:])
	h.Write(cfgKey[:])
	var k Key
	h.Sum(k[:0])
	return k
}

type keyFP struct {
	h   hash.Hash
	buf [8]byte
}

func (w *keyFP) u64(v uint64) {
	binary.LittleEndian.PutUint64(w.buf[:], v)
	w.h.Write(w.buf[:])
}

func (w *keyFP) i64(v int64) { w.u64(uint64(v)) }

func (w *keyFP) bool(b bool) {
	if b {
		w.h.Write([]byte{1})
	} else {
		w.h.Write([]byte{0})
	}
}

func (w *keyFP) str(s string) {
	w.u64(uint64(len(s)))
	w.h.Write([]byte(s))
}
