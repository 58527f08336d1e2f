package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"

	"marion/internal/ir"
	"marion/internal/strategy"
)

// ConfigKey digests every back end option that can change emitted code:
// the strategy kind and the three scheduler design choices of
// strategy.Options. Per-run plumbing that cannot change
// the result — deadlines, fault injectors, worker counts, whether the
// verifier *reports* — is deliberately excluded, so runs that differ
// only in parallelism or budgets share cache entries.
//
// The zeros stand where scheduler settings the strategy now sets per
// pass (FIFO order, strict order, no packing, the cycle cap, the DAG's
// memory and protection edges, the live-value limits and live-out set)
// were once hashed; no caller could make them other than zero. They keep the byte
// stream, and so every disk cache written before, unchanged. So does
// linearSelect, the bit of the retired linear selector: every caller
// passes false.
func ConfigKey(kind strategy.Kind, opts strategy.Options, linearSelect bool) [32]byte {
	w := &keyFP{h: sha256.New()}
	w.str("marion-cfg-key-v1")
	w.u64(uint64(kind))
	w.bool(linearSelect)
	w.bool(opts.FillDelaySlots)
	w.bool(opts.CurrentCycleOnly)
	w.bool(false) // FIFO, now the Naive strategy
	w.bool(false) // Sequential
	w.bool(false) // NoPack
	w.i64(0)      // MaxCycles
	w.bool(opts.NoAnti)
	w.bool(false) // NoMemory
	w.bool(false) // NoProtect
	w.u64(0)      // MaxLive entries
	w.u64(0)      // LiveOut entries

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
