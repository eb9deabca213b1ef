// Package dedup holds the policy side of content-addressed
// deduplication: the 128-bit content fingerprint the write path computes
// for every merged run, and the configuration switch the facade exposes.
// Like internal/maint it is deliberately mechanism-free — the content
// index itself (fingerprint -> stored extent) lives in the simulator
// core, which owns extent lifetimes; this package only defines the hash
// and its constants so the fingerprint can be tested in isolation and
// shared with tooling.
package dedup

import "encoding/binary"

// Sum is a 128-bit content fingerprint. Two runs with equal Sums are
// treated as byte-identical by the dedup layer; at 128 bits the
// collision probability is negligible for any simulated volume.
type Sum struct {
	// Hi is the first 64-bit lane of the fingerprint.
	Hi uint64
	// Lo is the second, independently seeded 64-bit lane.
	Lo uint64
}

// splitmix is the SplitMix64 finalizer, the same mixer datagen uses to
// derive per-region seeds; chaining it over the input words gives a
// fast, well-distributed (non-cryptographic) fingerprint.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// HashSum fingerprints p under the given key. Devices use DefaultKey,
// so the fingerprint of a payload is deterministic across runs — the
// property the determinism gates (make matrixcheck) rely on. The two
// lanes are seeded from different key expansions and fed decorrelated
// views of each word, so a collision requires defeating both
// independently.
func HashSum(key uint64, p []byte) Sum {
	h1 := splitmix(key ^ 0x243f6a8885a308d3)
	h2 := splitmix(key ^ 0x452821e638d01377)
	i := 0
	for ; i+8 <= len(p); i += 8 {
		w := binary.LittleEndian.Uint64(p[i:])
		h1 = splitmix(h1 ^ w)
		h2 = splitmix(h2 ^ w*0x9e3779b97f4a7c15)
	}
	if rem := len(p) - i; rem > 0 {
		var tail [8]byte
		copy(tail[:], p[i:])
		w := binary.LittleEndian.Uint64(tail[:]) ^ uint64(rem)<<56
		h1 = splitmix(h1 ^ w)
		h2 = splitmix(h2 ^ w*0x9e3779b97f4a7c15)
	}
	n := uint64(len(p))
	return Sum{Hi: splitmix(h1 ^ n), Lo: splitmix(h2 ^ n)}
}

// DefaultKey seeds every content fingerprint: an arbitrary odd
// constant, fixed so artifacts (journals, benchmark outputs) are
// comparable across runs. Shards of one system share it; because
// shards never exchange extents, per-shard indexes stay independent
// and deterministic regardless.
const DefaultKey = 0xe7037ed1a0b428db

// DefaultMaxEntries bounds the content index: 1Mi fingerprints (~48 MiB
// of index for a fully unique corpus), far above what the bundled
// traces store. When the index is full, new fingerprints are simply not
// registered — misses still store normally — so the bound is a memory
// ceiling, not a correctness knob.
const DefaultMaxEntries = 1 << 20

// Config switches content-addressed dedup on; a device handed none
// builds no content index and computes no fingerprints. It has no
// fields: the fingerprint key and the index bound are DefaultKey and
// DefaultMaxEntries.
type Config struct{}
