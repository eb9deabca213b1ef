package datagen

import (
	"encoding/binary"
	"math/rand"
)

// source is a value-type replica of math/rand's seeded generator — the
// additive lagged-Fibonacci register (607 words, tap 273) behind
// rand.NewSource — that emits the identical stream for every seed. Two
// things make it faster than a reseeded *rand.Rand:
//
//   - Seeding. math/rand fills the register by walking 1 841 dependent
//     steps of x ← 48271·x mod (2³¹−1). Step k of that walk is
//     seed·48271ᵏ mod (2³¹−1), so with the powers in a table (seedPow)
//     every register word is three independent multiply-and-fold
//     operations the CPU can overlap.
//   - Stepping. math/rand advances tap and feed one word per draw. Here
//     the register advances half a cycle at a time (refill), and a draw
//     is a load from a descending index that inlines into its caller.
//
// The zero value is not ready; call Seed first.
type source struct {
	vec [rngLen]int64
	// Draws read vec[pos-1], vec[pos-2], … down to vec[end]; at pos == end
	// the other half of the register is stepped and becomes readable.
	pos, end int
	// read's carry: the unread low bytes of its last draw, as rand.Rand
	// keeps them across Read calls (and drops them on Seed).
	readVal int64
	readPos int8
}

const (
	rngLen  = 607
	rngTap  = 273
	rngFeed = rngLen - rngTap
	rngMask = 1<<63 - 1

	seedMod    = 1<<31 - 1 // the seeding LCG's modulus, a Mersenne prime
	seedMul    = 48271     // … and its multiplier
	seedWarmup = 20        // steps math/rand discards before the first word
)

// seedPow[i][j] is 48271^(seedWarmup+1+3i+j) mod (2³¹−1): the factor that
// takes a seed to the j-th of the three LCG states register word i is
// built from.
var seedPow = func() (pow [rngLen][3]uint32) {
	x := uint64(1)
	for i := 0; i < seedWarmup; i++ {
		x = x * seedMul % seedMod
	}
	for i := range pow {
		for j := range pow[i] {
			x = x * seedMul % seedMod
			pow[i][j] = uint32(x)
		}
	}
	return pow
}()

// rngCooked holds the 607 additive constants math/rand XORs into the
// seeded register. They are recovered once from the standard library's
// own generator rather than copied, so the stdlib stays the single source
// of truth. With v the register after Seed and o₁, o₂, … the outputs, the
// generator computes oₙ = v[334−n] + v[607−n] while both words are still
// original (n ≤ 273) and oₙ = v[·] + oₙ₋₂₇₃ once the tap word is itself an
// earlier output, so outputs 274…607 minus outputs 1…334 give words 60…0
// and 606…334, and outputs 1…273 then give words 333…61.
var rngCooked = func() (cooked [rngLen]int64) {
	const seed = 1
	src := rand.NewSource(seed).(rand.Source64)
	var out [rngLen + 1]int64 // 1-based, as in the comment above
	for n := 1; n <= rngLen; n++ {
		out[n] = int64(src.Uint64())
	}
	var v [rngLen]int64
	for n := rngTap + 1; n <= rngLen; n++ {
		v[(rngFeed-n+rngLen)%rngLen] = out[n] - out[n-rngTap]
	}
	for n := 1; n <= rngTap; n++ {
		v[rngFeed-n] = out[n] - v[rngLen-n]
	}
	var s source
	s.seedWith(seed, &cooked) // cooked is still zero: s.vec is the bare LCG part
	for i := range cooked {
		cooked[i] = v[i] ^ s.vec[i]
	}
	return cooked
}()

// Seed puts the source in the state rand.New(rand.NewSource(seed)) starts
// in.
func (s *source) Seed(seed int64) { s.seedWith(seed, &rngCooked) }

func (s *source) seedWith(seed int64, cooked *[rngLen]int64) {
	seed %= seedMod
	if seed < 0 {
		seed += seedMod
	}
	if seed == 0 {
		seed = 89482311
	}
	x := uint64(seed)
	for i := range s.vec {
		p := &seedPow[i]
		s.vec[i] = int64(mulMod(x, p[0])<<40^mulMod(x, p[1])<<20^mulMod(x, p[2])) ^ cooked[i]
	}
	// Nothing is readable until the first half-cycle has been stepped.
	s.pos, s.end = rngFeed, rngFeed
	s.readVal, s.readPos = 0, 0
}

// mulMod returns x·p mod (2³¹−1) for x, p in [1, 2³¹−2]. The product is
// below 2⁶², so its high part is at most 2³¹−4 and one fold plus one
// conditional subtraction reduces it fully.
func mulMod(x uint64, p uint32) uint64 {
	m := x * uint64(p)
	m = m&seedMod + m>>31
	if m >= seedMod {
		m -= seedMod
	}
	return m
}

// refill steps the half of the register that was read longest ago — the
// 334 (then 273) draws math/rand would make one at a time — and points
// pos at it. Kept out of line so that a draw inlines.
//
//go:noinline
func (s *source) refill() {
	v := &s.vec
	if s.end == rngFeed {
		// Descending, because words 60…0 add words 333…273 of this same
		// pass.
		for j := rngFeed - 1; j >= 0; j-- {
			v[j] += v[j+rngTap]
		}
		s.pos, s.end = rngFeed, 0
		return
	}
	for j := rngFeed; j < rngLen; j++ {
		v[j] += v[j-rngFeed]
	}
	s.pos, s.end = rngLen, rngFeed
}

// word returns the next register word, math/rand's raw output; every
// kind of draw is a few bit operations on it. It inlines.
func (s *source) word() int64 {
	if s.pos == s.end {
		s.refill()
	}
	s.pos--
	return s.vec[s.pos]
}

// Int63 is rand.Rand.Int63: the word without its sign bit.
func (s *source) Int63() int64 { return s.word() & rngMask }

// Intn is rand.Rand.Intn for 0 < n ≤ 2³¹−1 (every n this package uses).
func (s *source) Intn(n int) int {
	r := below(s.word(), n)
	for r < 0 {
		r = below(s.word(), n)
	}
	return r
}

// below maps register word w onto [0, n) the way rand.Rand.Intn maps the
// draw it makes from w — Int31, the top 31 bits of Int63, reduced as
// Int31n reduces it — or returns -1 where Int31n rejects that draw and
// makes another. (A power of two rejects nothing, and its modulo is
// Int31n's mask.) The hot loops call below rather than Intn because it
// inlines: with a constant n the rejection bound folds and the modulo
// becomes a multiplication.
func below(w int64, n int) int {
	v := uint32(uint64(w) << 1 >> 33)
	if v > 1<<31-1-(1<<31)%uint32(n) {
		return -1
	}
	return int(v % uint32(n))
}

// Read is rand.Rand.Read: seven bytes per draw, low byte first, with the
// unread bytes of the last draw carried into the next call.
func (s *source) Read(p []byte) {
	for ; s.readPos > 0 && len(p) > 0; p = p[1:] {
		p[0] = byte(s.readVal)
		s.readVal >>= 8
		s.readPos--
	}
	// One 8-byte store per draw while it fits; the eighth byte is
	// overwritten by the next store or the tail below.
	for len(p) >= 8 {
		binary.LittleEndian.PutUint64(p, uint64(s.Int63()))
		p = p[7:]
	}
	if len(p) > 0 {
		val := s.Int63()
		for i := range p {
			p[i] = byte(val)
			val >>= 8
		}
		s.readVal, s.readPos = val, int8(7-len(p))
	}
}
