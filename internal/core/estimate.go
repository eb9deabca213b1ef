package core

import (
	"math"

	"edc/internal/datagen"
)

// Estimator predicts a block's compressibility from small samples without
// running a full compressor on the I/O path (the paper's "sampling
// technique", Sec. III-D, citing SDGen [14] and content-based sampling
// [37]). A block whose estimated ratio falls below the write-through
// threshold (4/3, i.e. compressed size above 75 % of the original,
// Sec. III-C) is stored uncompressed.
type Estimator struct {
	// SampleSize is the bytes inspected per sample window.
	SampleSize int
	// Samples is the number of windows spread evenly across the block.
	Samples int

	// seen holds one repeated-4-gram hash set per window of the
	// interleaved pass (estimateWindow uses the first), zeroed per
	// window: an empty slot then holds the one 4-gram that never counts
	// as a match, so the slots need no occupancy tag. An Estimator
	// belongs to one Device and is only used from its event-loop
	// goroutine; the estimate itself stays a pure function of the input.
	seen [3][512]uint32
}

// stdWindow is the default sample window; plogp[c] is the entropy term
// p*log2(p) of a byte value seen c times in a window of that size, by the
// same expression estimateWindow evaluates for any other size. (The
// conversion keeps a compiler from fusing the product into the running
// sum on one architecture and not another.)
const stdWindow = 256

var plogp = func() (t [stdWindow + 1]float64) {
	for c := 1; c <= stdWindow; c++ {
		p := float64(c) / stdWindow
		t[c] = float64(p * math.Log2(p))
	}
	return t
}()

// NewEstimator returns the default estimator: three 256-byte windows.
func NewEstimator() *Estimator {
	return &Estimator{SampleSize: stdWindow, Samples: 3}
}

// WriteThroughRatio is the minimum estimated compression ratio at which
// compression is attempted; below it the block is written through. The
// paper stores blocks whose compressed form exceeds 75 % of the original
// uncompressed, hence 4/3.
const WriteThroughRatio = 4.0 / 3.0

// EstimateRatio predicts original/compressed for data. The prediction
// combines a byte-entropy bound with a repeated-4-gram heuristic that
// captures LZ-style matches entropy alone misses. It is intentionally
// cheap: O(Samples*SampleSize).
func (e *Estimator) EstimateRatio(data []byte) float64 {
	n := len(data)
	if n == 0 {
		return 1
	}
	ss, k := e.windows()
	if ss*k >= n {
		return e.estimateWindow(data)
	}
	// Evenly spaced windows, including the block head (headers compress
	// differently from bodies).
	stride := (n - ss) / k
	if k == 3 && ss == stdWindow {
		return e.estimate3(data[:ss], data[stride:stride+ss], data[2*stride:2*stride+ss])
	}
	var sum float64
	for i := 0; i < k; i++ {
		off := i * stride
		sum += e.estimateWindow(data[off : off+ss])
	}
	return sum / float64(k)
}

// windows returns the window size and count, defaults applied.
func (e *Estimator) windows() (size, count int) {
	size, count = e.SampleSize, e.Samples
	if size <= 0 {
		size = stdWindow
	}
	if count <= 0 {
		count = 3
	}
	return size, count
}

// sampledPrefix is how many leading bytes of an n-byte block
// EstimateRatio reads: up to the end of its last window, or all n when
// the windows cover the block. The estimate of a block whose bytes past
// that prefix are anything at all is the estimate of the block.
func (e *Estimator) sampledPrefix(n int) int {
	ss, k := e.windows()
	if ss*k >= n {
		return n
	}
	return (k-1)*((n-ss)/k) + ss
}

// certainAlphabet is the most distinct byte values a window can hold and
// still be sure to clear WriteThroughRatio, by a relative margin of 1e-9
// that covers the rounding of the entropy sum and of the windows' mean.
// A window of d values has entropy at most log2 d, and windowRatio only
// falls as the entropy rises and never falls below its match-free value,
// so it is at least windowRatio(log2 d, 0). That bound reaches 4/3 at
// d = 64: certainAlphabet is 63.
var certainAlphabet = func() int {
	d := 1
	for windowRatio(math.Log2(float64(d+1)), 0) >= WriteThroughRatio*(1+1e-9) {
		d++
	}
	return d
}()

// certainlyCompressible reports whether EstimateRatio of any version of
// the n bytes data generates at off must clear WriteThroughRatio,
// without generating them: every window it would sample (the whole block
// when its windows cover it) holds at most certainAlphabet byte values.
// It is false for n <= 0, whose estimate is 1.
func (e *Estimator) certainlyCompressible(data *datagen.Generator, off int64, n int) bool {
	if n <= 0 {
		return false
	}
	ss, k := e.windows()
	if ss*k >= n {
		return data.Alphabet(off, n) <= certainAlphabet
	}
	stride := (n - ss) / k
	for i := 0; i < k; i++ {
		if data.Alphabet(off+int64(i*stride), ss) > certainAlphabet {
			return false
		}
	}
	return true
}

// estimateWindow predicts the ratio of one window.
func (e *Estimator) estimateWindow(w []byte) float64 {
	if len(w) == 0 {
		return 1
	}
	// Byte entropy in bits/byte.
	var counts [256]int
	for _, b := range w {
		counts[b]++
	}
	entropy := 0.0
	if len(w) == stdWindow {
		for _, c := range counts {
			entropy -= plogp[c]
		}
	} else {
		n := float64(len(w))
		for _, c := range counts {
			if c == 0 {
				continue
			}
			p := float64(c) / n
			entropy -= float64(p * math.Log2(p))
		}
	}
	// Repeated 4-gram fraction: how often a 4-byte window was seen
	// before (cheap LZ-match proxy) using a small hash set.
	matchFrac := 0.0
	if len(w) >= 8 {
		seen := &e.seen[0]
		*seen = [512]uint32{}
		matches := 0
		v := uint32(w[0])<<8 | uint32(w[1])<<16 | uint32(w[2])<<24
		for _, b := range w[3:] {
			v = v>>8 | uint32(b)<<24
			h := (v * 2654435761) >> 23 // 9 bits
			if seen[h] == v && v != 0 {
				matches++
			}
			seen[h] = v
		}
		matchFrac = float64(matches) / float64(len(w)-3)
	}
	return windowRatio(entropy, matchFrac)
}

// estimate3 is EstimateRatio over the default three stdWindow windows,
// in one pass whose loops step all three at once. Each window keeps its
// own counts, hash set and summation order, so the result is bit for bit
// that of three estimateWindow calls; the three independent dependency
// chains just overlap in the CPU.
func (e *Estimator) estimate3(w0, w1, w2 []byte) float64 {
	a0, a1, a2 := (*[stdWindow]byte)(w0), (*[stdWindow]byte)(w1), (*[stdWindow]byte)(w2)
	var c0, c1, c2 [256]uint16
	for i := 0; i < stdWindow; i++ {
		c0[a0[i]]++
		c1[a1[i]]++
		c2[a2[i]]++
	}
	h0, h1, h2 := 0.0, 0.0, 0.0
	for b := 0; b < 256; b++ {
		h0 -= plogp[c0[b]]
		h1 -= plogp[c1[b]]
		h2 -= plogp[c2[b]]
	}
	e.seen = [3][512]uint32{}
	s0, s1, s2 := &e.seen[0], &e.seen[1], &e.seen[2]
	m0, m1, m2 := 0, 0, 0
	v0 := uint32(a0[0])<<8 | uint32(a0[1])<<16 | uint32(a0[2])<<24
	v1 := uint32(a1[0])<<8 | uint32(a1[1])<<16 | uint32(a1[2])<<24
	v2 := uint32(a2[0])<<8 | uint32(a2[1])<<16 | uint32(a2[2])<<24
	for i := 3; i < stdWindow; i++ {
		v0 = v0>>8 | uint32(a0[i])<<24
		v1 = v1>>8 | uint32(a1[i])<<24
		v2 = v2>>8 | uint32(a2[i])<<24
		k0, k1, k2 := (v0*2654435761)>>23, (v1*2654435761)>>23, (v2*2654435761)>>23
		if s0[k0] == v0 && v0 != 0 {
			m0++
		}
		if s1[k1] == v1 && v1 != 0 {
			m1++
		}
		if s2[k2] == v2 && v2 != 0 {
			m2++
		}
		s0[k0], s1[k1], s2[k2] = v0, v1, v2
	}
	const grams = stdWindow - 3
	r0 := windowRatio(h0, float64(m0)/grams)
	r1 := windowRatio(h1, float64(m1)/grams)
	r2 := windowRatio(h2, float64(m2)/grams)
	return (r0 + r1 + r2) / 3
}

// windowRatio blends one window's byte entropy (bits/byte) and repeated
// 4-gram fraction into its predicted ratio.
func windowRatio(entropy, matchFrac float64) float64 {
	// Entropy bound: ratio_H = 8/H. LZ matches push the achievable ratio
	// above the order-0 bound; blend the two signals.
	ratioH := 8.0 / math.Max(entropy, 0.4)
	ratio := ratioH * (1 + 2.5*matchFrac)
	if ratio < 1 {
		ratio = 1
	}
	if ratio > 40 {
		ratio = 40
	}
	return ratio
}

// Compressible reports whether data clears the write-through threshold.
func (e *Estimator) Compressible(data []byte) bool {
	return e.EstimateRatio(data) >= WriteThroughRatio
}
