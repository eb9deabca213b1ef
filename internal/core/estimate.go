package core

import (
	"math"
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

	// seen is the repeated-4-gram hash set, zeroed per window: an empty
	// slot then holds the one 4-gram that never counts as a match, so
	// the slots need no occupancy tag. An Estimator belongs to one Device
	// and is only used from its event-loop goroutine; the estimate itself
	// stays a pure function of the input.
	seen [512]uint32
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
	ss := e.SampleSize
	if ss <= 0 {
		ss = stdWindow
	}
	k := e.Samples
	if k <= 0 {
		k = 3
	}
	if ss*k >= n {
		return e.estimateWindow(data)
	}
	// Evenly spaced windows, including the block head (headers compress
	// differently from bodies).
	var sum float64
	stride := (n - ss) / k
	for i := 0; i < k; i++ {
		off := i * stride
		sum += e.estimateWindow(data[off : off+ss])
	}
	return sum / float64(k)
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
		e.seen = [512]uint32{}
		matches := 0
		v := uint32(w[0])<<8 | uint32(w[1])<<16 | uint32(w[2])<<24
		for _, b := range w[3:] {
			v = v>>8 | uint32(b)<<24
			h := (v * 2654435761) >> 23 // 9 bits
			if e.seen[h] == v && v != 0 {
				matches++
			}
			e.seen[h] = v
		}
		matchFrac = float64(matches) / float64(len(w)-3)
	}
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
