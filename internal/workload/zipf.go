package workload

import (
	"math"
	"math/bits"
	"math/rand"
)

// zipfKeys is the YCSB bounded zipfian over n items with skew theta in
// (0, 1) — Go's rand.Zipf requires s > 1 and cannot express this range.
// Ranks are scrambled through splitmix64 so the hot keys scatter across
// the volume instead of clustering at offset zero.
//
// A draw u past rank 1 takes the rank int64(n·(eta·u−eta+1)^alpha)
// (powRank), one math.Pow each. The lookup returns that same rank
// without it: the formula rises with u, so for every rank r in
// [2, min(n−1, zipfTableRanks)] newZipfKeys places the draw cuts[r−2] at
// which it reaches r by inverting the formula, and a draw clear of every
// cut by more than guard takes the rank of the cuts below it. Draws
// within guard of a cut, and ranks past the last cut, run powRank.
type zipfKeys struct {
	n     int64
	alpha float64
	zetan float64
	eta   float64
	rank1 float64 // 1 + 0.5^theta: a draw u·zetan below it is rank 1

	cuts  []float64 // cuts[j]: the draw at which powRank reaches j+2; nil for no lookup
	first []uint32  // first[b]: how many cuts lie below b/len(first)
	guard float64   // the half-width of the window around each cut that runs powRank
	last  int       // the highest count of cuts below a draw that names its rank
}

// zipfTableRanks caps the lookup at 2^16 cuts: 512 KiB of cuts plus an
// index of at most 256 KiB, whatever n is. The first ranks carry nearly
// all the draws, so the larger ranks of a larger volume keep powRank.
const zipfTableRanks = 1 << 16

// zipfIndexBits caps how many leading bits of a draw index the cuts. The
// index has four entries per cut, rounded up to a power of two, so that
// its size follows n below the cap.
const zipfIndexBits = 16

// newZipfKeys precomputes the zeta terms (Gray et al.'s incremental
// formulas as used by YCSB's ZipfianGenerator) and the rank lookup.
func newZipfKeys(n int64, theta float64) *zipfKeys {
	var zetan float64
	for i := int64(1); i <= n; i++ {
		zetan += 1 / math.Pow(float64(i), theta)
	}
	zeta2 := 1 + 1/math.Pow(2, theta)
	z := &zipfKeys{
		n:     n,
		alpha: 1 / (1 - theta),
		zetan: zetan,
		eta:   (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/zetan),
		rank1: 1 + math.Pow(0.5, theta),
	}
	z.buildLookup()
	return z
}

func (z *zipfKeys) pick(rng *rand.Rand) int64 {
	u := rng.Float64()
	uz := u * z.zetan
	var rank int64
	switch {
	case uz < 1:
		rank = 0
	case uz < z.rank1:
		rank = 1
	default:
		var ok bool
		if rank, ok = z.lookup(u); !ok {
			rank = z.powRank(u)
		}
	}
	return int64(splitmix64(uint64(rank)) % uint64(z.n))
}

// powRank is the YCSB formula's rank for a draw u past rank 1.
func (z *zipfKeys) powRank(u float64) int64 {
	rank := int64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if rank >= z.n {
		rank = z.n - 1
	}
	return rank
}

// lookup returns powRank(u) from the cuts, or ok=false when u lies within
// guard of a cut, below the first or past the last rank with a cut.
func (z *zipfKeys) lookup(u float64) (rank int64, ok bool) {
	c := z.cuts
	if c == nil {
		return 0, false
	}
	k := int(z.first[int(u*float64(len(z.first)))])
	for k < len(c) && c[k] <= u {
		k++
	}
	if k == 0 || k > z.last || u < c[k-1]+z.guard || k < len(c) && u >= c[k]-z.guard {
		return 0, false
	}
	return int64(k) + 1, true
}

// buildLookup places the cuts, or leaves z without a lookup when the
// guard windows cannot separate them.
//
// The guard bounds how far from its computed cut a draw can still get a
// rank on the other side of it (ε = 2^-53, the unit roundoff):
//   - the three roundings of eta·u−eta+1 move x by at most (2·eta+1)·ε,
//     which is u moved by (2·eta+1)·ε/eta;
//   - math.Pow's relative error, at most about (alpha+2·log2(alpha)+8)·ε
//     from its repeated squaring and bounded here by (2·alpha+64)·ε, and
//     the product by n move the formula's value v = n·x^alpha by that
//     share; as dv/v = alpha·eta·du/x with x ≤ 1, that is u moved by
//     (2·alpha+66)·ε/(alpha·eta);
//   - the cut itself, 1 − (1 − (r/n)^(1/alpha))/eta, is off the exact
//     crossing by at most (5+ln n)·ε/eta + 2·ε.
//
// The guard is four times their sum. It scales with 1/eta, which grows
// like alpha as theta nears 1, and it is checked: the formula must give
// a rank below r at the last draw under each window and at least r at
// the first draw above it, and neighbouring windows must not touch.
func (z *zipfKeys) buildLookup() {
	if z.n < 3 || !(z.eta > 0) || math.IsInf(z.eta, 0) || math.IsInf(z.alpha, 0) {
		return
	}
	const eps = 0x1p-53
	guard := 4 * eps * ((2*z.eta+1)/z.eta + (2*z.alpha+66)/(z.alpha*z.eta) +
		(5+math.Log(float64(z.n)))/z.eta + 2)
	top := min(z.n-1, zipfTableRanks) // the highest rank with a cut
	inv := 1 / z.alpha
	cuts := make([]float64, 0, top-1)
	for r := int64(2); r <= top; r++ {
		c := 1 - (1-math.Pow(float64(r)/float64(z.n), inv))/z.eta
		lo, hi := c-guard, c+guard
		if len(cuts) > 0 && lo < cuts[len(cuts)-1]+guard {
			return
		}
		if z.powRank(math.Nextafter(lo, math.Inf(-1))) >= r || z.powRank(hi) < r {
			return
		}
		cuts = append(cuts, c)
	}
	first := make([]uint32, 1<<min(bits.Len(uint(len(cuts)))+2, zipfIndexBits))
	k := 0
	for b := range first {
		for k < len(cuts) && cuts[k] < float64(b)/float64(len(first)) {
			k++
		}
		first[b] = uint32(k)
	}
	z.cuts, z.first, z.guard = cuts, first, guard
	// Past the last cut the rank is n-1 when that cut is rank n-1's, and
	// unknown when the table stopped short of it.
	z.last = len(cuts) - 1
	if top == z.n-1 {
		z.last = len(cuts)
	}
}
