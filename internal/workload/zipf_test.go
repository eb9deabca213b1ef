package workload

import (
	"math"
	"math/rand"
	"testing"
)

// zipfCases are the (n, theta) shapes the rank lookup is held to: small
// and odd volumes, the 32 MiB / 4 KiB hot-small volume, skews from 0.1
// to 0.99999 (alpha = 10^5), and n = 121 856 (476 MiB of 4 KiB blocks),
// past the 2^16-rank cap.
var zipfCases = []struct {
	n     int64
	theta float64
}{
	{3, 0.99}, {1000, 0.5}, {1024, 0.8}, {8192, 0.99}, {8192, 0.99999},
	{50_000, 0.1}, {65_536, 0.9}, {65_536, 0.99},
	{121_856, 0.99}, {121_856, 0.99999},
}

// lookupRank is what pick does past rank 1: the lookup, else powRank.
func lookupRank(z *zipfKeys, u float64) int64 {
	if r, ok := z.lookup(u); ok {
		return r
	}
	return z.powRank(u)
}

// checkZipfRank fails t when the lookup's rank for u is not powRank's.
func checkZipfRank(t *testing.T, z *zipfKeys, u float64) {
	t.Helper()
	if u < 0 || u >= 1 {
		return
	}
	if got, want := lookupRank(z, u), z.powRank(u); got != want {
		t.Fatalf("n=%d alpha=%g: u=%v (%#x): lookup rank %d, math.Pow rank %d",
			z.n, z.alpha, u, math.Float64bits(u), got, want)
	}
}

// checkWindowEdges compares the lookup with powRank within two ulps of
// both edges of cut j's guard window: the first draws the lookup answers
// on either side, and the last ones it leaves to powRank.
func checkWindowEdges(t *testing.T, z *zipfKeys, j int) {
	t.Helper()
	c := z.cuts[j]
	for _, edge := range []float64{c - z.guard, c + z.guard} {
		below, above := edge, edge
		checkZipfRank(t, z, edge)
		for i := 0; i < 2; i++ {
			below, above = math.Nextafter(below, -1), math.Nextafter(above, 2)
			checkZipfRank(t, z, below)
			checkZipfRank(t, z, above)
		}
	}
}

// TestZipfRanksMatchPow holds the lookup to the math.Pow expression at
// every cut's window edges and on random draws, uniform over [0, 1) and
// within a few guard widths of random cuts.
func TestZipfRanksMatchPow(t *testing.T) {
	draws := 200_000
	if testing.Short() {
		draws = 20_000
	}
	for _, c := range zipfCases {
		z := newZipfKeys(c.n, c.theta)
		if z.cuts == nil {
			t.Fatalf("n=%d theta=%g: no rank lookup built", c.n, c.theta)
		}
		if want := min(c.n-1, zipfTableRanks) - 1; int64(len(z.cuts)) != want {
			t.Fatalf("n=%d theta=%g: %d cuts, want %d", c.n, c.theta, len(z.cuts), want)
		}
		for j := range z.cuts {
			checkWindowEdges(t, z, j)
		}
		rng := rand.New(rand.NewSource(c.n))
		for i := 0; i < draws; i++ {
			checkZipfRank(t, z, rng.Float64())
			cut := z.cuts[rng.Intn(len(z.cuts))]
			checkZipfRank(t, z, cut+(rng.Float64()*8-4)*z.guard)
		}
	}
}

// TestZipfNoLookup covers the generators that keep powRank for every
// draw: n below 3 has no rank past 1 to look up, and a skew so close to
// 1 that the guard windows of neighbouring ranks touch builds no table.
func TestZipfNoLookup(t *testing.T) {
	for _, c := range []struct {
		n     int64
		theta float64
	}{{1, 0.99}, {2, 0.99}, {65_536, 1 - 1e-12}} {
		if z := newZipfKeys(c.n, c.theta); z.cuts != nil {
			t.Errorf("n=%d theta=%g: built %d cuts", c.n, c.theta, len(z.cuts))
		}
	}
}

// TestZipfLookupShare bounds how often the hot-small read picker (theta
// 0.99 over 8192 blocks) falls back to math.Pow: below 0.1 % of its
// draws past rank 1.
func TestZipfLookupShare(t *testing.T) {
	z := newZipfKeys(8192, 0.99)
	rng := rand.New(rand.NewSource(1))
	var past1, pow int
	for i := 0; i < 1_000_000; i++ {
		u := rng.Float64()
		if u*z.zetan < z.rank1 {
			continue
		}
		past1++
		if _, ok := z.lookup(u); !ok {
			pow++
		}
	}
	if share := float64(pow) / float64(past1); share >= 0.001 {
		t.Fatalf("%d of %d draws past rank 1 ran math.Pow (%.4f)", pow, past1, share)
	}
}

// fuzzZipf keeps the last generator FuzzZipfRank built: the fuzzer
// mutates one argument at a time, and a build costs up to 2^17 math.Pow
// calls.
var fuzzZipf *zipfKeys

// FuzzZipfRank holds the lookup to powRank for a generator of n' =
// 3 + n mod 2^17 items and skew theta' = |theta| mod 1: at the draw
// float64(bits>>1)/2^63 (rand.Float64's form), and within eight ulps of
// a guard window edge of the cut bits picks.
func FuzzZipfRank(f *testing.F) {
	f.Add(uint64(0), int64(8189), 0.99)
	f.Add(uint64(1)<<63, int64(8189), 0.99999)
	f.Add(uint64(0x9e3779b97f4a7c15), int64(997), 0.5)
	f.Add(uint64(0xbf58476d1ce4e5b9), int64(121_853), 0.99)
	f.Add(uint64(0x94d049bb133111eb), int64(0), 0.1)
	f.Fuzz(func(t *testing.T, bits uint64, n int64, theta float64) {
		n = 3 + int64(uint64(n)%(1<<17))
		theta = math.Mod(math.Abs(theta), 1)
		if !(theta > 0) {
			return
		}
		z := fuzzZipf
		if z == nil || z.n != n || z.alpha != 1/(1-theta) {
			z = newZipfKeys(n, theta)
			fuzzZipf = z
		}
		checkZipfRank(t, z, float64(bits>>1)/(1<<63))
		if z.cuts == nil {
			return
		}
		c := z.cuts[bits%uint64(len(z.cuts))]
		u := c - z.guard
		if bits&(1<<40) != 0 {
			u = c + z.guard
		}
		for d := int(bits>>41%17) - 8; d != 0; {
			if d < 0 {
				u, d = math.Nextafter(u, -1), d+1
			} else {
				u, d = math.Nextafter(u, 2), d-1
			}
		}
		checkZipfRank(t, z, u)
	})
}
