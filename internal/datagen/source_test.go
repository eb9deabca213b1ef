package datagen

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// checkSourceMatches seeds the replica and a math/rand generator alike
// and walks both through interleaved draws of every kind the class
// bodies make — Intn at each bound in use, Read of odd lengths (so bytes
// carry from one call into the next), Uint64 — picked by ops, for at
// least minDraws register words. The first divergence fails the test.
func checkSourceMatches(t *testing.T, seed int64, ops []byte, minDraws int) {
	t.Helper()
	var s source
	s.Seed(seed)
	r := rand.New(rand.NewSource(seed))
	bounds := []int{33, 16, 8, 248, 1, 1<<31 - 1, 1 << 30}
	got, want := make([]byte, 64), make([]byte, 64)
	if len(ops) == 0 {
		ops = []byte{0}
	}
	for i, draws := 0, 0; draws < minDraws; i++ {
		op := int(ops[i%len(ops)]) + i/len(ops)
		switch k := op % 10; {
		case k < len(bounds):
			if g, w := s.Intn(bounds[k]), r.Intn(bounds[k]); g != w {
				t.Fatalf("seed %d, step %d: Intn(%d) = %d, math/rand %d", seed, i, bounds[k], g, w)
			}
			draws++
		case k < 9:
			n := 1 + op/10%len(got)
			s.Read(got[:n])
			r.Read(want[:n])
			if !bytes.Equal(got[:n], want[:n]) {
				t.Fatalf("seed %d, step %d: Read(%d) = %x, math/rand %x", seed, i, n, got[:n], want[:n])
			}
			draws += n / 7
		default:
			if g, w := uint64(s.word()), r.Uint64(); g != w {
				t.Fatalf("seed %d, step %d: Uint64 = %#x, math/rand %#x", seed, i, g, w)
			}
			if g, w := s.Int63(), r.Int63(); g != w {
				t.Fatalf("seed %d, step %d: Int63 = %#x, math/rand %#x", seed, i, g, w)
			}
			draws += 2
		}
	}
}

// TestSourceMatchesMathRand holds the replica to math/rand's stream: for
// the seeds its reduction treats specially (0, negatives, multiples of
// the modulus, the extremes) and a spread of ordinary ones, across
// several register cycles of interleaved draws.
func TestSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{
		0, 1, -1, 9, 89482311,
		seedMod, -seedMod, 2 * seedMod, seedMod * seedMod, seedMod - 1, seedMod + 1,
		math.MinInt64, math.MaxInt64, math.MinInt64 + 1, 1 << 40, -(1 << 40),
	}
	for i := int64(0); i < 40; i++ {
		seeds = append(seeds, int64(mix64(uint64(i))))
	}
	for _, seed := range seeds {
		checkSourceMatches(t, seed, []byte{0, 1, 2, 3, 7, 9, 8, 4, 17, 5, 6, 93}, 3000)
	}
}

// TestSeedResetsReadCarry: bytes left over from a Read before reseeding
// must not leak into the first Read after it, as rand.Rand.Seed
// guarantees.
func TestSeedResetsReadCarry(t *testing.T) {
	var s source
	r := rand.New(rand.NewSource(3))
	s.Seed(3)
	got, want := make([]byte, 10), make([]byte, 10)
	s.Read(got[:3])
	r.Read(want[:3])
	s.Seed(4)
	r.Seed(4)
	s.Read(got)
	r.Read(want)
	if !bytes.Equal(got, want) {
		t.Fatalf("Read after reseed = %x, math/rand %x", got, want)
	}
}

func FuzzSourceMatchesMathRand(f *testing.F) {
	f.Add(int64(0), []byte{0})
	f.Add(int64(-1), []byte{7, 8, 9})
	f.Add(int64(seedMod), []byte{0, 1, 2, 3})
	f.Add(int64(math.MinInt64), []byte{17, 27, 37, 9})
	f.Add(int64(math.MaxInt64), []byte{248, 33, 16, 8})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		checkSourceMatches(t, seed, ops, 3000)
	})
}
