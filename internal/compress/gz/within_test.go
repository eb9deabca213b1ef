package gz

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"edc/internal/compress/codectest"
	"edc/internal/datagen"
)

// exactEntropy is n·H(freq) in bits, computed apart from entropyBits and
// without its margin.
func exactEntropy(freq []int64) float64 {
	n, sum := 0.0, 0.0
	for _, f := range freq {
		if f > 0 {
			n += float64(f)
			sum += float64(f) * math.Log2(float64(f))
		}
	}
	if n == 0 {
		return 0
	}
	return n*math.Log2(n) - sum
}

// checkTight holds a bound's verdicts to the bound it should compute,
// bits: over budget b exactly when 8b is below it. Budgets within two
// bits under it may go either way, for entropyBits's rounding margin.
// Eight bytes either side are tried, so a bound off by a byte or more in
// either direction fails.
func checkTight(t *testing.T, what string, bits float64, over func(budget int) bool) {
	t.Helper()
	for b := int(bits/8) - 8; b <= int(bits/8)+8; b++ {
		switch got := over(b); {
		case got && 8*float64(b) >= bits:
			t.Fatalf("%s: over budget %d B, yet the bound is %.2f bits", what, b, bits)
		case !got && 8*float64(b) < bits-2:
			t.Fatalf("%s: within budget %d B, yet the bound is %.2f bits", what, b, bits)
		}
	}
}

// TestForcedLiteralBoundIsTight builds a block whose forced literals are
// known by construction — 1 500 random bytes, then 200 copies of three of
// them (matchable) each followed by four fresh random bytes (forced) —
// with every 3-gram that is not a planted copy hashing apart, and holds
// forcedLiteralsOver to the exact entropy of those literals: a scan that
// misses a repeat, misplaces the three-byte window or inflates the
// entropy counts more literals or more bits than there are.
func TestForcedLiteralBoundIsTight(t *testing.T) {
	for seed := int64(1); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		src := make([]byte, 1500, 1500+200*7)
		rng.Read(src)
		var freq [256]int64
		for _, b := range src {
			freq[b]++
		}
		planted := map[int]bool{}
		for s := 0; s < 200; s++ {
			j := rng.Intn(1497)
			planted[len(src)] = true
			src = append(src, src[j:j+3]...)
			for f := 0; f < 4; f++ {
				b := byte(rng.Intn(256))
				src = append(src, b)
				freq[b]++
			}
		}
		// Usable only if the bitmap sees a repeat at the planted copies
		// and nowhere else.
		seen, ok := map[uint32]bool{}, true
		for k := 0; k+3 <= len(src) && ok; k++ {
			h := hash3(src, k)
			ok = seen[h] == planted[k]
			seen[h] = true
		}
		if !ok {
			continue
		}
		checkTight(t, "forced literals", 8+exactEntropy(freq[:]), func(b int) bool { return forcedLiteralsOver(src, b) })
		return
	}
	t.Fatal("no seed gave a block whose only repeats are the planted ones")
}

// TestPrefixBoundIsTight holds prefixOver to the entropy of a token
// stream's lit/len and distance counts, end-of-block included, plus its
// extra bits and the format byte.
func TestPrefixBoundIsTight(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tokens := make([]token, 3000)
	var lit [numLitLen]int64
	var dist [numDist]int64
	lit[eob] = 1
	extra := 0.0
	for i := range tokens {
		if rng.Intn(3) > 0 {
			b := byte(rng.Intn(40))
			tokens[i] = token{lit: b}
			lit[b]++
			continue
		}
		l, d := minMatch+rng.Intn(maxMatch-minMatch+1), 1+rng.Intn(maxDist)
		tokens[i] = token{dist: int32(d), len: int32(l)}
		s, _, eb := lengthToCode(l)
		ds, _, deb := distToCode(d)
		lit[s]++
		dist[ds]++
		extra += float64(eb + deb)
	}
	bits := 8 + extra + exactEntropy(lit[:]) + exactEntropy(dist[:])
	st := new(parseState)
	checkTight(t, "prefix", bits, func(b int) bool {
		st.resetFreq()
		return st.prefixOver(tokens, b)
	})
}

// withinSizes are the block sizes TestCompressWithin draws from the four
// payload profiles: the shortest blocks, either side of a parse check
// and of the 64 KiB region, and 70 KiB.
var withinSizes = []int{1, 2, 3, 4, 5, 17, 255, 1000, 4095, 4096, 4097, 8191, 16384, 32768, 65535, 65536, 65537, 70 << 10}

// TestCompressWithin holds the budgeted encode to AppendCompress
// (codectest.DiffWithin) over the corpus and datagen blocks of the four
// bench profiles from 1 B to 70 KiB — at no budget, nothing, a quarter, a
// half and three quarters of the input, two bytes either side of the
// output's length and the stored container's length — then at random
// sizes, offsets and budgets. -short runs a third of the blocks.
func TestCompressWithin(t *testing.T) {
	c := New()
	var srcs [][]byte
	for _, src := range codectest.Corpus() {
		srcs = append(srcs, src)
	}
	rng := rand.New(rand.NewSource(48))
	for _, p := range codectest.BenchProfiles() {
		gen := datagen.New(p, 7)
		for i, n := range withinSizes {
			if testing.Short() && i%3 != 0 {
				continue
			}
			// Two offsets a few regions apart: region 0 alone is one
			// content class.
			for _, r := range []int64{int64(i), int64(i + 5)} {
				srcs = append(srcs, gen.Block(r<<16, n, 0))
			}
		}
	}
	for _, src := range srcs {
		want := c.Compress(src)
		n, w := len(src), len(want)
		for _, max := range []int{-1, 0, n / 4, n / 2, 3 * n / 4, w - 2, w - 1, w, w + 1, n + 1} {
			if d := codectest.DiffWithin(c, src, want, max); d != "" {
				t.Fatal(d)
			}
		}
	}
	random := 200
	if testing.Short() {
		random = 40
	}
	profiles := codectest.BenchProfiles()
	for i := 0; i < random; i++ {
		gen := datagen.New(profiles[rng.Intn(len(profiles))], 7)
		src := gen.Block(rng.Int63n(64)<<12, 1+rng.Intn(70<<10), 0)
		want := c.Compress(src)
		max := rng.Intn(len(src) + 2)
		if i%2 == 0 { // half of them near the output's length
			max = len(want) - 8 + rng.Intn(17)
		}
		if d := codectest.DiffWithin(c, src, want, max); d != "" {
			t.Fatalf("random case %d: %s", i, d)
		}
	}
}

// BenchmarkAppendCompressWithin times budgeted encodes of 64 KiB blocks
// of three payload classes at budgets of ¾, ½ and ¼ of the input, each
// beside a /full row: the same blocks through AppendCompress.
func BenchmarkAppendCompressWithin(b *testing.B) {
	const n = 64 << 10
	c := New()
	for _, cl := range []datagen.Class{datagen.ClassMedia, datagen.ClassText, datagen.ClassBinary} {
		gen := datagen.New(datagen.Profile{Name: cl.String(), Mixture: []datagen.ClassWeight{{Class: cl, Weight: 1}}}, 7)
		blocks := make([][]byte, 8)
		for i := range blocks {
			blocks[i] = gen.Block(int64(i)<<16, n, 0)
		}
		run := func(name string, max int) {
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(n * len(blocks)))
				buf := make([]byte, 0, n+1)
				for i := 0; i < b.N; i++ {
					for _, src := range blocks {
						if max < 0 {
							buf = c.AppendCompress(buf[:0], src)
						} else {
							buf, _ = c.AppendCompressWithin(buf[:0], src, max)
						}
					}
				}
			})
		}
		for _, q := range []int{3, 2, 1} {
			name := fmt.Sprintf("%s/%s/%d-4", c.Name(), cl, q)
			run(name, q*n/4)
			run(name+"/full", -1)
		}
	}
}
