package core

import (
	"math"
	"math/rand"
	"testing"

	"edc/internal/datagen"
)

func TestEstimateEmptyAndTiny(t *testing.T) {
	e := NewEstimator()
	if r := e.EstimateRatio(nil); r != 1 {
		t.Fatalf("empty ratio = %v; want 1", r)
	}
	if r := e.EstimateRatio([]byte{1, 2, 3}); r < 1 {
		t.Fatalf("tiny ratio = %v; want >= 1", r)
	}
}

func TestEstimateRandomIsIncompressible(t *testing.T) {
	e := NewEstimator()
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 65536)
	rng.Read(data)
	if e.Compressible(data) {
		t.Fatalf("random data classified compressible (ratio %.2f)", e.EstimateRatio(data))
	}
}

func TestEstimateZerosHighlyCompressible(t *testing.T) {
	e := NewEstimator()
	data := make([]byte, 65536)
	r := e.EstimateRatio(data)
	if r < 10 {
		t.Fatalf("zero-page ratio = %v; want large", r)
	}
	if !e.Compressible(data) {
		t.Fatal("zeros must be compressible")
	}
}

func TestEstimateTextCompressible(t *testing.T) {
	e := NewEstimator()
	g := datagen.New(datagen.LinuxSrc(), 2)
	hits := 0
	total := 50
	for i := 0; i < total; i++ {
		// 64K regions with text/code classes dominate LinuxSrc.
		data := g.Block(int64(i)*65536, 16384, 0)
		if e.Compressible(data) {
			hits++
		}
	}
	if hits < total*6/10 {
		t.Fatalf("only %d/%d linux-src chunks classified compressible", hits, total)
	}
}

func TestEstimateMediaMostlyIncompressible(t *testing.T) {
	e := NewEstimator()
	g := datagen.New(datagen.Media(), 3)
	miss := 0
	total := 50
	for i := 0; i < total; i++ {
		data := g.Block(int64(i)*65536, 16384, 0)
		if !e.Compressible(data) {
			miss++
		}
	}
	if miss < total*7/10 {
		t.Fatalf("only %d/%d media chunks classified incompressible", miss, total)
	}
}

func TestEstimatorAgreesWithRealCodec(t *testing.T) {
	// The estimator's binary decision should usually match what gz
	// actually achieves against the 75% threshold.
	e := NewEstimator()
	g := datagen.New(datagen.Enterprise(), 4)
	agree, total := 0, 80
	gz, err := defaultTestRegistry(t).ByName("gz")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < total; i++ {
		data := g.Block(int64(i)*65536, 16384, 0)
		est := e.Compressible(data)
		comp := gz.AppendCompress(nil, data)
		_, real := QuantizeSlot(int64(len(data)), int64(len(comp)))
		if est == real {
			agree++
		}
	}
	if agree < total*7/10 {
		t.Fatalf("estimator agreed with gz on only %d/%d chunks", agree, total)
	}
}

// refEstimator is the estimator as it was before estimateWindow was
// rewritten for speed — math.Log2 per distinct byte value, four byte
// loads per 4-gram, an epoch-tagged hash set — kept as the definition of
// the ratio the fast loop must reproduce bit for bit.
type refEstimator struct {
	sampleSize, samples int
	seen, epoch         [512]uint32
	cur                 uint32
}

func (e *refEstimator) estimateRatio(data []byte) float64 {
	n := len(data)
	if n == 0 {
		return 1
	}
	ss, k := e.sampleSize, e.samples
	if ss*k >= n {
		return e.estimateWindow(data)
	}
	var sum float64
	stride := (n - ss) / k
	for i := 0; i < k; i++ {
		off := i * stride
		sum += e.estimateWindow(data[off : off+ss])
	}
	return sum / float64(k)
}

func (e *refEstimator) estimateWindow(w []byte) float64 {
	if len(w) == 0 {
		return 1
	}
	var counts [256]int
	for _, b := range w {
		counts[b]++
	}
	n := float64(len(w))
	entropy := 0.0
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / n
		entropy -= float64(p * math.Log2(p))
	}
	matchFrac := 0.0
	if len(w) >= 8 {
		if e.cur == ^uint32(0) {
			e.epoch = [512]uint32{}
			e.cur = 0
		}
		e.cur++
		matches := 0
		total := 0
		for i := 0; i+4 <= len(w); i++ {
			v := uint32(w[i]) | uint32(w[i+1])<<8 | uint32(w[i+2])<<16 | uint32(w[i+3])<<24
			h := (v * 2654435761) >> 23 // 9 bits
			if e.epoch[h] == e.cur && e.seen[h] == v && v != 0 {
				matches++
			}
			e.seen[h] = v
			e.epoch[h] = e.cur
			total++
		}
		matchFrac = float64(matches) / float64(total)
	}
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

// TestEstimateMatchesReference compares the two over generated blocks of
// every content class, blocks too short to sample (under three windows),
// zero runs that plant the all-zero 4-gram, and a non-default window.
func TestEstimateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	gens := []*datagen.Generator{
		datagen.New(datagen.Enterprise(), 1),
		datagen.New(datagen.LinuxSrc(), 2),
		datagen.New(datagen.Media(), 3),
	}
	est, ref := NewEstimator(), &refEstimator{sampleSize: 256, samples: 3}
	odd, oddRef := &Estimator{SampleSize: 100, Samples: 5}, &refEstimator{sampleSize: 100, samples: 5}
	blocks := 60000
	if testing.Short() {
		blocks = 6000
	}
	var buf []byte
	for i := 0; i < blocks; i++ {
		var n int
		switch i % 3 {
		case 0:
			n = 1 + rng.Intn(768) // one window, any length
		case 1:
			n = 4096
		default:
			n = 769 + rng.Intn(16<<10)
		}
		buf = gens[i%len(gens)].AppendBlock(buf[:0], int64(rng.Intn(1<<20))<<12, n, uint32(i))
		if i%11 == 0 {
			z := rng.Intn(n)
			for j := z; j < n && j < z+64; j++ {
				buf[j] = 0
			}
		}
		if got, want := est.EstimateRatio(buf), ref.estimateRatio(buf); got != want {
			t.Fatalf("block %d (%d B): ratio %v, reference %v", i, n, got, want)
		}
		if i%8 == 0 {
			if got, want := odd.EstimateRatio(buf), oddRef.estimateRatio(buf); got != want {
				t.Fatalf("block %d (%d B), 5x100 windows: ratio %v, reference %v", i, n, got, want)
			}
		}
	}
}

func BenchmarkEstimate16K(b *testing.B) {
	e := NewEstimator()
	g := datagen.New(datagen.Enterprise(), 5)
	data := g.Block(0, 16384, 0)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		_ = e.EstimateRatio(data)
	}
}

// certainProfiles are the datasets the alphabet rule is checked over,
// each also with a quarter of its regions drawn from eight clones.
func certainProfiles() []datagen.Profile {
	var ps []datagen.Profile
	for _, p := range []datagen.Profile{datagen.Enterprise(), datagen.LinuxSrc(), datagen.FirefoxBin(), datagen.Media()} {
		ps = append(ps, p, p.WithDup(0.25, 8))
	}
	return ps
}

// certainHolds requires the estimate of the n bytes g generates at off
// under version ver to clear the write-through threshold when e's
// alphabet rule says it must, and reports whether the rule fired.
func certainHolds(t *testing.T, g *datagen.Generator, e *Estimator, off int64, n int, ver uint32) bool {
	t.Helper()
	if !e.certainlyCompressible(g, off, n) {
		return false
	}
	if r := e.EstimateRatio(g.Block(off, n, ver)); r < WriteThroughRatio {
		t.Fatalf("%s at %d, %d B, version %d, %dx%d windows: certain, but the estimate is %v",
			g.Profile().Name, off, n, ver, e.SampleSize, e.Samples, r)
	}
	return true
}

// TestCertainVerdictAgrees draws runs of 512 B to 256 KiB, a third of
// them across a region boundary, over four datasets with and without
// clones, and requires every run the alphabet rule settles to estimate
// at or above the write-through threshold, under three window shapes.
// Each shape must settle some runs and leave others to the estimate.
func TestCertainVerdictAgrees(t *testing.T) {
	shapes := []*Estimator{{SampleSize: 256, Samples: 3}, {SampleSize: 100, Samples: 5}, {SampleSize: 4096, Samples: 1}}
	fired := make([]int, len(shapes))
	rng := rand.New(rand.NewSource(52))
	keys := 0
	for _, p := range certainProfiles() {
		g := datagen.New(p, rng.Int63n(1000))
		for _, e := range shapes {
			if e.certainlyCompressible(g, 0, 0) || e.certainlyCompressible(g, 0, -1) {
				t.Fatalf("%s: an empty block is certain; its estimate is 1", p.Name)
			}
		}
		for i := 0; i < 60; i++ {
			n := 512 << rng.Intn(10)
			n = max(512, n-rng.Intn(n/2))
			off := int64(rng.Intn(1<<14)) * BlockSize
			if i%3 == 0 {
				off = int64(rng.Intn(512)+8)<<16 - int64(rng.Intn(n-1)+1)
			}
			ver := uint32(rng.Intn(4))
			for s, e := range shapes {
				if certainHolds(t, g, e, off, n, ver) {
					fired[s]++
				}
			}
			keys++
		}
	}
	for s, e := range shapes {
		if fired[s] == 0 || fired[s] == keys {
			t.Fatalf("%dx%d windows: the rule settled %d of %d runs", e.SampleSize, e.Samples, fired[s], keys)
		}
	}
}

// FuzzCertainVerdict checks the alphabet rule on one run: dataset and
// seed, offset, size up to 256 KiB, version and window shape (0 takes
// the default).
func FuzzCertainVerdict(f *testing.F) {
	f.Add(int64(3), uint64(0), uint32(4096), uint32(0), uint16(256), uint8(3))
	f.Add(int64(12), uint64(1<<16-1000), uint32(3000), uint32(7), uint16(100), uint8(5))
	f.Add(int64(5), uint64(1<<20), uint32(256<<10), uint32(1), uint16(4096), uint8(1))
	f.Add(int64(0), uint64(0), uint32(0), uint32(0), uint16(0), uint8(0))
	profiles := certainProfiles()
	f.Fuzz(func(t *testing.T, seed int64, off uint64, size, ver uint32, ss uint16, k uint8) {
		g := datagen.New(profiles[uint64(seed)%uint64(len(profiles))], seed)
		e := &Estimator{SampleSize: int(ss % 8193), Samples: int(k % 9)}
		certainHolds(t, g, e, int64(off%(1<<36)), int(size%(256<<10+1)), ver)
	})
}
