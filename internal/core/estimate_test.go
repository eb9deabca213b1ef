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
		comp := gz.Compress(data)
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
