package datagen

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"edc/internal/compress"
	"edc/internal/compress/gz"
)

func TestProfileValidate(t *testing.T) {
	for _, p := range []Profile{LinuxSrc(), FirefoxBin(), Media(), Enterprise()} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
	bad := Profile{Name: "bad"}
	if err := bad.Validate(); err == nil {
		t.Fatal("empty mixture should fail")
	}
	bad = Profile{Name: "bad", Mixture: []ClassWeight{{Class(99), 1}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("unknown class should fail")
	}
	bad = Profile{Name: "bad", Mixture: []ClassWeight{{ClassText, -1}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("negative weight should fail")
	}
	bad = Profile{Name: "bad", Mixture: []ClassWeight{{ClassText, 0}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("zero total weight should fail")
	}
}

func TestDeterministic(t *testing.T) {
	g1 := New(LinuxSrc(), 42)
	g2 := New(LinuxSrc(), 42)
	a := g1.Block(1<<20, 8192, 0)
	b := g2.Block(1<<20, 8192, 0)
	if !bytes.Equal(a, b) {
		t.Fatal("same (seed, offset, version) produced different content")
	}
	c := g1.Block(1<<20, 8192, 1)
	if bytes.Equal(a, c) {
		t.Fatal("different versions should produce different content")
	}
	d := New(LinuxSrc(), 43).Block(1<<20, 8192, 0)
	if bytes.Equal(a, d) {
		t.Fatal("different seeds should produce different content")
	}
}

func TestBlockSize(t *testing.T) {
	g := New(Enterprise(), 1)
	for _, n := range []int{1, 511, 4096, 100000} {
		if got := g.Block(0, n, 0); len(got) != n {
			t.Fatalf("Block(%d) returned %d bytes", n, len(got))
		}
	}
	if got := g.Block(12345, 0, 0); len(got) != 0 {
		t.Fatalf("zero-size block returned %d bytes", len(got))
	}
}

func TestBlockSpansRegions(t *testing.T) {
	g := New(Enterprise(), 2)
	// A block crossing a classGrain boundary must equal the concatenation
	// of the two aligned halves.
	off := int64(classGrain - 2048)
	whole := g.Block(off, 4096, 0)
	left := g.Block(off, 2048, 0)
	if !bytes.Equal(whole[:2048], left) {
		t.Fatal("cross-region block not consistent with prefix read")
	}
}

func TestClassAtStable(t *testing.T) {
	g := New(Enterprise(), 3)
	for off := int64(0); off < classGrain*10; off += 4096 {
		if g.ClassAt(off) != g.ClassAt(off) {
			t.Fatal("ClassAt not deterministic")
		}
		// Same region, same class.
		if g.ClassAt(off) != g.ClassAt(off-off%classGrain) {
			t.Fatal("class differs within one region")
		}
	}
}

func TestClassMixtureProportions(t *testing.T) {
	g := New(Media(), 4)
	media := 0
	total := 2000
	for i := 0; i < total; i++ {
		if g.ClassAt(int64(i)*classGrain) == ClassMedia {
			media++
		}
	}
	frac := float64(media) / float64(total)
	if frac < 0.85 || frac > 0.99 {
		t.Fatalf("media fraction = %.3f; want ~0.92", frac)
	}
}

// compressibility measures the gz ratio over a 1 MiB fill.
func compressibility(t *testing.T, p Profile, seed int64) float64 {
	t.Helper()
	g := New(p, seed)
	data := g.Block(0, 1<<20, 0)
	c := gz.New()
	return compress.Ratio(len(data), len(c.AppendCompress(nil, data)))
}

func TestProfileCompressibilityOrdering(t *testing.T) {
	// The paper's Fig. 2 datasets: linux-src compresses better than
	// firefox-bin; media barely compresses.
	linux := compressibility(t, LinuxSrc(), 5)
	firefox := compressibility(t, FirefoxBin(), 5)
	media := compressibility(t, Media(), 5)
	if !(linux > firefox && firefox > media) {
		t.Fatalf("ordering violated: linux %.2f, firefox %.2f, media %.2f", linux, firefox, media)
	}
	if media > 1.35 {
		t.Fatalf("media ratio %.2f; want near-incompressible", media)
	}
	if linux < 2.0 {
		t.Fatalf("linux-src ratio %.2f; want > 2", linux)
	}
}

func TestEnterpriseHasIncompressibleChunks(t *testing.T) {
	// ~30% of 64K regions should be incompressible (media class).
	g := New(Enterprise(), 6)
	incompressible := 0
	total := 500
	gzc := gz.New()
	for i := 0; i < total; i++ {
		chunk := g.Block(int64(i)*classGrain, 16384, 0)
		r := compress.Ratio(len(chunk), len(gzc.AppendCompress(nil, chunk)))
		if r < 4.0/3.0 { // the paper's 75% write-through threshold
			incompressible++
		}
	}
	frac := float64(incompressible) / float64(total)
	if frac < 0.15 || frac > 0.5 {
		t.Fatalf("incompressible fraction = %.3f; want ~0.3", frac)
	}
}

func TestClassString(t *testing.T) {
	names := map[Class]string{
		ClassZero: "zero", ClassText: "text", ClassCode: "code",
		ClassBinary: "binary", ClassMedia: "media",
	}
	for c, want := range names {
		if c.String() != want {
			t.Errorf("%d.String() = %q; want %q", c, c.String(), want)
		}
	}
	if Class(42).String() == "" {
		t.Fatal("unknown class should still print")
	}
}

func BenchmarkBlock4K(b *testing.B) {
	g := New(Enterprise(), 7)
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		_ = g.Block(int64(i)*4096, 4096, 0)
	}
}

// TestAppendBlockMatchesBlock pins the zero-alloc path to the allocating
// one byte-for-byte across classes and region boundaries.
func TestAppendBlockMatchesBlock(t *testing.T) {
	g := New(Enterprise(), 3)
	var buf []byte
	for _, off := range []int64{0, 4096, classGrain - 100, 5 * classGrain, 1 << 30} {
		for _, size := range []int{512, 4096, 3 * classGrain / 2} {
			want := g.Block(off, size, 2)
			buf = g.AppendBlock(buf[:0], off, size, 2)
			if !bytes.Equal(buf, want) {
				t.Fatalf("AppendBlock(off=%d size=%d) differs from Block", off, size)
			}
			// A non-empty prefix must be preserved.
			pre := append([]byte(nil), 0xaa, 0xbb)
			got := g.AppendBlock(pre, off, size, 2)
			if got[0] != 0xaa || got[1] != 0xbb || !bytes.Equal(got[2:], want) {
				t.Fatalf("AppendBlock corrupted prefix (off=%d size=%d)", off, size)
			}
		}
	}
}

// TestAppendBlockSteadyStateAllocs guards the generator hot path: with a
// recycled destination buffer, steady-state generation must not allocate
// (the sync.Pool may rarely miss under GC pressure, hence the small
// tolerance rather than exactly zero).
func TestAppendBlockSteadyStateAllocs(t *testing.T) {
	g := New(Enterprise(), 7)
	buf := make([]byte, 0, 64<<10)
	off := int64(0)
	// Warm the scratch pool.
	buf = g.AppendBlock(buf[:0], off, 4096, 0)
	avg := testing.AllocsPerRun(200, func() {
		buf = g.AppendBlock(buf[:0], off, 4096, 0)
		off += 4096
	})
	if avg > 0.5 {
		t.Fatalf("AppendBlock allocates %.2f allocs/op in steady state; want ~0", avg)
	}
}

// BenchmarkGeneratorBlock measures both generator paths; the Append rows
// should report 0 allocs/op.
func BenchmarkGeneratorBlock(b *testing.B) {
	for _, sz := range []int{4096, 64 << 10} {
		sz := sz
		b.Run(fmt.Sprintf("Block/%dB", sz), func(b *testing.B) {
			g := New(Enterprise(), 7)
			b.ReportAllocs()
			b.SetBytes(int64(sz))
			for i := 0; i < b.N; i++ {
				_ = g.Block(int64(i)*int64(sz), sz, 0)
			}
		})
		b.Run(fmt.Sprintf("AppendBlock/%dB", sz), func(b *testing.B) {
			g := New(Enterprise(), 7)
			buf := make([]byte, 0, sz)
			b.ReportAllocs()
			b.SetBytes(int64(sz))
			for i := 0; i < b.N; i++ {
				buf = g.AppendBlock(buf[:0], int64(i)*int64(sz), sz, 0)
			}
		})
	}
}

// TestAppendCodeMatchesSprintf pins the hand-rolled template expansion
// to the fmt.Sprintf reference it replaced: same bytes, same RNG draws.
func TestAppendCodeMatchesSprintf(t *testing.T) {
	const n = 8192
	var src source
	src.Seed(9)
	got := appendCode(nil, &src, n)
	rng := rand.New(rand.NewSource(9))
	var ref []byte
	for len(ref) < n {
		tpl := codeTemplates[rng.Intn(len(codeTemplates))]
		var args []interface{}
		for i := 0; i+1 < len(tpl); i++ {
			if tpl[i] == '%' && tpl[i+1] == 's' {
				args = append(args, codeIdents[rng.Intn(len(codeIdents))])
			}
		}
		ref = append(ref, fmt.Sprintf(tpl, args...)...)
	}
	ref = ref[:n]
	if !bytes.Equal(got, ref) {
		t.Fatal("appendCode diverged from the fmt.Sprintf reference")
	}
}

// DupRatio 0 must reproduce the historical generator byte-for-byte:
// the knob is purely additive.
func TestDupZeroUnchanged(t *testing.T) {
	stock := New(Enterprise(), 9)
	dup0 := New(Enterprise().WithDup(0, 0), 9)
	for _, off := range []int64{0, 8192, 1 << 20, classGrain - 2048} {
		for _, ver := range []uint32{0, 1, 7} {
			if !bytes.Equal(stock.Block(off, 8192, ver), dup0.Block(off, 8192, ver)) {
				t.Fatalf("DupRatio=0 diverged at off=%d ver=%d", off, ver)
			}
		}
	}
}

// With every region cloned from a single-clone pool, all regions carry
// identical bytes at the same intra-region alignment, the same class,
// and overwrites rewrite the same content — the exact duplicates a
// content-addressed dedup layer collapses.
func TestCloneRegionsByteIdentical(t *testing.T) {
	g := New(Enterprise().WithDup(1, 1), 5)
	a := g.Block(3*classGrain+4096, 8192, 0)
	b := g.Block(11*classGrain+4096, 8192, 2)
	if !bytes.Equal(a, b) {
		t.Fatal("replicas of the same clone differ across regions/versions")
	}
	if g.ClassAt(3*classGrain) != g.ClassAt(11*classGrain) {
		t.Fatal("replicas of the same clone differ in class")
	}
	if bytes.Equal(a, g.Block(3*classGrain, 8192, 0)) {
		t.Fatal("different intra-region alignments should differ")
	}
}

// A partial ratio yields both kinds of regions: clones (version-
// independent content) and unique regions (version-dependent), with
// clone selection stable across generator instances.
func TestCloneSelectionStable(t *testing.T) {
	mk := func() *Generator { return New(Enterprise().WithDup(0.5, 4), 13) }
	g, g2 := mk(), mk()
	var clones, unique int
	for r := int64(0); r < 64; r++ {
		off := r * classGrain
		v0 := g.Block(off, 4096, 0)
		if !bytes.Equal(v0, g2.Block(off, 4096, 0)) {
			t.Fatalf("region %d: same seed produced different content", r)
		}
		if bytes.Equal(v0, g.Block(off, 4096, 1)) {
			clones++
		} else {
			unique++
		}
	}
	if clones == 0 || unique == 0 {
		t.Fatalf("ratio 0.5 over 64 regions: %d clones, %d unique; want both > 0", clones, unique)
	}
}

// TestAppendBlockPrefix holds the property a sampled estimate relies on:
// generating the first p bytes of a block gives exactly the first p bytes
// of generating all n, for every class, inside a region and across a
// region boundary into a region of every class.
func TestAppendBlockPrefix(t *testing.T) {
	g := New(Enterprise(), 5)
	first := map[Class]int64{} // class -> the first region of it
	for r := int64(1); len(first) < int(numClasses) && r < 1<<12; r++ {
		if c := g.ClassAt(r * classGrain); first[c] == 0 {
			first[c] = r
		}
	}
	if len(first) < int(numClasses) {
		t.Fatalf("found regions of only %d of %d classes", len(first), numClasses)
	}
	const n = 4096
	var whole, part []byte
	for c, r := range first {
		// Inside the region, and straddling the boundary out of the
		// region before it into this one.
		for _, off := range []int64{r*classGrain + 8192, r*classGrain - n/2 - 5} {
			whole = g.AppendBlock(whole[:0], off, n, 3)
			for _, p := range []int{1, 7, 256, n/2 - 1, n / 2, n/2 + 9, 2816, n - 1} {
				part = g.AppendBlock(part[:0], off, p, 3)
				if !bytes.Equal(part, whole[:p]) {
					t.Fatalf("%v region at %d: AppendBlock(%d, %d) is not the first %d bytes of AppendBlock(%d, %d)",
						c, r*classGrain, off, p, p, off, n)
				}
			}
		}
	}
}

// TestClassAlphabets holds the byte alphabets Alphabet counts to what
// each class generates: over many seeds, offsets, sizes and versions,
// with and without clones, every byte of a block lies in the union of
// its regions' class alphabets, Alphabet is that union's size, and every
// byte of a class's alphabet turns up. Text's 27 values, code's 44 and
// the 45 of text, code and zero together are pinned, so a vocabulary
// edit that widens them fails here first.
func TestClassAlphabets(t *testing.T) {
	sizes := [numClasses]int{ClassZero: 1, ClassText: 27, ClassCode: 44, ClassBinary: 256, ClassMedia: 256}
	for cls, want := range sizes {
		if got := classAlphabets[cls].len(); got != want {
			t.Fatalf("%v: %d byte values, want %d", Class(cls), got, want)
		}
	}
	low := classAlphabets[ClassZero]
	low.union(&classAlphabets[ClassText])
	low.union(&classAlphabets[ClassCode])
	if low.len() != 45 {
		t.Fatalf("zero, text and code together: %d byte values, want 45", low.len())
	}

	// check generates a block at a random offset, size and version,
	// requires its bytes to lie in the union of its regions' alphabets
	// and Alphabet to count that union, and returns the bytes seen.
	rng := rand.New(rand.NewSource(7))
	check := func(g *Generator) byteSet {
		off, n, ver := rng.Int63n(1<<26), 1+rng.Intn(1<<rng.Intn(18)), uint32(rng.Intn(8))
		var want, got byteSet
		for r := off / classGrain; r <= (off+int64(n)-1)/classGrain; r++ {
			want.union(&classAlphabets[g.ClassAt(r*classGrain)])
		}
		got.add(g.Block(off, n, ver))
		both := got
		both.union(&want)
		if both != want {
			t.Fatalf("%s at %d, %d B, version %d: bytes outside the regions' alphabets", g.Profile().Name, off, n, ver)
		}
		if a := g.Alphabet(off, n); a != want.len() {
			t.Fatalf("%s at %d, %d B: Alphabet %d, want %d", g.Profile().Name, off, n, a, want.len())
		}
		return got
	}
	for cls := Class(0); cls < numClasses; cls++ {
		var seen byteSet
		for _, dup := range []float64{0, 0.5} {
			p := Profile{Name: cls.String(), Mixture: []ClassWeight{{cls, 1}}}.WithDup(dup, 4)
			for seed := int64(0); seed < 8; seed++ {
				g := New(p, seed)
				if g.Alphabet(0, 0) != 0 {
					t.Fatal("an empty range holds byte values")
				}
				for i := 0; i < 8; i++ {
					got := check(g)
					seen.union(&got)
				}
			}
		}
		if seen != classAlphabets[cls] {
			t.Fatalf("%v: %d of its %d byte values generated", cls, seen.len(), classAlphabets[cls].len())
		}
	}
	for _, p := range []Profile{Enterprise(), Enterprise().WithDup(0.5, 4), LinuxSrc().WithDup(0.25, 8)} {
		for seed := int64(0); seed < 4; seed++ {
			g := New(p, seed)
			for i := 0; i < 16; i++ {
				check(g)
			}
		}
	}
}
