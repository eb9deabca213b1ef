package datagen

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// This file keeps the four class generators as they were before
// datagen.go was rewritten over the source replica and its padded tables
// — one *rand.Rand, one append per word, separator, template byte and
// record — as the definition of the bytes the fast bodies must reproduce.

func refAppendText(dst []byte, rng *rand.Rand, n int) []byte {
	start := len(dst)
	for len(dst)-start < n {
		dst = append(dst, textWords[rng.Intn(len(textWords))]...)
		switch rng.Intn(16) {
		case 0:
			dst = append(dst, ".\n"...)
		case 1:
			dst = append(dst, ", "...)
		default:
			dst = append(dst, ' ')
		}
	}
	return dst[:start+n]
}

func refAppendCode(dst []byte, rng *rand.Rand, n int) []byte {
	start := len(dst)
	for len(dst)-start < n {
		tpl := codeTemplates[rng.Intn(len(codeTemplates))]
		for i := 0; i < len(tpl); {
			if tpl[i] == '%' && i+1 < len(tpl) && tpl[i+1] == 's' {
				dst = append(dst, codeIdents[rng.Intn(len(codeIdents))]...)
				i += 2
				continue
			}
			dst = append(dst, tpl[i])
			i++
		}
	}
	return dst[:start+n]
}

func refAppendBinary(dst []byte, rng *rand.Rand, n int) []byte {
	start := len(dst)
	pool := make([]byte, 256)
	rng.Read(pool)
	for len(dst)-start < n {
		var rec [64]byte
		rng.Read(rec[:16])
		for i := 16; i < 64; i += 8 {
			off := rng.Intn(len(pool) - 8)
			copy(rec[i:i+8], pool[off:off+8])
		}
		dst = append(dst, rec[:]...)
	}
	return dst[:start+n]
}

func refAppendMedia(dst []byte, rng *rand.Rand, n int) []byte {
	dst = append(dst, make([]byte, n)...)
	rng.Read(dst[len(dst)-n:])
	return dst
}

// classBody is one content class and its reference generator.
type classBody struct {
	name string
	cls  Class
	ref  func(dst []byte, rng *rand.Rand, n int) []byte
}

var classBodies = []classBody{
	{"text", ClassText, refAppendText},
	{"code", ClassCode, refAppendCode},
	{"binary", ClassBinary, refAppendBinary},
	{"media", ClassMedia, refAppendMedia},
}

// refMaxLen is the longest chunk the differential compares: past a
// dozen register cycles of draws for every class.
const refMaxLen = 20000

// diffClass compares fast — the product's appendContent for b.cls, or a
// mutant of it — against the reference at every length 1…refMaxLen and
// returns the first length at which they differ, or 0. The reference is a
// prefix-stable stream (it generates past n and cuts), which the test
// asserts rather than assumes: it is run in full at the short lengths,
// where every tail path of the fast bodies lives, and at refMaxLen, and
// its prefix stands in for it in between.
func diffClass(t *testing.T, b classBody, seed int64, fast func(dst []byte, n int, seed int64, st *genScratch) []byte) int {
	t.Helper()
	full := b.ref(nil, rand.New(rand.NewSource(seed)), refMaxLen)
	if len(full) != refMaxLen {
		t.Fatalf("%s: reference returned %d bytes, want %d", b.name, len(full), refMaxLen)
	}
	st := new(genScratch)
	var got []byte
	for n := 1; n <= refMaxLen; n++ {
		want := full[:n]
		if n <= 600 {
			want = b.ref(nil, rand.New(rand.NewSource(seed)), n)
			if !bytes.Equal(want, full[:n]) {
				t.Fatalf("%s: reference is not prefix-stable at length %d", b.name, n)
			}
		}
		got = fast(got[:0], n, seed, st)
		if !bytes.Equal(got, want) {
			return n
		}
	}
	return 0
}

// productBody is the product's path for class cls.
func productBody(cls Class) func(dst []byte, n int, seed int64, st *genScratch) []byte {
	return func(dst []byte, n int, seed int64, st *genScratch) []byte {
		return appendContent(dst, cls, n, seed, st)
	}
}

// TestClassBodiesMatchReference holds the table-driven class bodies to
// the generators they replaced, byte for byte, at every length from 1 to
// 20 000 and for several seeds.
func TestClassBodiesMatchReference(t *testing.T) {
	seeds := []int64{9, -1, 1 << 50}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, b := range classBodies {
		for _, seed := range seeds {
			if n := diffClass(t, b, seed, productBody(b.cls)); n != 0 {
				t.Errorf("%s, seed %d: differs from the reference at length %d", b.name, seed, n)
			}
		}
	}
}

// TestClassDifferentialCatchesMutation shows the comparison above has
// teeth: one seeded fault per class — a table entry altered for the two
// table-driven bodies, one wrong random draw for the other two — is
// reported, and is gone once the fault is undone.
func TestClassDifferentialCatchesMutation(t *testing.T) {
	const seed = 9
	rng := rand.New(rand.NewSource(21))
	// flipDraw is the product's body reading a register in which one word
	// has one wrong bit — bit 32, which every kind of draw uses.
	flipDraw := func(cls Class, word int) func(dst []byte, n int, seed int64, st *genScratch) []byte {
		return func(dst []byte, n int, seed int64, st *genScratch) []byte {
			st.rng.Seed(seed)
			st.rng.vec[word] ^= 1 << 32
			switch cls {
			case ClassBinary:
				return appendBinary(dst, &st.rng, n, &st.pool)
			default:
				dst, out := extend(dst, n)
				st.rng.Read(out)
				return dst
			}
		}
	}
	mutants := map[Class]func() (fast func([]byte, int, int64, *genScratch) []byte, undo func()){
		ClassText: func() (func([]byte, int, int64, *genScratch) []byte, func()) {
			u := &textUnits[rng.Intn(len(textUnits))]
			old := *u
			u.b[u.n-1] ^= 0x40 // the separator's last byte
			return productBody(ClassText), func() { *u = old }
		},
		ClassCode: func() (func([]byte, int, int64, *genScratch) []byte, func()) {
			lits := codeLits[rng.Intn(len(codeLits))]
			u := &lits[len(lits)-1]
			old := *u
			u.n-- // the template loses its final newline
			return productBody(ClassCode), func() { *u = old }
		},
		ClassBinary: func() (func([]byte, int, int64, *genScratch) []byte, func()) {
			return flipDraw(ClassBinary, rng.Intn(rngLen)), func() {}
		},
		ClassMedia: func() (func([]byte, int, int64, *genScratch) []byte, func()) {
			return flipDraw(ClassMedia, rng.Intn(rngLen)), func() {}
		},
	}
	for _, b := range classBodies {
		fast, undo := mutants[b.cls]()
		n := diffClass(t, b, seed, fast)
		undo()
		if n == 0 {
			t.Errorf("%s: seeded mutation not caught at any length up to %d", b.name, refMaxLen)
			continue
		}
		t.Logf("%s: mutation caught at length %d", b.name, n)
		if n := diffClass(t, b, seed, productBody(b.cls)); n != 0 {
			t.Errorf("%s: still differs at length %d after the mutation was undone", b.name, n)
		}
	}
}

// TestAppendIsExact is the append contract's canary: appending into a
// sub-slice that has exactly size bytes of spare capacity, inside a buffer
// otherwise filled with 0xA5, must not reallocate and must leave every
// byte outside dst[len:len+size] as it was — for every class, every size
// 1…300 (all the cut-unit tails) and sizes around 4096.
func TestAppendIsExact(t *testing.T) {
	const lead, trail, canary = 24, 64, 0xA5
	sizes := []int{}
	for n := 1; n <= 300; n++ {
		sizes = append(sizes, n)
	}
	for n := 4096 - 17; n <= 4096+17; n++ {
		sizes = append(sizes, n)
	}
	st := new(genScratch)
	for cls := ClassZero; cls < numClasses; cls++ {
		for _, size := range sizes {
			buf := bytes.Repeat([]byte{canary}, lead+size+trail)
			dst := buf[: lead : lead+size]
			got := appendContent(dst, cls, size, int64(size)*31+int64(cls), st)
			if len(got) != lead+size || &got[0] != &buf[0] {
				t.Fatalf("%v size %d: reallocated or mis-sized (len %d)", cls, size, len(got))
			}
			for i, c := range buf {
				if (i < lead || i >= lead+size) && c != canary {
					t.Fatalf("%v size %d: byte %d outside dst[len:len+size] overwritten", cls, size, i)
				}
			}
		}
	}
	// The same through the exported entry point, across a region boundary
	// so two chunks of different seeds share one destination.
	g := New(Enterprise(), 11)
	for _, size := range sizes {
		buf := bytes.Repeat([]byte{canary}, lead+size+trail)
		got := g.AppendBlock(buf[:lead:lead+size], classGrain-int64(size)/2, size, 1)
		if len(got) != lead+size || &got[0] != &buf[0] {
			t.Fatalf("AppendBlock size %d: reallocated or mis-sized (len %d)", size, len(got))
		}
		want := g.Block(classGrain-int64(size)/2, size, 1)
		if !bytes.Equal(got[lead:], want) {
			t.Fatalf("AppendBlock size %d: differs from Block", size)
		}
		for i, c := range buf {
			if (i < lead || i >= lead+size) && c != canary {
				t.Fatalf("AppendBlock size %d: byte %d outside dst[len:len+size] overwritten", size, i)
			}
		}
	}
}

func BenchmarkSeed(b *testing.B) {
	var s source
	for i := 0; i < b.N; i++ {
		s.Seed(int64(i))
	}
}

// BenchmarkSeedMathRand is the parent's per-chunk cost: reseeding one
// rand.Rand.
func BenchmarkSeedMathRand(b *testing.B) {
	r := rand.New(rand.NewSource(0))
	for i := 0; i < b.N; i++ {
		r.Seed(int64(i))
	}
}

// BenchmarkClass measures one 16 KiB chunk per class, seeding included;
// the ref rows are the generators in this file over a reseeded rand.Rand.
func BenchmarkClass(b *testing.B) {
	const n = 16 << 10
	for _, body := range classBodies {
		body := body
		b.Run(body.name, func(b *testing.B) {
			st := new(genScratch)
			buf := make([]byte, 0, n)
			b.SetBytes(n)
			for i := 0; i < b.N; i++ {
				buf = appendContent(buf[:0], body.cls, n, int64(i), st)
			}
		})
		b.Run(fmt.Sprintf("%s-ref", body.name), func(b *testing.B) {
			rng := rand.New(rand.NewSource(0))
			buf := make([]byte, 0, n+64)
			b.SetBytes(n)
			for i := 0; i < b.N; i++ {
				rng.Seed(int64(i))
				buf = body.ref(buf[:0], rng, n)
			}
		})
	}
}
