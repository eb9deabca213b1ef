package bwz

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"edc/internal/compress/codectest"
)

func TestRoundTrip(t *testing.T)  { codectest.RunRoundTrip(t, New()) }
func TestQuick(t *testing.T)      { codectest.RunQuick(t, New()) }
func TestCorruption(t *testing.T) { codectest.RunRejectsCorruption(t, New()) }
func TestCompresses(t *testing.T) { codectest.RunCompressesRedundantData(t, New(), 2.5) }
func BenchmarkCodec(b *testing.B) { codectest.RunBench(b, New()) }

func TestSuffixArraySorted(t *testing.T) {
	s := []byte("banana")
	sa := suffixArray(s, new(scratch))
	if len(sa) != len(s)+1 {
		t.Fatalf("sa length %d; want %d", len(sa), len(s)+1)
	}
	if sa[0] != int32(len(s)) {
		t.Fatalf("sentinel suffix not first: sa[0]=%d", sa[0])
	}
	suffix := func(i int32) string { return string(s[i:]) }
	for j := 1; j < len(sa)-1; j++ {
		if suffix(sa[j]) >= suffix(sa[j+1]) {
			t.Fatalf("suffixes out of order at %d: %q >= %q", j, suffix(sa[j]), suffix(sa[j+1]))
		}
	}
}

func TestBWTKnownVector(t *testing.T) {
	// banana: sorted sentinel rotations give last column "annb$aa" with $
	// dropped -> "annbaa", primary = row of original string.
	l, p := bwt([]byte("banana"), new(scratch))
	got, err := unbwt(l, p)
	if err != nil || string(got) != "banana" {
		t.Fatalf("unbwt(bwt(banana)) = %q, %v", got, err)
	}
}

func TestBWTQuick(t *testing.T) {
	f := func(data []byte) bool {
		if len(data) > 4096 {
			data = data[:4096]
		}
		l, p := bwt(data, new(scratch))
		got, err := unbwt(l, p)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestUnbwtRejectsBadPrimary(t *testing.T) {
	l, _ := bwt([]byte("hello world"), new(scratch))
	if _, err := unbwt(l, len(l)+5); err == nil {
		t.Fatal("expected error for out-of-range primary index")
	}
}

func TestMTFRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(2000)
		src := make([]byte, n)
		rng.Read(src)
		if !bytes.Equal(unmtf(mtf(src, new(scratch))), src) {
			t.Fatalf("mtf round trip failed (trial %d)", trial)
		}
	}
}

func TestMTFFrontLoading(t *testing.T) {
	// Repeated characters should produce zeros after the first occurrence.
	out := mtf([]byte("aaaa"), new(scratch))
	if out[1] != 0 || out[2] != 0 || out[3] != 0 {
		t.Fatalf("mtf(aaaa) = %v; want trailing zeros", out)
	}
}

func TestRLERoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(3000)
		src := make([]byte, n)
		for i := range src {
			if rng.Intn(3) > 0 {
				src[i] = 0 // zero-heavy, like MTF output
			} else {
				src[i] = byte(rng.Intn(255) + 1)
			}
		}
		got, err := rleDecode(rleEncode(src, new(scratch)), len(src))
		if err != nil || !bytes.Equal(got, src) {
			t.Fatalf("rle round trip failed (trial %d): %v", trial, err)
		}
	}
}

func TestRLELongZeroRun(t *testing.T) {
	src := make([]byte, 100000) // single huge zero run
	syms := rleEncode(src, new(scratch))
	if len(syms) > 20 {
		t.Fatalf("100k zero run encoded to %d symbols; want logarithmic", len(syms))
	}
	got, err := rleDecode(syms, len(src))
	if err != nil || !bytes.Equal(got, src) {
		t.Fatalf("long run round trip failed: %v", err)
	}
}

func TestMultiBlockInput(t *testing.T) {
	// Exceed MaxBlock to force the multi-block path.
	src := bytes.Repeat([]byte("0123456789abcdef"), (MaxBlock/16)+1024)
	c := New()
	comp := c.AppendCompress(nil, src)
	got, err := c.DecompressAppend(nil, comp, len(src))
	if err != nil || !bytes.Equal(got, src) {
		t.Fatalf("multi-block round trip failed: %v", err)
	}
}

func TestBestRatioOnText(t *testing.T) {
	src := bytes.Repeat([]byte("elastic data compression for flash-based storage systems. "), 400)
	comp := New().AppendCompress(nil, src)
	if len(comp) >= len(src)/5 {
		t.Fatalf("bwz ratio too low on repetitive text: %d of %d", len(comp), len(src))
	}
}
