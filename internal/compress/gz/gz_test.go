package gz

import (
	"bytes"
	"testing"

	"edc/internal/compress/codectest"
)

func TestRoundTrip(t *testing.T)  { codectest.RunRoundTrip(t, New()) }
func TestQuick(t *testing.T)      { codectest.RunQuick(t, New()) }
func TestCorruption(t *testing.T) { codectest.RunRejectsCorruption(t, New()) }
func TestCompresses(t *testing.T) { codectest.RunCompressesRedundantData(t, New(), 2.2) }
func BenchmarkCodec(b *testing.B) { codectest.RunBench(b, New()) }

func TestLengthCodeTables(t *testing.T) {
	for l := 3; l <= 258; l++ {
		sym, ev, eb := lengthToCode(l)
		if sym < 257 || sym >= 257+len(lengthCodes) {
			t.Fatalf("length %d: bad symbol %d", l, sym)
		}
		base := lengthCodes[sym-257].base
		if base+ev != l {
			t.Fatalf("length %d: base %d + extra %d != l", l, base, ev)
		}
		if ev >= 1<<eb {
			t.Fatalf("length %d: extra value %d does not fit %d bits", l, ev, eb)
		}
	}
}

func TestDistCodeTables(t *testing.T) {
	for d := 1; d <= maxDist; d++ {
		sym, ev, eb := distToCode(d)
		if sym < 0 || sym >= numDist {
			t.Fatalf("dist %d: bad symbol %d", d, sym)
		}
		if distCodes[sym].base+ev != d {
			t.Fatalf("dist %d: base %d + extra %d != d", d, distCodes[sym].base, ev)
		}
		if ev >= 1<<eb {
			t.Fatalf("dist %d: extra value %d does not fit %d bits", d, ev, eb)
		}
	}
}

func TestMaxLengthMatch(t *testing.T) {
	// Runs much longer than maxMatch must be split into several matches.
	src := bytes.Repeat([]byte("ab"), 4000)
	c := New()
	got, err := c.DecompressAppend(nil, c.AppendCompress(nil, src), len(src))
	if err != nil || !bytes.Equal(got, src) {
		t.Fatalf("round trip failed: %v", err)
	}
}

func TestFarDistance(t *testing.T) {
	// Matches near the maxDist boundary.
	pat := []byte("unique-pattern-here!")
	filler := make([]byte, maxDist-len(pat)-1)
	for i := range filler {
		filler[i] = byte(151*i + 7)
	}
	src := append(append(append([]byte{}, pat...), filler...), pat...)
	c := New()
	got, err := c.DecompressAppend(nil, c.AppendCompress(nil, src), len(src))
	if err != nil || !bytes.Equal(got, src) {
		t.Fatalf("round trip failed near maxDist: %v", err)
	}
}

func TestBetterRatioThanLZFOnText(t *testing.T) {
	src := []byte(bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog; "), 200))
	gzOut := New().AppendCompress(nil, src)
	if len(gzOut) >= len(src)/3 {
		t.Fatalf("gz ratio too low: %d of %d", len(gzOut), len(src))
	}
}

func TestStoredBlockFallbackBoundsExpansion(t *testing.T) {
	// High-entropy input: the stored container caps expansion at 1 byte.
	src := make([]byte, 4096)
	for i := range src {
		src[i] = byte((i*197 + i>>3) ^ i<<2)
	}
	c := New()
	comp := c.AppendCompress(nil, src)
	if len(comp) > len(src)+1 {
		t.Fatalf("expansion %d bytes; stored fallback should cap at 1", len(comp)-len(src))
	}
	got, err := c.DecompressAppend(nil, comp, len(src))
	if err != nil || !bytes.Equal(got, src) {
		t.Fatalf("stored round trip failed: %v", err)
	}
}

func TestDecompressRejectsBadFormatByte(t *testing.T) {
	if _, err := New().DecompressAppend(nil, []byte{0x7f, 1, 2, 3}, 3); err == nil {
		t.Fatal("unknown format byte should fail")
	}
	if _, err := New().DecompressAppend(nil, nil, 0); err == nil {
		t.Fatal("empty input should fail")
	}
	// Stored block with wrong length.
	if _, err := New().DecompressAppend(nil, []byte{0x01, 'a'}, 5); err == nil {
		t.Fatal("stored length mismatch should fail")
	}
}
