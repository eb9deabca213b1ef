package lzf

import (
	"bytes"
	"testing"

	"edc/internal/compress/codectest"
)

func TestRoundTrip(t *testing.T)  { codectest.RunRoundTrip(t, New()) }
func TestQuick(t *testing.T)      { codectest.RunQuick(t, New()) }
func TestCorruption(t *testing.T) { codectest.RunRejectsCorruption(t, New()) }
func TestCompresses(t *testing.T) { codectest.RunCompressesRedundantData(t, New(), 1.5) }
func BenchmarkCodec(b *testing.B) { codectest.RunBench(b, New()) }

func TestLongMatchEncoding(t *testing.T) {
	// A run long enough to need the extended-length form (>9 match bytes).
	src := bytes.Repeat([]byte{'x'}, 500)
	c := New()
	comp := c.AppendCompress(nil, src)
	if len(comp) >= len(src)/4 {
		t.Fatalf("run of 500 compressed to %d bytes; expected much smaller", len(comp))
	}
	got, err := c.DecompressAppend(nil, comp, len(src))
	if err != nil || !bytes.Equal(got, src) {
		t.Fatalf("round trip failed: %v", err)
	}
}

func TestMaxOffsetBoundary(t *testing.T) {
	// Two identical 16-byte blocks separated by exactly maxOff-16 bytes of
	// unique filler: the second must still round-trip whether or not the
	// encoder chooses to reference the first.
	pat := []byte("0123456789abcdef")
	filler := make([]byte, maxOff-len(pat))
	for i := range filler {
		filler[i] = byte(37*i + 11)
	}
	src := append(append(append([]byte{}, pat...), filler...), pat...)
	c := New()
	got, err := c.DecompressAppend(nil, c.AppendCompress(nil, src), len(src))
	if err != nil || !bytes.Equal(got, src) {
		t.Fatalf("round trip failed at offset boundary: %v", err)
	}
}

func TestDecompressRejectsBadOffset(t *testing.T) {
	// ctrl byte encodes a back reference beyond the start of output.
	bad := []byte{0x20 | 0x1f, 0xff} // len 3, offset 0x1fff+1
	if _, err := New().DecompressAppend(nil, bad, 100); err == nil {
		t.Fatal("expected error for reference before start of output")
	}
}

func TestIncompressibleExpansionBounded(t *testing.T) {
	src := make([]byte, 4096)
	for i := range src {
		src[i] = byte(i*197 + i>>3)
	}
	comp := New().AppendCompress(nil, src)
	// Worst case adds one control byte per 32 literals.
	if len(comp) > len(src)+len(src)/32+16 {
		t.Fatalf("expansion too large: %d for %d input", len(comp), len(src))
	}
}
