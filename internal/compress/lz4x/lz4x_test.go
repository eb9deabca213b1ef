package lz4x

import (
	"bytes"
	"testing"

	"edc/internal/compress/codectest"
)

func TestRoundTrip(t *testing.T)  { codectest.RunRoundTrip(t, New()) }
func TestQuick(t *testing.T)      { codectest.RunQuick(t, New()) }
func TestCorruption(t *testing.T) { codectest.RunRejectsCorruption(t, New()) }
func TestCompresses(t *testing.T) { codectest.RunCompressesRedundantData(t, New(), 1.4) }
func BenchmarkCodec(b *testing.B) { codectest.RunBench(b, New()) }

func TestExtendedLiteralAndMatchLengths(t *testing.T) {
	// >15 literals followed by a >15+4 byte match exercises both extended
	// length encodings.
	lit := make([]byte, 100)
	for i := range lit {
		lit[i] = byte(i)
	}
	src := append(append(append([]byte{}, lit...), lit[:40]...), lit...)
	c := New()
	got, err := c.DecompressAppend(nil, c.AppendCompress(nil, src), len(src))
	if err != nil || !bytes.Equal(got, src) {
		t.Fatalf("round trip failed: %v", err)
	}
}

func TestOverlappingMatch(t *testing.T) {
	// "aaaa..." forces offset-1 overlapping copies.
	src := bytes.Repeat([]byte{'a'}, 1000)
	c := New()
	comp := c.AppendCompress(nil, src)
	got, err := c.DecompressAppend(nil, comp, len(src))
	if err != nil || !bytes.Equal(got, src) {
		t.Fatalf("round trip failed: %v", err)
	}
	if len(comp) > 40 {
		t.Fatalf("1000-byte run compressed to only %d bytes", len(comp))
	}
}

func TestDecompressRejectsZeroOffset(t *testing.T) {
	// token: 1 literal, match len 4; offset 0 is invalid.
	bad := []byte{0x10, 'a', 0x00, 0x00}
	if _, err := New().DecompressAppend(nil, bad, 10); err == nil {
		t.Fatal("expected error for zero offset")
	}
}

func TestDecompressRejectsTruncatedExtension(t *testing.T) {
	// Extended literal length that never terminates.
	bad := []byte{0xf0, 255, 255}
	if _, err := New().DecompressAppend(nil, bad, 4096); err == nil {
		t.Fatal("expected error for truncated length extension")
	}
}
