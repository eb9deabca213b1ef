package codectest

import (
	"bytes"
	"testing"

	"edc/internal/compress"
)

// seedDecompress adds the corpus's streams and two stubs as seeds.
func seedDecompress(f *testing.F, c compress.Codec) {
	for _, src := range Corpus() {
		f.Add(c.Compress(src), len(src))
	}
	f.Add([]byte{}, 0)
	f.Add([]byte{0xff, 0x00, 0x12}, 4096)
}

// FuzzDecompress drives a codec's Decompress with arbitrary bytes; the
// only acceptable outcomes are a clean error or a successful decode —
// never a panic or out-of-bounds access.
func FuzzDecompress(f *testing.F, c compress.Codec) {
	seedDecompress(f, c)
	f.Fuzz(func(t *testing.T, data []byte, origLen int) {
		if origLen < 0 || origLen > 1<<20 {
			return
		}
		out, err := c.Decompress(data, origLen)
		if err == nil && len(out) != origLen {
			t.Fatalf("%s: silent size mismatch: %d != %d", c.Name(), len(out), origLen)
		}
	})
}

// FuzzDecompressDiff is FuzzDecompress for a codec with a kept reference
// decoder: on arbitrary bytes the outcome must be the reference's in
// everything DiffDecode compares — bytes, error, dst on error, every byte
// around the output.
func FuzzDecompressDiff(f *testing.F, c compress.Codec, ref compress.DecompressAppender) {
	seedDecompress(f, c)
	f.Fuzz(func(t *testing.T, data []byte, origLen int) {
		if origLen < 0 || origLen > 1<<16 {
			return // the corpus's longest; each try fills and checks three buffers that long
		}
		if d := DiffDecode(c.(compress.DecompressAppender), ref, data, origLen); d != "" {
			t.Fatalf("%s: %s", c.Name(), d)
		}
	})
}

// FuzzCompressDiff holds a codec with a kept reference encoder to it byte
// for byte: on arbitrary input AppendCompress must return the reference's
// stream, both into an empty dst and after a prefix it leaves alone, and
// a budgeted encode (DiffWithin) one byte short of that stream must fail
// and one at its length must return it.
func FuzzCompressDiff(f *testing.F, c compress.Codec, ref compress.Appender) {
	for _, src := range Corpus() {
		f.Add(src)
	}
	ac := c.(compress.Appender)
	pre := []byte{0xde, 0xad, 0xbe}
	f.Fuzz(func(t *testing.T, src []byte) {
		if len(src) > 1<<20 {
			return
		}
		want := ref.AppendCompress(nil, src)
		if got := ac.AppendCompress(nil, src); !bytes.Equal(got, want) {
			t.Fatalf("%s: %d B in, %d B out, the reference's %d B or differing bytes", c.Name(), len(src), len(got), len(want))
		}
		got := ac.AppendCompress(append([]byte(nil), pre...), src)
		if !bytes.Equal(got[:len(pre)], pre) || !bytes.Equal(got[len(pre):], want) {
			t.Fatalf("%s: %d B in: after a prefix the output differs from the reference", c.Name(), len(src))
		}
		for _, max := range []int{len(want) - 1, len(want)} {
			if d := DiffWithin(c, src, want, max); d != "" {
				t.Fatalf("%s: %s", c.Name(), d)
			}
		}
	})
}

// FuzzRoundTrip compresses arbitrary input and requires exact recovery.
func FuzzRoundTrip(f *testing.F, c compress.Codec) {
	for _, src := range Corpus() {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		if len(src) > 1<<20 {
			return
		}
		comp := c.Compress(src)
		got, err := c.Decompress(comp, len(src))
		if err != nil {
			t.Fatalf("%s: decompress own output: %v", c.Name(), err)
		}
		if !bytes.Equal(got, src) {
			t.Fatalf("%s: round trip mismatch", c.Name())
		}
	})
}
