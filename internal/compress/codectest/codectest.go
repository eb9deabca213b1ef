// Package codectest provides a conformance suite run against every codec
// implementation: round trips over adversarial and realistic payloads,
// corruption rejection, and a testing/quick property over random inputs.
package codectest

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"edc/internal/compress"
	"edc/internal/datagen"
)

// textish returns n bytes of low-entropy English-like text.
func textish(n int, seed int64) []byte {
	words := []string{
		"the", "elastic", "data", "compression", "flash", "storage",
		"system", "request", "latency", "throughput", "block", "device",
		"write", "read", "queue", "idle", "bursty", "workload", "monitor",
	}
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	for b.Len() < n {
		b.WriteString(words[rng.Intn(len(words))])
		if rng.Intn(12) == 0 {
			b.WriteString(".\n")
		} else {
			b.WriteByte(' ')
		}
	}
	return []byte(b.String()[:n])
}

func random(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, n)
	rng.Read(out)
	return out
}

func repeated(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i % 7)
	}
	return out
}

// Corpus returns the named standard test payloads.
func Corpus() map[string][]byte {
	return map[string][]byte{
		"empty":       {},
		"one-byte":    {0x42},
		"two-bytes":   {0x42, 0x42},
		"all-zero-4k": make([]byte, 4096),
		"all-ff":      bytes.Repeat([]byte{0xff}, 1000),
		"repeated":    repeated(8192),
		"text-4k":     textish(4096, 1),
		"text-64k":    textish(65536, 2),
		"random-4k":   random(4096, 3),
		"random-64k":  random(65536, 4),
		"mixed":       append(textish(20000, 5), random(20000, 6)...),
		"short-text":  []byte("abcabcabcabcabc"),
		"alternating": bytes.Repeat([]byte{0, 255}, 3000),
		"sawtooth": func() []byte {
			b := make([]byte, 5000)
			for i := range b {
				b[i] = byte(i)
			}
			return b
		}(),
		"runs-of-runs": bytes.Repeat(append(bytes.Repeat([]byte{'a'}, 100), 'b'), 50),
	}
}

// RunRoundTrip exercises c over the whole corpus.
func RunRoundTrip(t *testing.T, c compress.Codec) {
	t.Helper()
	for name, src := range Corpus() {
		src := src
		t.Run(name, func(t *testing.T) {
			comp := c.AppendCompress(nil, src)
			got, err := c.DecompressAppend(nil, comp, len(src))
			if err != nil {
				t.Fatalf("%s: DecompressAppend: %v", c.Name(), err)
			}
			if !bytes.Equal(got, src) {
				t.Fatalf("%s: round trip mismatch (len got %d want %d)", c.Name(), len(got), len(src))
			}
			// Both directions must produce the same bytes after an
			// existing prefix, which they leave alone (decoder back
			// references must never reach into it).
			pre := []byte{0xde, 0xad}
			ac := c.AppendCompress(append([]byte(nil), pre...), src)
			if !bytes.Equal(ac[:2], pre) || !bytes.Equal(ac[2:], comp) {
				t.Fatalf("%s: AppendCompress after prefix corrupted output", c.Name())
			}
			pre = []byte{0xbe, 0xef}
			dc, err := c.DecompressAppend(append([]byte(nil), pre...), comp, len(src))
			if err != nil {
				t.Fatalf("%s: DecompressAppend after prefix: %v", c.Name(), err)
			}
			if !bytes.Equal(dc[:2], pre) || !bytes.Equal(dc[2:], src) {
				t.Fatalf("%s: DecompressAppend after prefix corrupted output", c.Name())
			}
		})
	}
}

// RunCompressesRedundantData asserts the codec actually shrinks
// low-entropy payloads.
func RunCompressesRedundantData(t *testing.T, c compress.Codec, minRatio float64) {
	t.Helper()
	src := textish(65536, 42)
	comp := c.AppendCompress(nil, src)
	r := compress.Ratio(len(src), len(comp))
	if r < minRatio {
		t.Fatalf("%s: ratio %.2f on text; want >= %.2f", c.Name(), r, minRatio)
	}
}

// RunQuick round-trips random structured inputs via testing/quick.
func RunQuick(t *testing.T, c compress.Codec) {
	t.Helper()
	f := func(seed int64, kind uint8, size uint16) bool {
		n := int(size) % 20000
		var src []byte
		switch kind % 4 {
		case 0:
			src = random(n, seed)
		case 1:
			src = textish(n, seed)
		case 2:
			src = make([]byte, n) // zeros
		default:
			// random with planted repeats
			src = random(n, seed)
			if n > 64 {
				copy(src[n/2:], src[:n/4])
			}
		}
		got, err := c.DecompressAppend(nil, c.AppendCompress(nil, src), len(src))
		return err == nil && bytes.Equal(got, src)
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatalf("%s: %v", c.Name(), err)
	}
}

// RunRejectsCorruption flips bits/truncates and expects either an error or
// a non-matching output — never a panic.
func RunRejectsCorruption(t *testing.T, c compress.Codec) {
	t.Helper()
	src := textish(8192, 9)
	comp := c.AppendCompress(nil, src)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		bad := append([]byte(nil), comp...)
		switch trial % 3 {
		case 0:
			if len(bad) == 0 {
				continue
			}
			bad[rng.Intn(len(bad))] ^= 1 << uint(rng.Intn(8))
		case 1:
			bad = bad[:rng.Intn(len(bad)+1)]
		case 2:
			bad = append(bad, byte(rng.Intn(256)))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s: panic on corrupt input (trial %d): %v", c.Name(), trial, r)
				}
			}()
			// A silent mis-decode is acceptable for checksum-free codec
			// payloads; what matters is no panic and no out-of-bounds.
			_, _ = c.DecompressAppend(nil, bad, len(src))
		}()
	}
}

// RunBench benchmarks AppendCompress and DecompressAppend into a fresh
// buffer each time over a 256 KiB text block.
func RunBench(b *testing.B, c compress.Codec) {
	src := textish(256<<10, 77)
	comp := c.AppendCompress(nil, src)
	b.Run(fmt.Sprintf("%s/compress", c.Name()), func(b *testing.B) {
		b.SetBytes(int64(len(src)))
		for i := 0; i < b.N; i++ {
			_ = c.AppendCompress(nil, src)
		}
	})
	b.Run(fmt.Sprintf("%s/decompress", c.Name()), func(b *testing.B) {
		b.SetBytes(int64(len(src)))
		for i := 0; i < b.N; i++ {
			if _, err := c.DecompressAppend(nil, comp, len(src)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Reference is a codec's previous implementation, kept in its package's
// tests so that a rewritten hot loop can be held to the exact bytes and
// errors of the loop it replaced. Every compress.Codec is one too.
type Reference interface {
	AppendCompress(dst, src []byte) []byte
	DecompressAppend(dst, src []byte, origLen int) ([]byte, error)
}

// RunDifferential requires c to agree with ref byte for byte: on
// AppendCompress over the standard corpus and a few thousand generated
// blocks of 1 B to 70 KiB from three content profiles, and on
// DecompressAppend — DiffDecode: result, error and every byte around the
// output — over those streams and over more than 20 000 damaged ones
// (one bit flipped, truncated, extended, or decoded to a wrong length).
// RunZoneBoundaries aims the damage at a two-zone decoder's hand-over.
func RunDifferential(t *testing.T, c Reference, ref Reference) {
	t.Helper()
	rng := rand.New(rand.NewSource(15))
	var blocks [][]byte
	for _, src := range Corpus() {
		blocks = append(blocks, src)
	}
	gens := []*datagen.Generator{
		datagen.New(datagen.Enterprise(), 1),
		datagen.New(datagen.LinuxSrc(), 2),
		datagen.New(datagen.Media(), 3),
	}
	nBlocks := 3000
	if testing.Short() {
		nBlocks = 300
	}
	for i := 0; i < nBlocks; i++ {
		var n int
		switch i % 4 {
		case 0:
			n = 1 + rng.Intn(256)
		case 1, 2:
			n = 1 + rng.Intn(5<<10)
		default:
			n = 1 + rng.Intn(70<<10)
		}
		blocks = append(blocks, gens[i%len(gens)].Block(int64(rng.Intn(1<<20))<<12, n, uint32(i)))
	}

	pre := []byte{0xde, 0xad, 0xbe}
	decode := func(what string, stream []byte, origLen int) {
		if d := DiffDecode(c, ref, stream, origLen); d != "" {
			t.Fatalf("%s: %s", what, d)
		}
	}
	damaged := 0
	for bi, src := range blocks {
		want := ref.AppendCompress(nil, src)
		if got := c.AppendCompress(nil, src); !bytes.Equal(got, want) {
			t.Fatalf("block %d (%d B): AppendCompress differs from the reference (%d B vs %d B)",
				bi, len(src), len(got), len(want))
		}
		got := c.AppendCompress(append([]byte(nil), pre...), src)
		if !bytes.Equal(got[:len(pre)], pre) || !bytes.Equal(got[len(pre):], want) {
			t.Fatalf("block %d (%d B): AppendCompress after a prefix differs from the reference", bi, len(src))
		}
		decode("intact stream", want, len(src))
		if len(src) > 8<<10 || len(want) == 0 {
			continue // keep the damaged decodes short
		}
		for k := 0; k < 12; k++ {
			bad := append([]byte(nil), want...)
			origLen := len(src)
			switch k % 4 {
			case 0:
				bad[rng.Intn(len(bad))] ^= 1 << uint(rng.Intn(8))
			case 1:
				bad = bad[:rng.Intn(len(bad))]
			case 2:
				for n := 1 + rng.Intn(4); n > 0; n-- {
					bad = append(bad, byte(rng.Intn(256)))
				}
			default:
				origLen += rng.Intn(9) - 4
				if origLen < 0 {
					origLen = 0
				}
			}
			decode("damaged stream", bad, origLen)
			damaged++
		}
	}
	if !testing.Short() && damaged < 20000 {
		t.Fatalf("only %d damaged streams were compared; want at least 20000", damaged)
	}
}
