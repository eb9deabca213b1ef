package compress_test

import (
	"fmt"
	"testing"

	"edc/internal/compress"
	_ "edc/internal/compress/bwz"
	"edc/internal/compress/codectest"
	_ "edc/internal/compress/gz"
	_ "edc/internal/compress/lz4x"
	_ "edc/internal/compress/lzf"
)

func benchCodecs(b *testing.B) []compress.Codec {
	b.Helper()
	reg := compress.Default()
	var out []compress.Codec
	for _, name := range []string{"lzf", "lz4", "gz", "bwz"} {
		c, err := reg.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, c)
	}
	return out
}

// benchCells runs fn once per (codec, profile, size) cell as the
// sub-benchmark codec/profile/size, over that cell's blocks: one op is
// one walk over all of them (codectest.BenchBlocks: some thirty content
// regions, so that a cell prices the profile's mixture and not one
// class). With decode set, fn gets the cell's compressed streams instead.
func benchCells(b *testing.B, decode bool, fn func(b *testing.B, c compress.Codec, n int, blocks [][]byte)) {
	for _, c := range benchCodecs(b) {
		for _, p := range codectest.BenchProfiles() {
			for _, sz := range codectest.BenchSizes {
				b.Run(fmt.Sprintf("%s/%s/%s", c.Name(), p.Name, sz.Name), func(b *testing.B) {
					blocks := codectest.BenchBlocks(p, sz.N)
					if decode {
						blocks = codectest.BenchStreams(c, p, sz.N)
					}
					b.ReportAllocs()
					b.SetBytes(int64(sz.N * len(blocks)))
					b.ResetTimer()
					fn(b, c, sz.N, blocks)
				})
			}
		}
	}
}

// BenchmarkAppendCompress measures codec throughput and allocations over
// every (codec, profile, size) cell on the recycled-buffer path used by
// the replay pipeline: steady-state it should run at zero or near-zero
// allocs/op.
func BenchmarkAppendCompress(b *testing.B) {
	benchCells(b, false, func(b *testing.B, c compress.Codec, _ int, blocks [][]byte) {
		var buf []byte
		for i := 0; i < b.N; i++ {
			for _, src := range blocks {
				buf = c.AppendCompress(buf[:0], src)
			}
		}
	})
}

// BenchmarkDecompressAppend measures the recycled-buffer read path used
// by verify-mode replay: steady-state it should run at zero allocs/op.
// lzf and gz pair these rows with their kept reference decoders in their
// own packages (BenchmarkDecode, the …/ref rows).
func BenchmarkDecompressAppend(b *testing.B) {
	benchCells(b, true, func(b *testing.B, c compress.Codec, n int, comps [][]byte) {
		var buf []byte
		for i := 0; i < b.N; i++ {
			for _, comp := range comps {
				var err error
				if buf, err = c.DecompressAppend(buf[:0], comp, n); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
