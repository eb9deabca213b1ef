package codectest

import (
	"fmt"
	"sync"
	"testing"

	"edc/internal/compress"
	"edc/internal/datagen"
)

// BenchSizes are the block sizes the codec benchmarks cover: a single
// 4 KiB block, the 16 KiB extent the serve read path fetches, the SD
// merge grain, and a large sequential run.
var BenchSizes = []struct {
	Name string
	N    int
}{
	{"4KiB", 4 << 10},
	{"16KiB", 16 << 10},
	{"64KiB", 64 << 10},
	{"1MiB", 1 << 20},
}

// BenchProfiles are the four payload models of the evaluation, from
// highly compressible (linux-src) to incompressible (media).
func BenchProfiles() []datagen.Profile {
	return []datagen.Profile{
		datagen.LinuxSrc(),
		datagen.FirefoxBin(),
		datagen.Enterprise(),
		datagen.Media(),
	}
}

const (
	benchRegion  = 64 << 10 // datagen's content-class grain
	benchRegions = 32       // regions one benchmark cell walks
)

// BenchBlocks returns n-byte blocks of p that together start in or span
// benchRegions consecutive content regions, so a cell sees the profile's
// class mixture and not the one class region 0 happens to hold (for three
// of the four profiles at this seed that class is incompressible, and a
// cell drawn from it alone measures memmove).
func BenchBlocks(p datagen.Profile, n int) [][]byte {
	gen := datagen.New(p, 7)
	span := (n + benchRegion - 1) / benchRegion // regions one block covers
	blocks := make([][]byte, max(1, benchRegions/span))
	for i := range blocks {
		blocks[i] = gen.Block(int64(i*span)*benchRegion, n, 0)
	}
	return blocks
}

// BenchStreams returns BenchBlocks(p, n) compressed with c.
func BenchStreams(c compress.Codec, p datagen.Profile, n int) [][]byte {
	blocks := BenchBlocks(p, n)
	for i, src := range blocks {
		blocks[i] = c.Compress(src)
	}
	return blocks
}

// RunDecodeBench measures c.DecompressAppend into a recycled buffer over
// every (profile, size) cell of the corpus, each row followed by the same
// streams through ref (the …/ref rows): the kept reference decoder of a
// codec whose decode loop was rewritten.
func RunDecodeBench(b *testing.B, c compress.Codec, ref compress.DecompressAppender) {
	da := c.(compress.DecompressAppender)
	for _, p := range BenchProfiles() {
		for _, sz := range BenchSizes {
			// Built by the first row that runs, so a filtered run does not
			// compress the cells it skips.
			cell := sync.OnceValue(func() [][]byte { return BenchStreams(c, p, sz.N) })
			run := func(name string, d compress.DecompressAppender) {
				b.Run(name, func(b *testing.B) {
					comps := cell()
					b.ReportAllocs()
					b.SetBytes(int64(sz.N * len(comps)))
					buf := make([]byte, 0, sz.N)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						for _, comp := range comps {
							var err error
							if buf, err = d.DecompressAppend(buf[:0], comp, sz.N); err != nil {
								b.Fatal(err)
							}
						}
					}
				})
			}
			name := fmt.Sprintf("%s/%s/%s", c.Name(), p.Name, sz.Name)
			run(name, da)
			run(name+"/ref", ref)
		}
	}
}

// RunEncodeBench measures c.AppendCompress into a recycled buffer over
// every (profile, size) cell of the corpus, each row followed by the same
// blocks through ref (the …/ref rows): the kept reference encoder of a
// codec whose match finder or entropy stage was rewritten.
func RunEncodeBench(b *testing.B, c compress.Codec, ref compress.Appender) {
	ac := c.(compress.Appender)
	for _, p := range BenchProfiles() {
		for _, sz := range BenchSizes {
			cell := sync.OnceValue(func() [][]byte { return BenchBlocks(p, sz.N) })
			run := func(name string, e compress.Appender) {
				b.Run(name, func(b *testing.B) {
					blocks := cell()
					b.ReportAllocs()
					b.SetBytes(int64(sz.N * len(blocks)))
					buf := make([]byte, 0, sz.N+1)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						for _, src := range blocks {
							buf = e.AppendCompress(buf[:0], src)
						}
					}
				})
			}
			name := fmt.Sprintf("%s/%s/%s", c.Name(), p.Name, sz.Name)
			run(name, ac)
			run(name+"/ref", ref)
		}
	}
}
