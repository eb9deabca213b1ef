package compress_test

import (
	"testing"

	"edc/internal/compress"
	"edc/internal/datagen"
	"edc/internal/race"
)

// TestCompressAllocs pins the steady-state allocation count of the two
// recycled-buffer hot paths for every codec: AppendCompress must not
// allocate at all once its scratch pools are warm, and DecompressAppend
// must not allocate when the destination is pre-sized. A regression here
// re-introduces per-request garbage into the replay pipeline, which is
// exactly what the pooled-scratch design exists to prevent.
func TestCompressAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector perturbs allocation counts (sync.Pool puts are dropped at random)")
	}
	gen := datagen.New(datagen.Enterprise(), 7)
	reg := compress.Default()
	// The 64 KiB block is a region of text (region 0 is already-compressed
	// media at this seed: no codec finds a match in it, and a decode of it
	// is one copy). lzf and gz keep their match tables in pools and carry
	// a base across calls, so they are held to zero at the single-block
	// size too, decoding after a dst prefix, as the pre-sizing decoders
	// must.
	block, small := gen.Block(2<<16, 64<<10, 0), datagen.New(datagen.LinuxSrc(), 7).Block(0, 4<<10, 0)
	cases := []struct {
		name, codec string
		src         []byte
		prefix      int
	}{
		{"lzf", "lzf", block, 3},
		{"lz4", "lz4", block, 0},
		{"gz", "gz", block, 3},
		{"bwz", "bwz", block, 0},
		{"lzf-4KiB", "lzf", small, 3},
		{"gz-4KiB", "gz", small, 3},
	}
	for _, tc := range cases {
		name, src, prefix := tc.name, tc.src, tc.prefix
		c, err := reg.ByName(tc.codec)
		if err != nil {
			t.Fatal(err)
		}
		a := c.(compress.Appender)
		da := c.(compress.DecompressAppender)
		comp := c.Compress(src)
		if len(comp) > len(src)/2 {
			t.Fatalf("%s: %d B compress to %d B: the case needs content with matches", name, len(src), len(comp))
		}

		t.Run(name+"/AppendCompress", func(t *testing.T) {
			buf := a.AppendCompress(nil, src) // warm pools and size the buffer
			allocs := testing.AllocsPerRun(10, func() {
				buf = a.AppendCompress(buf[:0], src)
			})
			if allocs > 0 {
				t.Errorf("AppendCompress: %v allocs/op, want 0", allocs)
			}
		})
		t.Run(name+"/DecompressAppend", func(t *testing.T) {
			buf, err := da.DecompressAppend(make([]byte, prefix), comp, len(src))
			if err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(10, func() {
				buf, err = da.DecompressAppend(buf[:prefix], comp, len(src))
				if err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 0 {
				t.Errorf("DecompressAppend: %v allocs/op, want 0", allocs)
			}
		})
	}
}
