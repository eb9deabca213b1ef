package compress_test

import (
	"errors"
	"runtime"
	"testing"

	"edc/internal/compress"
	"edc/internal/compress/bwz"
	"edc/internal/compress/gz"
	"edc/internal/compress/lz4x"
	"edc/internal/compress/lzf"
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
		comp := c.AppendCompress(nil, src)
		if len(comp) > len(src)/2 {
			t.Fatalf("%s: %d B compress to %d B: the case needs content with matches", name, len(src), len(comp))
		}

		t.Run(name+"/AppendCompress", func(t *testing.T) {
			buf := c.AppendCompress(nil, src) // warm pools and size the buffer
			allocs := testing.AllocsPerRun(10, func() {
				buf = c.AppendCompress(buf[:0], src)
			})
			if allocs > 0 {
				t.Errorf("AppendCompress: %v allocs/op, want 0", allocs)
			}
		})
		t.Run(name+"/DecompressAppend", func(t *testing.T) {
			buf, err := c.DecompressAppend(make([]byte, prefix), comp, len(src))
			if err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(10, func() {
				buf, err = c.DecompressAppend(buf[:prefix], comp, len(src))
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

// hostileOrigLen is the length a hostile caller claims: 3 840 MiB.
const hostileOrigLen = 0xF0000000

// TestHostileOrigLenAllocatesByInput decodes, per codec, a two-byte
// payload with an origLen of 3 840 MiB: the error is the one the claim
// always earned — two bytes cannot stand for that much — and no decoder
// reserves the claimed size to find it out.
func TestHostileOrigLenAllocatesByInput(t *testing.T) {
	for _, tc := range []struct {
		name    string
		codec   compress.Codec
		payload []byte
		want    error
	}{
		{"none", compress.None, []byte{'a', 'b'}, compress.ErrSizeMismatch},
		{"lzf", lzf.New(), []byte{0x00, 'a'}, compress.ErrSizeMismatch}, // one literal
		{"gz", gz.New(), []byte{0x00, 0x00}, compress.ErrCorrupt},       // code lengths cut short
		{"gz-stored", gz.New(), []byte{0x01, 'a'}, compress.ErrSizeMismatch},
		{"lz4", lz4x.New(), []byte{0x10, 'a'}, compress.ErrSizeMismatch}, // one literal
		{"bwz", bwz.New(), []byte{0x00, 0x00}, compress.ErrCorrupt},      // primary index cut short
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := tc.codec.DecompressAppend(nil, tc.payload, hostileOrigLen)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: DecompressAppend %v; want %v", tc.name, err, tc.want)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("%s: %d B allocated decoding a %d-byte payload; want under 1 MiB", tc.name, got, len(tc.payload))
		}
	}
}
