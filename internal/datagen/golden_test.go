package datagen

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// goldenDigest is the SHA-256 over goldenGrid's blocks as the math/rand-
// backed generator of PR 19 (commit 7e4087d) produced them. It was
// computed there, before the generator was rewritten, and is not
// regenerated: a byte moving anywhere in the grid is a payload change
// that re-baselines every table in the repo, not a test to update.
const goldenDigest = "32eebe34f59dcef26167783a91426c53caaa20f27e000cef4bc2b631813dac88"

// goldenGrid hashes a fixed grid of blocks: every stock profile plus a
// duplicated one, offsets that are aligned, unaligned, region-straddling
// and far into the volume, sizes from one byte to more than a region,
// and five overwrite versions.
func goldenGrid() string {
	profiles := []Profile{
		Enterprise(), LinuxSrc(), FirefoxBin(), Media(),
		Enterprise().WithDup(0.3, 64),
	}
	seeds := []int64{7, -3, 1 << 40, 0, 42}
	offsets := []int64{
		0, 4096, 513, classGrain - 100, classGrain - 1,
		5*classGrain + 12345, 1 << 30, 1<<40 + 7,
	}
	sizes := []int{1, 33, 512, 4096, 16384, 65536, 100000}
	h := sha256.New()
	var buf []byte
	for i, p := range profiles {
		g := New(p, seeds[i])
		for _, off := range offsets {
			for _, size := range sizes {
				for ver := uint32(0); ver < 5; ver++ {
					buf = g.AppendBlock(buf[:0], off, size, ver)
					h.Write(buf)
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestGoldenDigest(t *testing.T) {
	if got := goldenGrid(); got != goldenDigest {
		t.Fatalf("payload bytes moved: grid digest %s, want %s", got, goldenDigest)
	}
}
