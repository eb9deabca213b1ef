package core

import (
	"testing"
	"time"

	"edc/internal/compress"
)

// TestCodecChargeMatchesOldBranches pins the codec-time charge the write
// path, the read path and the maintainer each bill to the host CPU: the
// cost table's time, uncompressed bytes over the codec's throughput,
// with TagNone free.
func TestCodecChargeMatchesOldBranches(t *testing.T) {
	oldFormula := func(n int64, bps float64) time.Duration {
		return time.Duration(float64(n) / bps * float64(time.Second))
	}
	tags := []compress.Tag{compress.TagNone, compress.TagLZF, compress.TagLZ4, compress.TagGZ, compress.TagBWZ}
	for _, tag := range tags {
		for _, n := range []int64{BlockSize, 16 * BlockSize, 65536 + BlockSize} {
			var wantEnc, wantDec time.Duration
			if tag != compress.TagNone {
				wantEnc = oldFormula(n, CostOf(tag).CompressBps)
				wantDec = oldFormula(n, CostOf(tag).DecompressBps)
			}
			if got := CompressTime(tag, n); got != wantEnc {
				t.Errorf("CompressTime(tag %d, %d) = %v, want %v", tag, n, got, wantEnc)
			}
			if got := DecompressTime(tag, n); got != wantDec {
				t.Errorf("DecompressTime(tag %d, %d) = %v, want %v", tag, n, got, wantDec)
			}
		}
	}
}

// TestCostPricesEveryCodec holds the cost table to the registry: a
// policy may pick any codec of compress.Default(), and charging one
// without a price panics mid-run, so every one has positive compress and
// decompress throughputs.
func TestCostPricesEveryCodec(t *testing.T) {
	reg := defaultTestRegistry(t)
	for tag := compress.TagNone + 1; tag <= compress.MaxTag; tag++ {
		c, err := reg.ByTag(tag)
		if err != nil {
			continue // no codec at this tag
		}
		if cc := CostOf(tag); cc.CompressBps <= 0 || cc.DecompressBps <= 0 {
			t.Errorf("codec %s (tag %d) priced at %+v", c.Name(), tag, cc)
		}
	}
}
