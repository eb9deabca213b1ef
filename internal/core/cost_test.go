package core

import (
	"testing"
	"time"

	"edc/internal/compress"
)

// TestCodecChargeMatchesOldBranches pins the codec-time charge the write
// path, the read path and the maintainer each bill to the host CPU: the
// CostModel time, uncompressed bytes over the codec's throughput, with
// TagNone free.
func TestCodecChargeMatchesOldBranches(t *testing.T) {
	cost := DefaultCostModel()
	oldFormula := func(n int64, bps float64) time.Duration {
		return time.Duration(float64(n) / bps * float64(time.Second))
	}
	tags := []compress.Tag{compress.TagNone, compress.TagLZF, compress.TagLZ4, compress.TagGZ, compress.TagBWZ}
	for _, tag := range tags {
		for _, n := range []int64{BlockSize, 16 * BlockSize, 65536 + BlockSize} {
			var wantEnc, wantDec time.Duration
			if tag != compress.TagNone {
				wantEnc = oldFormula(n, cost[tag].CompressBps)
				wantDec = oldFormula(n, cost[tag].DecompressBps)
			}
			if got := cost.CompressTime(tag, n); got != wantEnc {
				t.Errorf("CompressTime(tag %d, %d) = %v, want %v", tag, n, got, wantEnc)
			}
			if got := cost.DecompressTime(tag, n); got != wantDec {
				t.Errorf("DecompressTime(tag %d, %d) = %v, want %v", tag, n, got, wantDec)
			}
		}
	}
}
