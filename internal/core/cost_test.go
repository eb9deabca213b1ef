package core

import (
	"testing"
	"time"

	"edc/internal/compress"
)

// TestCodecChargeMatchesOldBranches pins the one codec-time charge to
// what the write path, the read path and the maintainer each used to
// spell out: host mode bills the CostModel time to the CPU and nothing to
// the device; offload bills nothing to the CPU and uncompressed-bytes /
// engine-throughput to the device operation, whatever the codec; TagNone
// is free on both sides in both modes.
func TestCodecChargeMatchesOldBranches(t *testing.T) {
	cost := DefaultCostModel()
	engine := CodecCost{CompressBps: 150e6, DecompressBps: 300e6}
	oldFormula := func(n int64, bps float64) time.Duration {
		return time.Duration(float64(n) / bps * float64(time.Second))
	}
	tags := []compress.Tag{compress.TagNone, compress.TagLZF, compress.TagLZ4, compress.TagGZ, compress.TagBWZ}
	for _, offload := range []bool{false, true} {
		c := codecCharge{host: cost, offload: offload, device: engine}
		for _, tag := range tags {
			for _, n := range []int64{BlockSize, 16 * BlockSize, 65536 + BlockSize} {
				var wantEncCPU, wantEncExtra, wantDecCPU, wantDecExtra time.Duration
				switch {
				case tag == compress.TagNone:
				case offload:
					wantEncExtra = oldFormula(n, engine.CompressBps)
					wantDecExtra = oldFormula(n, engine.DecompressBps)
				default:
					wantEncCPU = oldFormula(n, cost[tag].CompressBps)
					wantDecCPU = oldFormula(n, cost[tag].DecompressBps)
				}
				if cpu, extra := c.compress(tag, n); cpu != wantEncCPU || extra != wantEncExtra {
					t.Errorf("offload=%v compress(tag %d, %d) = (%v, %v), want (%v, %v)",
						offload, tag, n, cpu, extra, wantEncCPU, wantEncExtra)
				}
				if cpu, extra := c.decompress(tag, n); cpu != wantDecCPU || extra != wantDecExtra {
					t.Errorf("offload=%v decompress(tag %d, %d) = (%v, %v), want (%v, %v)",
						offload, tag, n, cpu, extra, wantDecCPU, wantDecExtra)
				}
			}
		}
	}
	// Offload never consults the host table: a codec it does not price is
	// a panic on the host and a plain engine charge on the device.
	bare := codecCharge{host: CostModel{}, offload: true, device: engine}
	if cpu, extra := bare.compress(compress.TagGZ, BlockSize); cpu != 0 || extra != oldFormula(BlockSize, engine.CompressBps) {
		t.Errorf("offload with an empty host model: (%v, %v)", cpu, extra)
	}
}

// TestOffloadCostDefaults checks NewDevice charges offloaded codec work
// at the stock engine's throughput and bills the host only without
// Offload.
func TestOffloadCostDefaults(t *testing.T) {
	if got := newTestRig(t, Options{}).dev.se.charge; got.offload {
		t.Fatalf("charge = %+v, want host-side", got)
	}
	d := newTestRig(t, Options{Offload: true}).dev
	if got := d.se.charge; !got.offload || got.device != DefaultOffloadCost() {
		t.Fatalf("charge = %+v, want offload at %+v", got, DefaultOffloadCost())
	}
}
