package core

import (
	"fmt"
	"time"

	"edc/internal/compress"
	"edc/internal/sim"
)

// CodecCost is the CPU throughput model for one codec.
type CodecCost struct {
	CompressBps   float64 // bytes per second
	DecompressBps float64
}

// CostModel converts (de)compression work into CPU service time for the
// simulator. The simulator charges deterministic, configurable costs so
// experiment timing is machine-independent: defaults are calibrated to
// the measured throughput class of the codecs in this repository on
// 2010s-era server cores (cf. the paper's Fig. 2: Bzip2/Gzip slow with
// high ratios, Lzf/Lz4 fast with low ratios). The codecs still run for
// real to obtain true compressed sizes; only the *time charged* in
// virtual time comes from this table.
type CostModel map[compress.Tag]CodecCost

// DefaultCostModel returns the calibrated defaults: single-core
// throughputs of the four codec families on the paper's 2010-era Xeon
// X5680 class of hardware (scaled from this repository's measured codec
// throughput; the relative ordering matches Fig. 2).
func DefaultCostModel() CostModel {
	return CostModel{
		compress.TagLZF: {CompressBps: 40e6, DecompressBps: 150e6},
		compress.TagLZ4: {CompressBps: 80e6, DecompressBps: 250e6},
		compress.TagGZ:  {CompressBps: 22e6, DecompressBps: 120e6},
		compress.TagBWZ: {CompressBps: 12e6, DecompressBps: 40e6},
	}
}

// EstimateCost is the fixed CPU charge for the sampling compressibility
// estimator (a few hundred bytes of entropy math).
const EstimateCost = 5 * time.Microsecond

// CompressTime returns the CPU time to compress `bytes` with the codec
// identified by tag. TagNone costs nothing.
func (cm CostModel) CompressTime(tag compress.Tag, bytes int64) time.Duration {
	if tag == compress.TagNone || bytes <= 0 {
		return 0
	}
	c, ok := cm[tag]
	if !ok || c.CompressBps <= 0 {
		panic(fmt.Sprintf("core: no compress cost for tag %d", tag))
	}
	return bytesTime(bytes, c.CompressBps)
}

// DecompressTime returns the CPU time to decompress to `origBytes`.
func (cm CostModel) DecompressTime(tag compress.Tag, origBytes int64) time.Duration {
	if tag == compress.TagNone || origBytes <= 0 {
		return 0
	}
	c, ok := cm[tag]
	if !ok || c.DecompressBps <= 0 {
		panic(fmt.Sprintf("core: no decompress cost for tag %d", tag))
	}
	return bytesTime(origBytes, c.DecompressBps)
}

// Validate checks that every listed codec has positive throughputs and
// that every codec of compress.Default() is priced: a policy may pick
// any of them, and charging an unpriced one panics mid-run.
func (cm CostModel) Validate() error {
	for tag, c := range cm {
		if c.CompressBps <= 0 || c.DecompressBps <= 0 {
			return fmt.Errorf("core: cost model for tag %d has non-positive throughput", tag)
		}
	}
	for tag := compress.TagNone + 1; tag <= compress.MaxTag; tag++ {
		c, err := compress.Default().ByTag(tag)
		if _, priced := cm[tag]; err == nil && !priced {
			return fmt.Errorf("core: cost model leaves codec %s (tag %d) unpriced", c.Name(), tag)
		}
	}
	return nil
}

// bytesTime is the service time of n bytes through a stage that sustains
// bps bytes per second.
func bytesTime(n int64, bps float64) time.Duration {
	return time.Duration(float64(n) / bps * float64(time.Second))
}

// hostTime runs done once the cpu station has served svc, or at once when
// nothing was charged (uncompressed work).
func hostTime(cpu *sim.Station, svc time.Duration, done func(_, _ time.Duration)) {
	if svc > 0 {
		cpu.Submit(sim.Job{Service: svc, Done: done})
		return
	}
	done(0, 0)
}
