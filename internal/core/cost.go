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

// Validate checks that every listed codec has positive throughputs.
func (cm CostModel) Validate() error {
	for tag, c := range cm {
		if c.CompressBps <= 0 || c.DecompressBps <= 0 {
			return fmt.Errorf("core: cost model for tag %d has non-positive throughput", tag)
		}
	}
	return nil
}

// bytesTime is the service time of n bytes through a stage that sustains
// bps bytes per second.
func bytesTime(n int64, bps float64) time.Duration {
	return time.Duration(float64(n) / bps * float64(time.Second))
}

// codecCharge decides where the modelled time of a codec call lands: on
// the host CPU station (the paper's software engine) or, with
// Options.Offload, on the device operation that carries the data, at the
// in-device engine's tag-independent throughput.
type codecCharge struct {
	host    CostModel
	offload bool
	device  CodecCost // the in-device engine; read only when offload
}

// time splits the cost of (de)compressing n uncompressed bytes under tag
// into host-CPU service time and extra device-operation time. At most
// one is non-zero; TagNone is free on both sides.
func (c *codecCharge) time(tag compress.Tag, n int64, decompress bool) (cpu, extra time.Duration) {
	switch {
	case tag == compress.TagNone || n <= 0:
		return 0, 0
	case c.offload && decompress:
		return 0, bytesTime(n, c.device.DecompressBps)
	case c.offload:
		return 0, bytesTime(n, c.device.CompressBps)
	case decompress:
		return c.host.DecompressTime(tag, n), 0
	default:
		return c.host.CompressTime(tag, n), 0
	}
}

// compress is the charge for compressing n bytes with the codec of tag.
func (c *codecCharge) compress(tag compress.Tag, n int64) (cpu, extra time.Duration) {
	return c.time(tag, n, false)
}

// decompress is the charge for decompressing back to n bytes.
func (c *codecCharge) decompress(tag compress.Tag, n int64) (cpu, extra time.Duration) {
	return c.time(tag, n, true)
}

// hostTime runs done once the cpu station has served svc, or at once when
// nothing was charged to the host (offloaded or uncompressed work).
func hostTime(cpu sim.Server, svc time.Duration, done func(_, _ time.Duration)) {
	if svc > 0 {
		cpu.Submit(sim.Job{Service: svc, Done: done})
		return
	}
	done(0, 0)
}
