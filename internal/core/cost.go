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

// codecCosts converts (de)compression work into CPU service time for the
// simulator, one entry per codec tag. The simulator charges
// deterministic costs so experiment timing is machine-independent: the
// entries are single-core throughputs of the four codec families on the
// paper's 2010-era Xeon X5680 class of hardware (scaled from this
// repository's measured codec throughput; the relative ordering matches
// Fig. 2: Bzip2/Gzip slow with high ratios, Lzf/Lz4 fast with low
// ratios). The codecs still run for real to obtain true compressed
// sizes; only the *time charged* in virtual time comes from this table.
// TestCostPricesEveryCodec holds every codec of compress.Default() to a
// positive entry; the zero entries are TagNone and unassigned tags.
var codecCosts = [compress.MaxTag + 1]CodecCost{
	compress.TagLZF: {CompressBps: 40e6, DecompressBps: 150e6},
	compress.TagLZ4: {CompressBps: 80e6, DecompressBps: 250e6},
	compress.TagGZ:  {CompressBps: 22e6, DecompressBps: 120e6},
	compress.TagBWZ: {CompressBps: 12e6, DecompressBps: 40e6},
}

// CostOf returns the throughput model of the codec identified by tag:
// zero for TagNone and for a tag no codec is priced at.
func CostOf(tag compress.Tag) CodecCost { return codecCosts[tag] }

// EstimateCost is the fixed CPU charge for the sampling compressibility
// estimator (a few hundred bytes of entropy math).
const EstimateCost = 5 * time.Microsecond

// CompressTime returns the CPU time to compress `bytes` with the codec
// identified by tag. TagNone costs nothing; an unpriced tag panics.
func CompressTime(tag compress.Tag, bytes int64) time.Duration {
	if tag == compress.TagNone || bytes <= 0 {
		return 0
	}
	return bytesTime(bytes, priced(tag).CompressBps)
}

// DecompressTime returns the CPU time to decompress to `origBytes`.
func DecompressTime(tag compress.Tag, origBytes int64) time.Duration {
	if tag == compress.TagNone || origBytes <= 0 {
		return 0
	}
	return bytesTime(origBytes, priced(tag).DecompressBps)
}

// priced returns tag's table entry, panicking on a tag with none.
func priced(tag compress.Tag) CodecCost {
	if tag > compress.MaxTag || codecCosts[tag].CompressBps <= 0 {
		panic(fmt.Sprintf("core: no codec cost for tag %d", tag))
	}
	return codecCosts[tag]
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
