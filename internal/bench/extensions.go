package bench

import (
	"fmt"
	"time"

	"edc"
	"edc/internal/compress"
	"edc/internal/core"
)

func init() {
	registerCells("ext-cache", "Host DRAM cache in front of EDC (the paper's upper-layer buffer)", extCacheCells, renderExtCache)
	registerCells("ext-hints", "Content-aware EDC+ vs stock EDC (paper future work #1)", extHintsCells, renderExtHints)
	registerCells("ext-endurance", "Flash endurance by scheme (paper future work #4)", extEnduranceCells, renderExtEndurance)
	registerCells("ext-energy", "Energy estimate by scheme (paper future work #3)", fin1Cells, renderExtEnergy)
	registerCells("ext-hdd", "EDC on an HDD backend (paper future work #2)", extHDDCells, renderExtHDD)
	registerCells("ext-tail", "Tail latency percentiles by scheme", fin1Cells, renderExtTail)
}

// extCacheSizes are ext-cache's cache sizes in MiB.
var extCacheSizes = []int64{0, 4, 16, 64}

// extCacheCells vary the host DRAM read cache in front of EDC on the
// read-heavy Fin2 trace: hits skip both the flash read and the
// decompression, so the cache hides most of the compressed-read cost on
// hot data.
func extCacheCells(p Params) []cell {
	var cells []cell
	for _, mib := range extCacheSizes {
		cells = append(cells, cacheTrace.cell(p, edc.SchemeEDC).with(fmt.Sprintf("cache=%dMiB", mib), edc.WithCache(mib<<20)))
	}
	return cells
}

func renderExtCache(_ Params, results []*edc.Results) *Table {
	t := &Table{
		ID:     "ext-cache",
		Title:  "EDC under a host DRAM read cache (Fin2, single SSD)",
		Header: []string{"cache MiB", "hit rate %", "mean resp ms", "p99 ms", "flash reads"},
	}
	for i, res := range results {
		var reads int64
		for _, d := range res.Devices {
			reads += d.HostPagesRead
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", extCacheSizes[i]),
			f1(res.Cache.HitRate() * 100),
			f3(float64(res.MeanResponse()) / float64(time.Millisecond)),
			f3(float64(res.Resp.Percentile(99)) / float64(time.Millisecond)),
			fmt.Sprintf("%d", reads),
		})
	}
	t.Notes = append(t.Notes,
		"The Fin2 hot set (15% of the volume takes 75% of accesses) fits in tens of MiB; a hit costs 10 us of DRAM instead of flash read + decompression.")
	return t
}

// extHintsCells compare stock EDC with the content-aware EDC+ on a
// source-tree-like volume: during idle periods EDC+ upgrades highly
// compressible runs to Bzip2-class compression, buying extra space at a
// small latency cost on exactly the data that deserves it.
func extHintsCells(p Params) []cell {
	linux := edc.WithDataProfile(edc.DataProfiles()["linux-src"], 8+p.Seed)
	return []cell{hintsTrace.cell(p, edc.SchemeEDC).with("linux-src", linux), hintsTrace.cell(p, edc.SchemeEDCPlus).with("linux-src", linux)}
}

func renderExtHints(_ Params, results []*edc.Results) *Table {
	t := &Table{
		ID:     "ext-hints",
		Title:  "Stock EDC vs content-aware EDC+ (Fin2 on a linux-src volume)",
		Header: []string{"scheme", "ratio", "mean resp ms", "p99 ms", "bwz runs"},
	}
	for _, res := range results {
		t.Rows = append(t.Rows, []string{
			res.Scheme,
			f2(res.TrafficRatio()),
			f3(float64(res.MeanResponse()) / float64(time.Millisecond)),
			f3(float64(res.Resp.Percentile(99)) / float64(time.Millisecond)),
			fmt.Sprintf("%d", res.RunsByTag[compress.TagBWZ]),
		})
	}
	t.Notes = append(t.Notes,
		"Future work #1 implemented: the estimator's ratio doubles as a content hint; only idle-period, highly-compressible runs pay for Bzip2.")
	return t
}

// extEnduranceCells compare erase counts and write amplification per
// scheme under GC pressure: the reliability benefit the paper claims but
// does not measure. A small device and an extended write-only trace make
// the volume wrap, so garbage collection actually runs.
func extEnduranceCells(p Params) []cell {
	cfg := singleSSDConfig()
	cfg.Blocks = 512 // 128 MiB raw: sustained writes force GC
	var cells []cell
	for _, s := range edc.Schemes() {
		c := enduranceTrace.cell(p, s).with("ssd=128MiB", edc.WithSSDConfig(cfg))
		c.trace.n, c.trace.volume = 3*p.requests(), 96<<20
		cells = append(cells, c)
	}
	return cells
}

func renderExtEndurance(_ Params, results []*edc.Results) *Table {
	t := &Table{
		ID:     "ext-endurance",
		Title:  "Flash wear per scheme under GC pressure (Prxy_0, 128 MiB device)",
		Header: []string{"scheme", "flash pages written", "erases", "write amp", "vs Native erases"},
	}
	var natErases int64
	for _, res := range results {
		var host, flash, erases int64
		for _, d := range res.Devices {
			host += d.HostPagesWritten
			flash += d.FlashPagesWritten
			erases += d.Erases
		}
		if res.Scheme == string(edc.SchemeNative) {
			natErases = erases
		}
		wa := 0.0
		if host > 0 {
			wa = float64(flash) / float64(host)
		}
		vs := "-"
		if natErases > 0 {
			vs = f2(float64(erases) / float64(natErases))
		}
		t.Rows = append(t.Rows, []string{
			res.Scheme,
			fmt.Sprintf("%d", flash),
			fmt.Sprintf("%d", erases),
			f2(wa),
			vs,
		})
	}
	t.Notes = append(t.Notes,
		"Fewer programmed pages -> fewer erase cycles -> longer flash lifetime (paper Sec. III-A objective 3).")
	return t
}

// fin1Cells are the sweep's single-SSD cells on Fin1, one per scheme.
func fin1Cells(p Params) []cell {
	return sweepCells(edc.SingleSSD)(p)[:len(edc.Schemes())]
}

// renderExtEnergy estimates per-scheme energy: compression compute vs
// the data movement it saves.
func renderExtEnergy(_ Params, results []*edc.Results) *Table {
	m := core.DefaultEnergyModel()
	t := &Table{
		ID:     "ext-energy",
		Title:  "Energy estimate per scheme on Fin1 (SLC NAND + CPU model)",
		Header: []string{"scheme", "CPU J", "flash J", "transfer J", "total J", "J per GB written"},
	}
	for _, res := range results {
		b := core.EstimateEnergy(res, m)
		t.Rows = append(t.Rows, []string{
			res.Scheme,
			f2(b.CPUJ),
			f2(b.ReadJ + b.ProgramJ + b.EraseJ),
			f2(b.TransferJ),
			f2(b.TotalJ()),
			f1(core.EnergyPerGB(res, m)),
		})
	}
	t.Notes = append(t.Notes,
		"The paper's dichotomy: compression burns CPU joules but removes flash program/transfer joules; heavy codecs overshoot.")
	return t
}

// extHDDCells replay a 64 KiB mixed stream on the analytical disk model:
// positioning dominates small random I/O, so compression's transfer
// savings matter less than on flash — and heavy codecs still queue. The
// stream is one the disk can sustain: bursty traces saturate a ~100-IOPS
// disk and flatten every scheme into the queueing ceiling.
func extHDDCells(p Params) []cell {
	var cells []cell
	for _, s := range edc.Schemes() {
		c := hddTrace.cell(p, s)
		c.trace.n, c.backend = p.requests()/2, edc.HDD
		cells = append(cells, c)
	}
	return cells
}

func renderExtHDD(_ Params, results []*edc.Results) *Table {
	t := &Table{
		ID:     "ext-hdd",
		Title:  "Schemes on a 7200 RPM disk backend (64 KiB mixed stream at 60 IOPS)",
		Header: []string{"scheme", "mean resp ms", "p99 ms", "ratio", "vs Native"},
	}
	natMean := results[0].MeanResponse() // edc.Schemes() starts with Native
	for _, res := range results {
		t.Rows = append(t.Rows, []string{
			res.Scheme,
			f3(float64(res.MeanResponse()) / float64(time.Millisecond)),
			f3(float64(res.Resp.Percentile(99)) / float64(time.Millisecond)),
			f2(res.TrafficRatio()),
			f2(float64(res.MeanResponse()) / float64(natMean)),
		})
	}
	t.Notes = append(t.Notes,
		"On disks, seek+rotation dominate small I/O, so compression's size reduction buys less latency than on flash; space savings are unchanged.")
	return t
}

// renderExtTail reports the full latency distribution per scheme — tail
// percentiles tell the queueing story the paper's mean-only Fig. 10
// compresses away: heavy codecs hurt the p99/p999 far more than the
// mean.
func renderExtTail(_ Params, results []*edc.Results) *Table {
	t := &Table{
		ID:     "ext-tail",
		Title:  "Response-time percentiles on Fin1 (ms)",
		Header: []string{"scheme", "p50", "p90", "p99", "p99.9", "max-ish (p99.99)"},
	}
	ms := func(d time.Duration) string { return f3(float64(d) / float64(time.Millisecond)) }
	for _, res := range results {
		t.Rows = append(t.Rows, []string{
			res.Scheme,
			ms(res.Resp.Percentile(50)),
			ms(res.Resp.Percentile(90)),
			ms(res.Resp.Percentile(99)),
			ms(res.Resp.Percentile(99.9)),
			ms(res.Resp.Percentile(99.99)),
		})
	}
	t.Notes = append(t.Notes,
		"The mean understates fixed-codec damage: bursts inflate the tail first. EDC's burst skipping shows up as a flat p99.")
	return t
}
