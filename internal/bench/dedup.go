package bench

import (
	"fmt"
	"time"

	"edc"
)

func init() {
	registerCells("dedup", "Content-addressed dedup: space and latency with duplicate-heavy payloads", dedupCells, renderDedup)
}

// dedupCells replay EDC over the four standard traces twice — dedup
// off, then on — against a duplicate-heavy payload profile (half the
// content regions are clones from a small pool, the shape of VM images
// or container layers), unless Params sets its own.
func dedupCells(p Params) []cell {
	p = dedupParams(p)
	off, on := p, p
	off.Dedup, on.Dedup = false, true
	return pairCells(off, on)
}

// dedupParams is p with the experiment's default duplication.
func dedupParams(p Params) Params {
	if p.DupRatio == 0 {
		p.DupRatio, p.DupUniverse = 0.5, 8
	}
	return p
}

// renderDedup reports the live slot footprint side by side, the hit
// rate the content index achieved, and the latency cost of
// fingerprinting every flushed run.
func renderDedup(p Params, results []*edc.Results) *Table {
	t := &Table{
		ID:    "dedup",
		Title: fmt.Sprintf("EDC live slot bytes without/with dedup (single SSD, dup ratio %.0f%%)", dedupParams(p).DupRatio*100),
		Header: []string{"trace", "live MiB off", "live MiB on", "saved %",
			"hits", "hit rate %", "saved MiB", "mean off ms", "mean on ms", "p99 on ms"},
	}
	for i, name := range traceOrder {
		base, dd := results[2*i], results[2*i+1]
		saved := base.LiveSlotBytes - dd.LiveSlotBytes
		pct := 0.0
		if base.LiveSlotBytes > 0 {
			pct = float64(saved) / float64(base.LiveSlotBytes) * 100
		}
		t.Rows = append(t.Rows, []string{
			name,
			f2(float64(base.LiveSlotBytes) / (1 << 20)),
			f2(float64(dd.LiveSlotBytes) / (1 << 20)),
			f2(pct),
			fmt.Sprintf("%d", dd.DedupHits),
			f1(dd.DedupHitRate() * 100),
			f2(float64(dd.DedupBytesSaved) / (1 << 20)),
			f3(float64(base.MeanResponse()) / float64(time.Millisecond)),
			f3(float64(dd.MeanResponse()) / float64(time.Millisecond)),
			f3(float64(dd.Resp.Percentile(99)) / float64(time.Millisecond)),
		})
	}
	t.Notes = append(t.Notes,
		"A dedup hit skips estimation, compression, and slot allocation entirely, so on duplicate-heavy payloads the on-column mean can beat the off-column despite the per-run fingerprint cost.",
		"saved MiB counts slot bytes hits avoided allocating over the whole run (DedupBytesSaved); live MiB compares the final footprint, which also reflects overwrites and unrefs.",
		"The paper's EDC has no dedup stage; this experiment quantifies what a content index in front of the elastic codec ladder adds on clone-heavy workloads.")
	return t
}
