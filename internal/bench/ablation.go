package bench

import (
	"fmt"
	"time"

	"edc"
)

func init() {
	registerCells("ablation-sd", "EDC with/without the sequentiality detector", ablationSDCells, renderAblationSD)
	registerCells("ablation-sampling", "EDC with/without the compressibility estimator", ablationSamplingCells, renderAblationSampling)
	registerCells("ablation-slots", "Quantized vs exact-fit slot allocation", ablationSlotsCells, renderAblationSlots)
}

// ablationSDCells quantify the SD module's contribution (Sec. III-E) on
// Prxy_0: almost write-only, so sequential runs survive long enough to
// merge (reads break runs, Fig. 7). The fixed Gzip scheme is used so
// every run is actually compressed (EDC's intensity ladder would write
// the heaviest bursts through and mask the merge effect).
func ablationSDCells(p Params) []cell {
	c := sdTrace.cell(p, edc.SchemeGzip)
	return []cell{c, c.with("nosd", edc.WithoutSD())}
}

func renderAblationSD(_ Params, results []*edc.Results) *Table {
	t := &Table{
		ID:     "ablation-sd",
		Title:  "Sequentiality detector ablation (Prxy_0, single SSD, fixed Gzip)",
		Header: []string{"variant", "runs", "merged writes", "ratio", "mean resp ms", "flash pages written"},
	}
	for i, name := range []string{"with SD", "without SD"} {
		res := results[i]
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%d", res.SDRuns),
			fmt.Sprintf("%d", res.SDMerged),
			f2(res.TrafficRatio()),
			f3(float64(res.MeanResponse()) / float64(time.Millisecond)),
			fmt.Sprintf("%d", res.TotalFlashWrites()),
		})
	}
	t.Notes = append(t.Notes, "Merging improves ratio and cuts flash pages (fewer per-run slot roundings and table overheads) at the cost of buffering delay; the ratio gain depends on the codec window (lzf's 8 KiB window gains little, gz's 32 KiB window more).")
	return t
}

// ablationSamplingCells quantify write-through on incompressible data:
// an EDC without the estimator compresses media-class data anyway.
func ablationSamplingCells(p Params) []cell {
	media := edc.WithDataProfile(edc.DataProfiles()["media"], 6+p.Seed)
	c := prxy0Trace.cell(p, edc.SchemeEDC)
	return []cell{c.with("media", media), c.with("media-noest", media, edc.WithoutEstimator())}
}

func renderAblationSampling(_ Params, results []*edc.Results) *Table {
	t := &Table{
		ID:     "ablation-sampling",
		Title:  "Compressibility estimator ablation (Prxy_0 on a media-class volume, EDC)",
		Header: []string{"variant", "write-through runs", "oversize runs", "ratio", "mean resp ms", "CPU busy ms"},
	}
	for i, name := range []string{"with estimator", "without estimator"} {
		res := results[i]
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%d", res.WriteThrough),
			fmt.Sprintf("%d", res.Oversize),
			f2(res.TrafficRatio()),
			f3(float64(res.MeanResponse()) / float64(time.Millisecond)),
			f1(float64(res.CPU.BusyTime) / float64(time.Millisecond)),
		})
	}
	t.Notes = append(t.Notes, "Without sampling, CPU is burned compressing incompressible blocks for no space gain (the paper's motivation for write-through).")
	return t
}

// ablationSlotsCells compare the paper's 25/50/75/100% quantized slots
// with exact-fit allocation.
func ablationSlotsCells(p Params) []cell {
	c := slotsTrace.cell(p, edc.SchemeEDC)
	return []cell{c, c.with("exact", edc.WithExactSlots())}
}

func renderAblationSlots(_ Params, results []*edc.Results) *Table {
	t := &Table{
		ID:     "ablation-slots",
		Title:  "Slot quantization ablation (Fin1, single SSD, EDC)",
		Header: []string{"variant", "stored MiB", "ratio", "peak slot MiB", "free-list size classes", "mean resp ms"},
	}
	for i, name := range []string{"quantized 25/50/75/100%", "exact-fit slots"} {
		res := results[i]
		t.Rows = append(t.Rows, []string{
			name,
			f1(float64(res.StoredBytes) / (1 << 20)),
			f2(res.TrafficRatio()),
			f1(float64(res.PeakSlotBytes) / (1 << 20)),
			fmt.Sprintf("%d", res.AllocClasses),
			f3(float64(res.MeanResponse()) / float64(time.Millisecond)),
		})
	}
	t.Notes = append(t.Notes, "Exact-fit stores slightly less but explodes the number of distinct slot sizes — the fragmentation the paper's quantization avoids (Sec. III-C).")
	return t
}
