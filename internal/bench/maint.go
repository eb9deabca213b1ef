package bench

import (
	"fmt"
	"time"

	"edc"
)

func init() {
	registerCells("maint", "Background recompression: space before/after maintenance", maintCells, renderMaint)
}

// maintCells replay EDC over the four standard traces twice —
// maintenance off, then on with the default policy. The off cells are
// the fig8 sweep's EDC cells unless Params turns maintenance on.
func maintCells(p Params) []cell {
	off, on := p, p
	off.Maint, on.Maint = false, true
	return pairCells(off, on)
}

// pairCells is EDC over the standard traces, each at off and then at on.
func pairCells(off, on Params) []cell {
	var cells []cell
	for _, tr := range standardTraces {
		cells = append(cells, tr.cell(off, edc.SchemeEDC), tr.cell(on, edc.SchemeEDC))
	}
	return cells
}

// renderMaint reports the live slot footprint of each run side by side.
// The savings come from cold lzf/uncompressed extents recompressed to gz
// during idle windows plus free-list compaction; the p99 columns bound
// the foreground cost of the background I/O.
func renderMaint(_ Params, results []*edc.Results) *Table {
	t := &Table{
		ID:    "maint",
		Title: "EDC live slot bytes before/after background maintenance (single SSD)",
		Header: []string{"trace", "live MiB off", "live MiB on", "saved KiB", "saved %",
			"reloc cold", "reloc hot", "compactions", "p99 off ms", "p99 on ms"},
	}
	for i, name := range traceOrder {
		base, maint := results[2*i], results[2*i+1]
		saved := base.LiveSlotBytes - maint.LiveSlotBytes
		pct := 0.0
		if base.LiveSlotBytes > 0 {
			pct = float64(saved) / float64(base.LiveSlotBytes) * 100
		}
		t.Rows = append(t.Rows, []string{
			name,
			f2(float64(base.LiveSlotBytes) / (1 << 20)),
			f2(float64(maint.LiveSlotBytes) / (1 << 20)),
			f1(float64(saved) / 1024),
			f2(pct),
			fmt.Sprintf("%d", maint.MaintCold),
			fmt.Sprintf("%d", maint.MaintHot),
			fmt.Sprintf("%d", maint.MaintCompactions),
			f3(float64(base.Resp.Percentile(99)) / float64(time.Millisecond)),
			f3(float64(maint.Resp.Percentile(99)) / float64(time.Millisecond)),
		})
	}
	t.Notes = append(t.Notes,
		"Maintenance runs only in idle windows (calculated IOPS at or below the gz ceiling), so savings concentrate in bursty traces whose burst-written lzf/uncompressed extents go cold.",
		"The paper fixes each extent's codec at write time; this experiment quantifies what the missing background pass leaves on the table.")
	return t
}
