package bench

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"edc"
	"edc/internal/compress"
)

func init() {
	single, rais5 := sweepCells(edc.SingleSSD), sweepCells(edc.RAIS5)
	registerCells("fig8", "Compression ratio by scheme (Fig. 8)", single,
		evalTable("fig8", "Compression ratio normalized to Native (higher is better)"))
	registerCells("fig9", "Composite ratio/response-time metric (Fig. 9)", single,
		evalTable("fig9", "Ratio/response-time composite normalized to Native (higher is better)"))
	registerCells("fig10", "Response time by scheme, single SSD (Fig. 10)", single,
		evalTable("fig10", "Mean response time normalized to Native, single SSD (lower is better)"))
	registerCells("fig11", "Response time by scheme, RAIS5 (Fig. 11)", rais5,
		evalTable("fig11", "Mean response time normalized to Native, RAIS5 x5 (lower is better)"))
	registerCells("fig12", "Sensitivity to the Gzip IOPS threshold (Fig. 12)", fig12Cells, renderFig12)
}

// sweepCells is the evaluation sweep on backend: every scheme over every
// standard trace, trace-major.
func sweepCells(backend edc.BackendKind) func(Params) []cell {
	return func(p Params) []cell {
		var cells []cell
		for _, tr := range standardTraces {
			for _, s := range edc.Schemes() {
				c := tr.cell(p, s)
				c.backend = backend
				cells = append(cells, c)
			}
		}
		return cells
	}
}

// evalTable renders the requested figure from the sweep's results.
func evalTable(fig, title string) func(Params, []*edc.Results) *Table {
	return func(_ Params, sweep []*edc.Results) *Table {
		schemes := edc.Schemes()
		cell := func(ti int, s edc.Scheme) *edc.Results {
			return sweep[ti*len(schemes)+slices.Index(schemes, s)]
		}
		t := &Table{ID: fig, Title: title}
		t.Header = append([]string{"scheme"}, traceOrder...)
		t.Header = append(t.Header, "average")
		for _, s := range schemes {
			row := []string{string(s)}
			var sum float64
			for ti := range traceOrder {
				res, nat := cell(ti, s), cell(ti, edc.SchemeNative)
				var v float64
				switch fig {
				case "fig8":
					v = res.TrafficRatio() / nat.TrafficRatio()
				case "fig9":
					v = res.Composite() / nat.Composite()
				default: // fig10 / fig11
					v = float64(res.MeanResponse()) / float64(nat.MeanResponse())
				}
				sum += v
				row = append(row, f2(v))
			}
			row = append(row, f2(sum/float64(len(traceOrder))))
			t.Rows = append(t.Rows, row)
		}
		if fig == "fig8" {
			var space []string
			for ti, tn := range traceOrder {
				r := cell(ti, edc.SchemeEDC).TrafficRatio()
				space = append(space, fmt.Sprintf("%s %.1f%%", tn, (1-1/r)*100))
			}
			t.Notes = append(t.Notes, "EDC space savings: "+strings.Join(space, ", ")+
				" (paper: up to 38.7%, avg 33.7%)")
		}
		if fig == "fig10" {
			lzfGain := make([]string, 0, len(traceOrder))
			for ti, tn := range traceOrder {
				e := float64(cell(ti, edc.SchemeEDC).MeanResponse())
				l := float64(cell(ti, edc.SchemeLzf).MeanResponse())
				lzfGain = append(lzfGain, fmt.Sprintf("%s %.1f%%", tn, (1-e/l)*100))
			}
			t.Notes = append(t.Notes, "EDC response-time reduction vs Lzf: "+strings.Join(lzfGain, ", ")+
				" (paper: up to 61.4%, avg 36.7%)")
		}
		return t
	}
}

// fig12Ceilings are the Gzip ceilings fig12 sweeps EDC through.
var fig12Ceilings = []float64{0.001, 100, 200, 400, 800, 1600, 3200, 5e8}

// fig12Label is a ceiling's row label.
func fig12Label(ceil float64) string {
	switch {
	case ceil >= 5e8:
		return "inf"
	case ceil < 1:
		return "0"
	}
	return fmt.Sprintf("%.0f", ceil)
}

// fig12Cells sweeps EDC's Gzip ceiling on the Fin2 trace, the Lzf
// ceiling held at infinity.
func fig12Cells(p Params) []cell {
	var cells []cell
	for _, ceil := range fig12Ceilings {
		cells = append(cells, fin2Trace.cell(p, edc.SchemeEDC).with("gz="+fig12Label(ceil), edc.WithElasticThresholds(ceil, 1e9)))
	}
	return cells
}

// renderFig12 reports how the share of runs compressed with Gzip trades
// ratio against response time (the paper finds ~20% a good balance).
func renderFig12(_ Params, results []*edc.Results) *Table {
	t := &Table{
		ID:     "fig12",
		Title:  "EDC sensitivity to the Lzf/Gzip threshold on Fin2 (single SSD)",
		Header: []string{"gz ceiling cIOPS", "gz runs %", "ratio", "mean resp ms", "p99 ms"},
	}
	for i, res := range results {
		var runs int64
		for _, n := range res.RunsByTag {
			runs += n
		}
		gzShare := 0.0
		if runs > 0 {
			gzShare = float64(res.RunsByTag[compress.TagGZ]) / float64(runs) * 100
		}
		t.Rows = append(t.Rows, []string{
			fig12Label(fig12Ceilings[i]),
			f1(gzShare),
			f2(res.TrafficRatio()),
			f3(float64(res.MeanResponse()) / float64(time.Millisecond)),
			f3(float64(res.Resp.Percentile(99)) / float64(time.Millisecond)),
		})
	}
	t.Notes = append(t.Notes,
		"The Lzf ceiling is held at infinity so only the Gzip share varies (paper Sec. IV-B: ~20% Gzip balances ratio and response time).")
	return t
}
