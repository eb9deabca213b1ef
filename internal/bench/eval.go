package bench

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"edc"
	"edc/internal/compress"
	"edc/internal/trace"
)

func init() {
	register("fig8", "Compression ratio by scheme (Fig. 8)", func(p Params) ([]*Table, error) {
		return evalTables(p, edc.SingleSSD, "fig8")
	})
	register("fig9", "Composite ratio/response-time metric (Fig. 9)", func(p Params) ([]*Table, error) {
		return evalTables(p, edc.SingleSSD, "fig9")
	})
	register("fig10", "Response time by scheme, single SSD (Fig. 10)", func(p Params) ([]*Table, error) {
		return evalTables(p, edc.SingleSSD, "fig10")
	})
	register("fig11", "Response time by scheme, RAIS5 (Fig. 11)", func(p Params) ([]*Table, error) {
		return evalTables(p, edc.RAIS5, "fig11")
	})
	register("fig12", "Sensitivity to the Gzip IOPS threshold (Fig. 12)", runFig12)
}

// evalKey caches full scheme x trace sweeps: fig8/9/10 share one sweep.
type evalKey struct {
	p       Params
	backend edc.BackendKind
}

var (
	evalMu    sync.Mutex
	evalCache = map[evalKey]map[string]map[edc.Scheme]*edc.Results{}
)

// runEval replays every scheme over every standard trace and returns
// results[traceName][scheme].
func runEval(p Params, backend edc.BackendKind) (map[string]map[edc.Scheme]*edc.Results, error) {
	key := evalKey{p: p, backend: backend}
	evalMu.Lock()
	if r, ok := evalCache[key]; ok {
		evalMu.Unlock()
		return r, nil
	}
	evalMu.Unlock()

	traces, err := standardTraces(p)
	if err != nil {
		return nil, err
	}
	out := make(map[string]map[edc.Scheme]*edc.Results, len(traces))
	for _, tr := range traces {
		byScheme := make(map[edc.Scheme]*edc.Results, 5)
		for _, s := range edc.Schemes() {
			res, err := sweepCell(p, backend, tr, s)
			if err != nil {
				return nil, err
			}
			byScheme[s] = res
		}
		out[tr.Name] = byScheme
	}
	evalMu.Lock()
	evalCache[key] = out
	evalMu.Unlock()
	return out, nil
}

// sweepCell is one cell of runEval's sweep: scheme s over the standard
// trace tr.
func sweepCell(p Params, backend edc.BackendKind, tr *trace.Trace, s edc.Scheme) (*edc.Results, error) {
	res, err := replayScheme(p, backend, tr, s, nil)
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", s, tr.Name, err)
	}
	return res, nil
}

// replayScheme runs one (scheme, trace, backend) cell.
func replayScheme(p Params, backend edc.BackendKind, tr *trace.Trace, s edc.Scheme, extra []edc.Option) (*edc.Results, error) {
	return edc.Replay(tr, p.volume(), append(p.options(s, backend, 5+p.Seed), extra...)...)
}

// ReplayCell runs one cell of the fig8/fig10 sweep on its own — the
// named standard workload (edc.WorkloadByName) under scheme s on the
// single-SSD model, same trace and payload seeds — with extra options
// (observers, say) on top. edcbench -replay is this call, so its report
// is the figure's cell.
func ReplayCell(p Params, name string, s edc.Scheme, extra ...edc.Option) (*edc.Results, error) {
	prof, err := edc.WorkloadByName(name, p.volume())
	if err != nil {
		return nil, err
	}
	tr, err := standardTrace(p, slices.Index(traceOrder, prof.Name))
	if err != nil {
		return nil, err
	}
	return replayScheme(p, edc.SingleSSD, tr, s, extra)
}

// traceOrder is the paper's presentation order.
var traceOrder = []string{"Fin1", "Fin2", "Usr_0", "Prxy_0"}

// evalTables renders the requested figure from the shared sweep.
func evalTables(p Params, backend edc.BackendKind, fig string) ([]*Table, error) {
	results, err := runEval(p, backend)
	if err != nil {
		return nil, err
	}
	var t *Table
	switch fig {
	case "fig8":
		t = &Table{ID: fig, Title: "Compression ratio normalized to Native (higher is better)"}
	case "fig9":
		t = &Table{ID: fig, Title: "Ratio/response-time composite normalized to Native (higher is better)"}
	case "fig10":
		t = &Table{ID: fig, Title: "Mean response time normalized to Native, single SSD (lower is better)"}
	case "fig11":
		t = &Table{ID: fig, Title: "Mean response time normalized to Native, RAIS5 x5 (lower is better)"}
	default:
		return nil, fmt.Errorf("bench: unknown eval figure %q", fig)
	}
	t.Header = append([]string{"scheme"}, traceOrder...)
	t.Header = append(t.Header, "average")
	for _, s := range edc.Schemes() {
		row := []string{string(s)}
		var sum float64
		for _, tn := range traceOrder {
			res := results[tn][s]
			nat := results[tn][edc.SchemeNative]
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
		for _, tn := range traceOrder {
			r := results[tn][edc.SchemeEDC].TrafficRatio()
			space = append(space, fmt.Sprintf("%s %.1f%%", tn, (1-1/r)*100))
		}
		t.Notes = append(t.Notes, "EDC space savings: "+joinComma(space)+
			" (paper: up to 38.7%, avg 33.7%)")
	}
	if fig == "fig10" {
		lzfGain := make([]string, 0, len(traceOrder))
		for _, tn := range traceOrder {
			e := float64(results[tn][edc.SchemeEDC].MeanResponse())
			l := float64(results[tn][edc.SchemeLzf].MeanResponse())
			lzfGain = append(lzfGain, fmt.Sprintf("%s %.1f%%", tn, (1-e/l)*100))
		}
		t.Notes = append(t.Notes, "EDC response-time reduction vs Lzf: "+joinComma(lzfGain)+
			" (paper: up to 61.4%, avg 36.7%)")
	}
	return []*Table{t}, nil
}

func joinComma(ss []string) string {
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += ", "
		}
		out += s
	}
	return out
}

// runFig12 sweeps EDC's Gzip ceiling on the Fin2 trace, reporting how
// the share of runs compressed with Gzip trades ratio against response
// time (the paper finds ~20% a good balance).
func runFig12(p Params) ([]*Table, error) {
	profiles := standardProfilesByName(p)
	tr, err := profiles["Fin2"].GenerateN(p.requests(), 1001+p.Seed)
	if err != nil {
		return nil, err
	}
	ceilings := []float64{0.001, 100, 200, 400, 800, 1600, 3200, 5e8}
	t := &Table{
		ID:     "fig12",
		Title:  "EDC sensitivity to the Lzf/Gzip threshold on Fin2 (single SSD)",
		Header: []string{"gz ceiling cIOPS", "gz runs %", "ratio", "mean resp ms", "p99 ms"},
	}
	for _, ceil := range ceilings {
		res, err := replayScheme(p, edc.SingleSSD, tr, edc.SchemeEDC,
			[]edc.Option{edc.WithElasticThresholds(ceil, 1e9)})
		if err != nil {
			return nil, err
		}
		var runs int64
		for _, n := range res.RunsByTag {
			runs += n
		}
		gzShare := 0.0
		if runs > 0 {
			gzShare = float64(res.RunsByTag[compress.TagGZ]) / float64(runs) * 100
		}
		label := fmt.Sprintf("%.0f", ceil)
		if ceil >= 5e8 {
			label = "inf"
		} else if ceil < 1 {
			label = "0"
		}
		t.Rows = append(t.Rows, []string{
			label,
			f1(gzShare),
			f2(res.TrafficRatio()),
			f3(float64(res.MeanResponse()) / float64(time.Millisecond)),
			f3(float64(res.Resp.Percentile(99)) / float64(time.Millisecond)),
		})
	}
	t.Notes = append(t.Notes,
		"The Lzf ceiling is held at infinity so only the Gzip share varies (paper Sec. IV-B: ~20% Gzip balances ratio and response time).")
	return []*Table{t}, nil
}

// standardProfilesByName returns the four profiles keyed by trace name.
func standardProfilesByName(p Params) map[string]edc.WorkloadProfile {
	out := make(map[string]edc.WorkloadProfile, 4)
	for _, prof := range edc.StandardWorkloads(p.volume()) {
		out[prof.Name] = prof
	}
	return out
}
