package bench

import (
	"fmt"
	"slices"
	"sync"

	"edc"
	"edc/internal/trace"
	"edc/internal/workload"
)

// traceSeed is one row of the seed table: a workload profile and the
// generator seed its trace is drawn at, offset by Params.Seed.
type traceSeed struct {
	profile string // a standard workload name, or hddMix
	seed    int64
}

// The seed table: every trace a replay experiment replays. fig12 replays
// the standard Fin2 and ablation-sampling the standard Prxy_0.
var (
	fin1Trace      = traceSeed{"Fin1", 1000}   // standard
	fin2Trace      = traceSeed{"Fin2", 1001}   // standard; fig12
	usr0Trace      = traceSeed{"Usr_0", 1002}  // standard
	prxy0Trace     = traceSeed{"Prxy_0", 1003} // standard; ablation-sampling
	sdTrace        = traceSeed{"Prxy_0", 1002} // ablation-sd
	slotsTrace     = traceSeed{"Fin1", 1004}   // ablation-slots
	hddTrace       = traceSeed{hddMix, 1005}   // ext-hdd
	enduranceTrace = traceSeed{"Prxy_0", 1007} // ext-endurance
	hintsTrace     = traceSeed{"Fin2", 1008}   // ext-hints
	cacheTrace     = traceSeed{"Fin2", 1009}   // ext-cache

	// standardTraces are the paper's four evaluation traces in its
	// presentation order (traceOrder).
	standardTraces = []traceSeed{fin1Trace, fin2Trace, usr0Trace, prxy0Trace}
)

// traceOrder is the paper's presentation order.
var traceOrder = []string{"Fin1", "Fin2", "Usr_0", "Prxy_0"}

// hddMix is ext-hdd's profile (see extHDDCells).
const hddMix = "hdd-mix"

// traceKey names one generated trace; it keys the trace cache.
type traceKey struct {
	traceSeed
	n      int   // requests
	volume int64 // bytes, the replay's volume too
}

// cellKey is everything that decides a cell's results, and keys the
// result cache.
type cellKey struct {
	trace   traceKey
	scheme  edc.Scheme
	backend edc.BackendKind
	p       Params
	variant string // names the cell's extra options
}

// cell is one replay: a trace under a scheme on a backend, configured by
// Params.options and then its extra options.
type cell struct {
	cellKey
	extra []edc.Option
}

// at is trace t at p's seed and size.
func (t traceSeed) at(p Params) traceKey {
	return traceKey{traceSeed{t.profile, t.seed + p.Seed}, p.requests(), p.volume()}
}

// cell is scheme s over trace t at p's seed and size on the single SSD.
func (t traceSeed) cell(p Params, s edc.Scheme) cell {
	return cell{cellKey: cellKey{trace: t.at(p), scheme: s, backend: edc.SingleSSD, p: p}}
}

// with adds extra options, named by variant.
func (c cell) with(variant string, extra ...edc.Option) cell {
	c.variant, c.extra = variant, extra
	return c
}

// workload names c's trace, and its variant after a slash.
func (c cell) workload() string {
	if c.variant == "" {
		return c.trace.profile
	}
	return c.trace.profile + "/" + c.variant
}

// The cache: traces by traceKey, results by cellKey, each computed once
// per process.
var traces, results sync.Map

// generate returns k's trace.
func (k traceKey) generate() (*trace.Trace, error) {
	if tr, ok := traces.Load(k); ok {
		return tr.(*trace.Trace), nil
	}
	prof, err := edc.WorkloadByName(k.profile, k.volume)
	if k.profile == hddMix {
		prof, err = workload.Uniform(hddMix, 65536, 60, 0.5, k.volume), nil
	}
	if err != nil {
		return nil, err
	}
	tr, err := prof.GenerateN(k.n, k.seed)
	if err != nil {
		return nil, err
	}
	traces.Store(k, tr)
	return tr, nil
}

// replay runs c with observers (or any option that leaves its results
// alone) on top, bypassing the cache.
func (c cell) replay(observers ...edc.Option) (*edc.Results, error) {
	tr, err := c.trace.generate()
	if err != nil {
		return nil, err
	}
	opts := append(c.p.options(c.scheme, c.backend, 5+c.p.Seed), c.extra...)
	return edc.Replay(tr, c.trace.volume, append(opts, observers...)...)
}

// runCells returns the results of cells, in order. A cell replayed
// before, by any experiment, comes from the cache.
func runCells(cells []cell) ([]*edc.Results, error) {
	out := make([]*edc.Results, len(cells))
	for i, c := range cells {
		if res, ok := results.Load(c.cellKey); ok {
			out[i] = res.(*edc.Results)
			continue
		}
		res, err := c.replay()
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", c.scheme, c.workload(), err)
		}
		results.Store(c.cellKey, res)
		out[i] = res
	}
	return out, nil
}

// ReplayCell runs one cell of the fig8/fig10 sweep on its own — the
// named standard workload (edc.WorkloadByName) under scheme s on the
// single-SSD model — with extra options (observers, say) on top. A
// scheme the sweep does not run gets the cell the sweep would have.
// edcbench -replay is this call, so its report is the figure's cell.
func ReplayCell(p Params, name string, s edc.Scheme, extra ...edc.Option) (*edc.Results, error) {
	prof, err := edc.WorkloadByName(name, p.volume())
	if err != nil {
		return nil, err
	}
	return standardTraces[slices.Index(traceOrder, prof.Name)].cell(p, s).replay(extra...)
}
