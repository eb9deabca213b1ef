package bench

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"edc"
	"edc/internal/race"
	"edc/internal/workload"
)

// goldenRequests is the replay cells' trace length: long enough that
// every scheme stores, reads and write-throughs, short enough that the
// whole file regenerates in seconds.
const goldenRequests = 2000

// goldenServeSpec is shaped like perf's serve-hot-small: two tagged
// tenants offer open-loop 4 KiB operations, 90/10 read/write, at 12 000
// ops/s each. Every shard then meters above the policy's 7 000
// calculated-IOPS lzf ceiling, so the writes are stored raw and only the
// estimator's write-through verdict depends on their content.
const goldenServeSpec = "tenant=a d=500ms qps=12000 rw=0.9 ad=poisson rkd=zipfian-0.99 wkd=uniform bs=4096\n" +
	"tenant=b d=500ms qps=12000 rw=0.9 ad=poisson rkd=zipfian-0.99 wkd=uniform bs=4096"

// goldenVerifySpec is shaped like perf's serve-read-verify, cut short: a
// write-only step fills the goldenVerifyMiB volume with 16 KiB runs, then
// open-loop 16 KiB reads, 90/10 read/write, mostly miss a cache of 1/16
// of the volume and decode, regenerate and compare what they fetch.
const goldenVerifySpec = "d=300ms qps=2000 rw=0 ad=poisson rkd=uniform wkd=uniform bs=16384\n" +
	"d=300ms qps=1000 rw=0.9 ad=poisson rkd=uniform wkd=uniform bs=16384"

const goldenVerifyMiB = 4

// goldenCell is one line of testdata/results.golden: its key (experiment,
// workload, scheme, shards) and how to compute its results.
type goldenCell struct {
	exp, workload, scheme string
	shards                int
	run                   func() (*edc.Results, error)
}

func (c goldenCell) key() string {
	return fmt.Sprintf("%s %s %s shards=%d", c.exp, c.workload, c.scheme, c.shards)
}

// goldenQoSSpec is the qos experiment's shared spec, victim and
// aggressor, with each step cut from 4 s to 500 ms.
var goldenQoSSpec = strings.ReplaceAll(qosVictimLine+"\n"+qosAggrLine, "d=4s", "d=500ms")

// goldenCells lists every cell. short keeps one shard count and two
// traces of the replay sweep, and the one-shard serve cells; the dedup,
// maint, verify replay and qos cells run only in the full set.
func goldenCells(t *testing.T, short bool) []goldenCell {
	var cells []goldenCell
	shardCounts := []int{1, 2}
	traces := traceOrder
	if short {
		shardCounts, traces = []int{1}, []string{"Fin1", "Usr_0"}
	}
	for _, shards := range shardCounts {
		p := Params{Requests: goldenRequests, Shards: shards}
		all, err := standardTraces(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range traces {
			tr := all[slices.Index(traceOrder, name)]
			for _, s := range []edc.Scheme{edc.SchemeNative, edc.SchemeLzf, edc.SchemeEDC} {
				cells = append(cells, goldenCell{"fig8/fig10", name, string(s), shards, func() (*edc.Results, error) {
					return sweepCell(p, edc.SingleSSD, tr, s)
				}})
			}
		}
	}
	if !short {
		for _, shards := range shardCounts {
			// The dedup and maint experiments' "on" cells, as runDedup and
			// runMaint call replayScheme, on a write-heavy and a read-mostly
			// trace.
			dd := Params{Requests: goldenRequests, Shards: shards, Dedup: true, DupRatio: 0.5, DupUniverse: 8}
			mt := Params{Requests: goldenRequests, Shards: shards, Maint: true}
			for _, c := range []struct {
				exp string
				p   Params
			}{{"dedup", dd}, {"maint", mt}} {
				all, err := standardTraces(c.p)
				if err != nil {
					t.Fatal(err)
				}
				for _, name := range []string{"Fin1", "Usr_0"} {
					p, tr := c.p, all[slices.Index(traceOrder, name)]
					cells = append(cells, goldenCell{c.exp, name, string(edc.SchemeEDC), shards, func() (*edc.Results, error) {
						return replayScheme(p, edc.SingleSSD, tr, edc.SchemeEDC, nil)
					}})
				}
			}
		}
		for _, shards := range shardCounts {
			// EDC with verify mode on, as a plain replay and as perf's
			// replay-usr0-bg runs it (dedup, maintenance, RAIS5, a 16 MiB
			// cache). Workers 2 gives every pipeline a codec pool queue,
			// so verified reads take the lagged path.
			vf := Params{Requests: goldenRequests, Shards: shards, Workers: 2}
			bg := Params{Requests: goldenRequests, Shards: shards, Workers: 2, Dedup: true, Maint: true, DupRatio: 0.3, DupUniverse: 64}
			for _, c := range []struct {
				exp, trace string
				p          Params
				backend    edc.BackendKind
				extra      []edc.Option
			}{
				{"verify", "Fin1", vf, edc.SingleSSD, []edc.Option{edc.WithVerify()}},
				{"verify", "Usr_0", vf, edc.SingleSSD, []edc.Option{edc.WithVerify()}},
				{"verify-bg", "Usr_0", bg, edc.RAIS5, []edc.Option{edc.WithVerify(), edc.WithCache(16 << 20)}},
			} {
				all, err := standardTraces(c.p)
				if err != nil {
					t.Fatal(err)
				}
				tr := all[slices.Index(traceOrder, c.trace)]
				cells = append(cells, goldenCell{c.exp, c.trace, string(edc.SchemeEDC), shards, func() (*edc.Results, error) {
					return replayScheme(c.p, c.backend, tr, edc.SchemeEDC, c.extra)
				}})
			}
		}
		qspec, err := workload.ParseSpec(goldenQoSSpec)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range shardCounts {
			// The qos experiment's "shared, qos on" mode: the spec's own
			// QoS config with the victim's meter isolated.
			cfg := qspec.QoSConfig()
			cfg.Isolate = true
			p := ServeParams{Params: Params{Shards: shards}, Spec: qspec, QoS: cfg}
			cells = append(cells, goldenCell{"qos", "shared-qos-on", string(edc.SchemeEDC), shards, func() (*edc.Results, error) {
				sr, err := RunServe(p)
				if err != nil {
					return nil, err
				}
				// Mailbox stalls follow goroutine scheduling, not the run.
				sr.Result.SubmitStalls = 0
				return sr.Result, nil
			}})
		}
	}
	vspec, err := workload.ParseSpec(goldenVerifySpec)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range shardCounts {
		p := ServeParams{Params: Params{VolumeMiB: goldenVerifyMiB, Seed: 1, Shards: shards, Workers: 2}, Spec: vspec, Clients: 2,
			extra: []edc.Option{edc.WithVerify(), edc.WithCache(goldenVerifyMiB << 20 / 16)}}
		cells = append(cells, goldenCell{"serve", "read-verify", string(edc.SchemeEDC), shards, func() (*edc.Results, error) {
			sr, err := RunServe(p)
			if err != nil {
				return nil, err
			}
			// Mailbox stalls follow goroutine scheduling, not the run.
			sr.Result.SubmitStalls = 0
			return sr.Result, nil
		}})
	}
	spec, err := workload.ParseSpec(goldenServeSpec)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range shardCounts {
		// Workers 2 gives every shard a codec pool queue whatever the
		// host's core count, so raw writes take the pooled path.
		p := ServeParams{Params: Params{VolumeMiB: 64, Seed: 1, Shards: shards, Workers: 2}, Spec: spec, Clients: 2}
		cells = append(cells, goldenCell{"serve", "hot-small-2t", string(edc.SchemeEDC), shards, func() (*edc.Results, error) {
			sr, err := RunServe(p)
			if err != nil {
				return nil, err
			}
			// Mailbox stalls follow goroutine scheduling, not the run.
			sr.Result.SubmitStalls = 0
			return sr.Result, nil
		}})
	}
	return cells
}

// goldenLine renders one cell: its key, the headline metrics at full
// precision, every tenant's write-through count, and the SHA-256 of the
// whole Report() JSON.
func goldenLine(c goldenCell, res *edc.Results) (string, error) {
	rep := res.Report()
	js, err := json.Marshal(rep)
	if err != nil {
		return "", err
	}
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	var b strings.Builder
	fmt.Fprintf(&b, "%s requests=%d mean_us=%s p99_us=%s orig_bytes=%d stored_bytes=%d runs=%d write_through=%d erases=%d flash_pages=%d",
		c.key(), rep.Requests, g(rep.MeanUS), g(rep.P99US), rep.OrigBytes, rep.StoredBytes,
		rep.SDRuns, rep.WriteThrough, rep.Erases, rep.FlashPages)
	names := make([]string, 0, len(rep.Tenants))
	for name := range rep.Tenants {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		fmt.Fprintf(&b, " wt[%s]=%d", name, rep.Tenants[name].WriteThrough)
	}
	fmt.Fprintf(&b, " report_sha256=%x", sha256.Sum256(js))
	return b.String(), nil
}

// TestResultsGolden recomputes the result cells of testdata/results.golden
// — the fig8/fig10 sweep's Native, Lzf and EDC cells on every standard
// trace, a two-tenant serve run shaped like serve-hot-small, EDC with
// dedup and with maintenance on Fin1 and Usr_0, the qos experiment's
// "shared, qos on" serve run, and verify mode (replays of Fin1 and Usr_0,
// Usr_0 shaped like replay-usr0-bg, a serve run shaped like
// serve-read-verify), each at one and two shards — and requires each
// line to match. The sweep and hot-small lines were generated at the
// commit before the write path lagged its raw runs' estimates, the
// dedup, maint and qos lines at the commit before the serve router's
// shard table became fixed, the verify lines at the commit before
// payload snapshots were recycled. There is no -update flag on purpose:
// regenerating the file is a declared re-baseline, and its diff names
// the cells that moved.
// -short, and the race detector, run the subset goldenCells names.
func TestResultsGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/results.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		f := strings.Fields(line)
		if len(f) < 4 {
			t.Fatalf("malformed golden line %q", line)
		}
		want[strings.Join(f[:4], " ")] = line
	}
	for _, c := range goldenCells(t, testing.Short() || race.Enabled) {
		res, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.key(), err)
		}
		got, err := goldenLine(c, res)
		if err != nil {
			t.Fatal(err)
		}
		if w, ok := want[c.key()]; !ok {
			t.Errorf("%s: no golden line; computed:\n%s", c.key(), got)
		} else if got != w {
			t.Errorf("%s moved:\n golden: %s\n now:    %s", c.key(), w, got)
		}
	}
}
