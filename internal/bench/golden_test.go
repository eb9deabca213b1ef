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

// goldenReplay is a cell computed by the experiments' runner.
func goldenReplay(c cell) func() (*edc.Results, error) {
	return func() (*edc.Results, error) {
		res, err := runCells([]cell{c})
		if err != nil {
			return nil, err
		}
		return res[0], nil
	}
}

// goldenServe is a serve run, less what scheduling decides.
func goldenServe(p ServeParams) func() (*edc.Results, error) {
	return func() (*edc.Results, error) {
		sr, err := RunServe(p)
		if err != nil {
			return nil, err
		}
		// Mailbox stalls follow goroutine scheduling, not the run.
		sr.Result.SubmitStalls = 0
		return sr.Result, nil
	}
}

// goldenCells lists every cell. The replay experiments' cells are their
// declared lists at goldenRequests, less the Gzip and Bzip2 cells (but
// for ablation-sd's two, which are all Gzip): the fig8/fig10 sweep and
// fig11 at one and two shards, dedup's and maint's "on" cells on a
// write-heavy and a read-mostly trace at one and two shards, and the
// others at one shard. short keeps one shard count and two traces of
// the sweep, and the one-shard serve cells; every other cell runs only
// in the full set.
func goldenCells(t *testing.T, short bool) []goldenCell {
	shardCounts, one := []int{1, 2}, []int{1}
	light := func(c cell) bool { return c.scheme != edc.SchemeGzip && c.scheme != edc.SchemeBzip2 }
	twoTraces := func(c cell) bool { return c.trace.profile == "Fin1" || c.trace.profile == "Usr_0" }
	sweep := light
	if short {
		shardCounts = one
		sweep = func(c cell) bool { return light(c) && twoTraces(c) }
	}
	type list struct {
		name   string // the golden key's first field
		cells  func(Params) []cell
		shards []int
		keep   func(cell) bool
	}
	lists := []list{{"fig8/fig10", sweepCells(edc.SingleSSD), shardCounts, sweep}}
	if !short {
		lists = append(lists,
			list{"fig11", sweepCells(edc.RAIS5), shardCounts, light},
			list{"dedup", dedupCells, shardCounts, func(c cell) bool { return c.p.Dedup && twoTraces(c) }},
			list{"maint", maintCells, shardCounts, func(c cell) bool { return c.p.Maint && twoTraces(c) }},
			list{"fig12", fig12Cells, one, light},
			list{"ablation-sd", ablationSDCells, one, func(cell) bool { return true }},
			list{"ablation-sampling", ablationSamplingCells, one, light},
			list{"ablation-slots", ablationSlotsCells, one, light},
			list{"ext-cache", extCacheCells, one, light},
			list{"ext-hints", extHintsCells, one, light},
			list{"ext-hdd", extHDDCells, one, light},
			list{"ext-endurance", extEnduranceCells, one, light},
		)
	}
	var cells []goldenCell
	for _, l := range lists {
		for _, shards := range l.shards {
			for _, c := range l.cells(Params{Requests: goldenRequests, Shards: shards}) {
				if l.keep(c) {
					cells = append(cells, goldenCell{l.name, c.workload(), string(c.scheme), shards, goldenReplay(c)})
				}
			}
		}
	}
	if !short {
		qspec, err := workload.ParseSpec(goldenQoSSpec)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range shardCounts {
			// EDC with verify mode on, as a plain replay and as perf's
			// replay-usr0-bg runs it (dedup, maintenance, RAIS5, a 16 MiB
			// cache). Workers 2 gives every pipeline a codec pool queue,
			// so verified reads take the lagged path.
			vf := Params{Requests: goldenRequests, Shards: shards, Workers: 2}
			bg := Params{Requests: goldenRequests, Shards: shards, Workers: 2, Dedup: true, Maint: true, DupRatio: 0.3, DupUniverse: 64}
			bgCell := usr0Trace.cell(bg, edc.SchemeEDC).with("verify+cache=16MiB", edc.WithVerify(), edc.WithCache(16<<20))
			bgCell.backend = edc.RAIS5
			for _, v := range []struct {
				exp string
				c   cell
			}{
				{"verify", fin1Trace.cell(vf, edc.SchemeEDC).with("verify", edc.WithVerify())},
				{"verify", usr0Trace.cell(vf, edc.SchemeEDC).with("verify", edc.WithVerify())},
				{"verify-bg", bgCell},
			} {
				cells = append(cells, goldenCell{v.exp, v.c.trace.profile, string(edc.SchemeEDC), shards, goldenReplay(v.c)})
			}
			// The qos experiment's "shared, qos on" mode: the spec's own
			// QoS config with the victim's meter isolated.
			cfg := qspec.QoSConfig()
			cfg.Isolate = true
			qp := ServeParams{Params: Params{Shards: shards}, Spec: qspec, QoS: cfg}
			cells = append(cells, goldenCell{"qos", "shared-qos-on", string(edc.SchemeEDC), shards, goldenServe(qp)})
		}
	}
	vspec, err := workload.ParseSpec(goldenVerifySpec)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := workload.ParseSpec(goldenServeSpec)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range shardCounts {
		vp := ServeParams{Params: Params{VolumeMiB: goldenVerifyMiB, Seed: 1, Shards: shards, Workers: 2}, Spec: vspec, Clients: 2,
			extra: []edc.Option{edc.WithVerify(), edc.WithCache(goldenVerifyMiB << 20 / 16)}}
		cells = append(cells, goldenCell{"serve", "read-verify", string(edc.SchemeEDC), shards, goldenServe(vp)})
		// Workers 2 gives every shard a codec pool queue whatever the
		// host's core count, so raw writes take the pooled path.
		hp := ServeParams{Params: Params{VolumeMiB: 64, Seed: 1, Shards: shards, Workers: 2}, Spec: spec, Clients: 2}
		cells = append(cells, goldenCell{"serve", "hot-small-2t", string(edc.SchemeEDC), shards, goldenServe(hp)})
	}
	return cells
}

// goldenLine renders one cell: its key, the headline metrics at full
// precision, every tenant's write-through count, and the SHA-256 of the
// whole Report() JSON.
func goldenLine(c goldenCell, res *edc.Results) (string, error) {
	js, err := json.Marshal(res.Report())
	if err != nil {
		return "", err
	}
	var rep struct {
		Requests     int64   `json:"requests"`
		MeanUS       float64 `json:"mean_us"`
		P99US        float64 `json:"p99_us"`
		OrigBytes    int64   `json:"orig_bytes"`
		StoredBytes  int64   `json:"stored_bytes"`
		SDRuns       int64   `json:"sd_runs"`
		WriteThrough int64   `json:"write_through"`
		Erases       int64   `json:"erases"`
		FlashPages   int64   `json:"flash_pages"`
		Tenants      map[string]struct {
			WriteThrough int64 `json:"write_through"`
		} `json:"tenants"`
	}
	if err := json.Unmarshal(js, &rep); err != nil {
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
// serve-read-verify) and fig11's Native, Lzf and EDC cells, each at one
// and two shards, plus, at one shard, the cells of fig12, the ablations,
// ext-cache, ext-hints, ext-hdd and ext-endurance that run neither Gzip
// nor Bzip2 (and ablation-sd's two Gzip cells) — and requires each line
// to match, and every line to belong to a computed cell. The sweep and
// hot-small lines were generated at the commit before the write path
// lagged its raw runs' estimates, the dedup, maint and qos lines at the
// commit before the serve router's shard table became fixed, the verify
// lines at the commit before payload snapshots were recycled, the fig11
// and one-shard experiment lines at the commit before the experiments
// became declared lists of cells. There is no -update flag on purpose:
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
	short := testing.Short() || race.Enabled
	computed := map[string]bool{}
	for _, c := range goldenCells(t, short) {
		computed[c.key()] = true
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
	if short {
		return
	}
	for key := range want {
		if !computed[key] {
			t.Errorf("%s: golden line that no cell computes", key)
		}
	}
}
