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

// goldenCells lists every cell. short keeps one shard count and two
// traces of the replay sweep, and the one-shard serve cell.
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
// trace, and a two-tenant serve run shaped like serve-hot-small, each at
// one and two shards — and requires each line to match. The file was
// generated once, at the commit before the write path lagged its raw
// runs' estimates, and there is no -update flag on purpose: regenerating
// it is a declared re-baseline, and its diff names the cells that moved.
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
