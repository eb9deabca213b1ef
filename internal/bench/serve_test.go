package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"edc/internal/cache"
	"edc/internal/sim"
	"edc/internal/ssd"
	"edc/internal/workload"
)

// serveTestSpec is a short two-step spec: a light step then a 4x rate
// step, mixed read/write, zipfian reads.
func serveTestSpec(t *testing.T) workload.Spec {
	t.Helper()
	spec, err := workload.ParseSpec("d=200ms qps=500 rw=0.5 rkd=zipfian-0.99\nqps=2000")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestRunServe drives a short open-loop run and checks the per-step
// accounting against the merged pipeline Results.
func TestRunServe(t *testing.T) {
	sr, err := RunServe(ServeParams{
		Params:  Params{VolumeMiB: 64},
		Spec:    serveTestSpec(t),
		Clients: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Steps) != 2 {
		t.Fatalf("steps=%d, want 2", len(sr.Steps))
	}
	var total, reads, writes int64
	for i, ss := range sr.Steps {
		if ss.Ops <= 0 {
			t.Fatalf("step %d: no ops", i)
		}
		if ss.Reads+ss.Writes != ss.Ops {
			t.Fatalf("step %d: reads %d + writes %d != ops %d", i, ss.Reads, ss.Writes, ss.Ops)
		}
		if ss.AchievedQPS <= 0 {
			t.Fatalf("step %d: achieved qps %g", i, ss.AchievedQPS)
		}
		if ss.Mean <= 0 || ss.P99 < ss.P50 {
			t.Fatalf("step %d: implausible latency mean=%v p50=%v p99=%v", i, ss.Mean, ss.P50, ss.P99)
		}
		total += ss.Ops
		reads += ss.Reads
		writes += ss.Writes
	}
	// Step 2 offers 4x step 1's rate over the same duration.
	if lo, hi := 3*sr.Steps[0].Ops, 5*sr.Steps[0].Ops; sr.Steps[1].Ops < lo || sr.Steps[1].Ops > hi {
		t.Fatalf("step ops %d vs %d: want roughly 4x", sr.Steps[0].Ops, sr.Steps[1].Ops)
	}
	if sr.Result.Requests != total {
		t.Fatalf("pipeline requests=%d, driver counted %d", sr.Result.Requests, total)
	}
	if sr.Result.Reads != reads || sr.Result.Writes != writes {
		t.Fatalf("pipeline reads/writes=%d/%d, driver counted %d/%d",
			sr.Result.Reads, sr.Result.Writes, reads, writes)
	}
	if sr.WallTime <= 0 || sr.OpsPerSecWall <= 0 {
		t.Fatalf("wall accounting: %v, %g ops/sec", sr.WallTime, sr.OpsPerSecWall)
	}
	tbl := ServeTable(sr)
	if len(tbl.Rows) != 2 || len(tbl.Header) != len(tbl.Rows[0]) {
		t.Fatalf("serve table shape: %d rows, %d header cols", len(tbl.Rows), len(tbl.Header))
	}
	if !strings.Contains(sr.SpecText, "rkd=zipfian-0.99") {
		t.Fatalf("spec text %q lost the zipfian choice", sr.SpecText)
	}
}

// serveImage runs p and renders the whole ServeResult as JSON with the
// wall-clock fields (and the pool and stall counters, which follow
// goroutine scheduling) zeroed: everything left is a function of the
// seeded generators and the paced virtual-time pipeline. Beside the
// result's Report it renders the host CPU, cache, device and queue
// stats, which the Report sums or leaves out.
func serveImage(t *testing.T, p ServeParams) []byte {
	t.Helper()
	sr, err := RunServe(p)
	if err != nil {
		t.Fatal(err)
	}
	sr.WallTime, sr.OpsPerSecWall, sr.Stalls, sr.Pool = 0, 0, 0, nil
	sr.Result.SubmitStalls = 0
	res := sr.Result
	out, err := json.MarshalIndent(struct {
		*ServeResult
		CPU     sim.Stats   `json:"cpu"`
		Cache   cache.Stats `json:"cache"`
		Devices []ssd.Stats `json:"devices"`
		Queues  []sim.Stats `json:"queues"`
	}{sr, res.CPU, res.Cache, res.Devices, res.Queues}, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRunServeDeterministicCounts checks a seeded serve run reproduces
// in full — per-step counts, latencies and achieved rates, codec mixes,
// byte totals, per-tenant shaping and rejection counts — for the plain
// two-step spec and for the two-tenant QoS spec (latency class beside a
// bandwidth-shaped bulk class) at one and two shards. testdata/serve.golden
// was computed, in today's shape, by a test-only image at the code
// before a RunStats encoded as its Report, so that change moved the
// shape and no value. No -update flag exists on purpose (a moved image
// is a behaviour change to declare). `make race` runs this under the
// race detector.
func TestRunServeDeterministicCounts(t *testing.T) {
	src, err := os.ReadFile("../../specs/qos-smoke.spec")
	if err != nil {
		t.Fatal(err)
	}
	qos, err := workload.ParseSpec(string(src))
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("testdata/serve.golden")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		p    ServeParams
	}{
		{"two-step/shards=2", ServeParams{Params: Params{VolumeMiB: 64, Seed: 3, Shards: 2}, Spec: serveTestSpec(t), Clients: 3}},
		{"qos-smoke/shards=1", ServeParams{Params: Params{VolumeMiB: 64, Shards: 1}, Spec: qos, Clients: 4}},
		{"qos-smoke/shards=2", ServeParams{Params: Params{VolumeMiB: 64, Shards: 2}, Spec: qos, Clients: 4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			img := serveImage(t, tc.p)
			if !bytes.Contains(golden, fmt.Appendf(nil, "== %s\n%s\n", tc.name, img)) {
				t.Fatalf("serve results differ from testdata/serve.golden:\n%s", img)
			}
			if strings.HasPrefix(tc.name, "qos") && !bytes.Contains(img, []byte(`"batch"`)) {
				t.Fatalf("QoS run reports no batch tenant:\n%s", img)
			}
		})
	}
}

// TestFormatSpecRoundTrips checks that the spec text a serve result
// carries parses back to the spec that ran: every committed spec file,
// and a spec with the dup knobs set.
func TestFormatSpecRoundTrips(t *testing.T) {
	files, err := filepath.Glob("../../specs/*.spec")
	if err != nil || len(files) == 0 {
		t.Fatalf("no spec files: %v", err)
	}
	srcs := map[string]string{"dup": "d=100ms qps=500 dup=0.3 dupu=16\nqps=900 rw=0.2"}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		srcs[filepath.Base(f)] = string(b)
	}
	for name, src := range srcs {
		spec, err := workload.ParseSpec(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		text := FormatSpec(spec)
		back, err := workload.ParseSpec(text)
		if err != nil {
			t.Fatalf("%s: FormatSpec text does not parse: %v\n%s", name, err, text)
		}
		if !reflect.DeepEqual(back, spec) {
			t.Errorf("%s: FormatSpec does not round-trip:\n%s\nparsed %+v\nwant   %+v", name, text, back, spec)
		}
	}
}
