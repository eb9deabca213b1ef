package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestOpEncodingRoundTrips(t *testing.T) {
	s := &opStream{bs: 4096}
	type op struct {
		at    time.Duration
		off   int64
		write bool
	}
	want := []op{
		{0, 0, false},
		{1, 4096, true},
		{time.Hour, 256*mib - 4096, false},
		{math.MaxInt64, math.MaxInt64 >> 1, true},
	}
	for _, o := range want {
		s.add(o.at, o.off, o.write)
	}
	if s.len() != len(want) {
		t.Fatalf("len = %d, want %d", s.len(), len(want))
	}
	for i, o := range want {
		at, off, write := s.at(i)
		if at != o.at || off != o.off || write != o.write {
			t.Errorf("op %d = (%v, %d, %v), want %+v", i, at, off, write, o)
		}
	}
}

func TestPreloadCoversVolumeOnceThenBarrier(t *testing.T) {
	const vol, bs = 1 * mib, 4096
	s := preloadOps(7, vol, bs, 8000)
	if s.len() != vol/bs+1 {
		t.Fatalf("%d ops, want %d", s.len(), vol/bs+1)
	}
	seen := map[int64]bool{}
	sequential := true
	for i := 0; i < s.len()-1; i++ {
		at, off, write := s.at(i)
		if !write || seen[off] || off%bs != 0 || off >= vol {
			t.Fatalf("op %d: off %d write %v seen %v", i, off, write, seen[off])
		}
		seen[off] = true
		if i > 0 {
			prevAt, prevOff, _ := s.at(i - 1)
			if at <= prevAt {
				t.Fatalf("op %d: stamps not increasing", i)
			}
			if off != prevOff+bs {
				sequential = false
			}
		}
	}
	if sequential {
		t.Error("preload is sequential: the SD would merge it to MaxRun")
	}
	lastAt, _, _ := s.at(s.len() - 2)
	if at, off, write := s.at(s.len() - 1); write || off != 0 || at != lastAt+settleGap {
		t.Errorf("barrier = (%v, %d, %v)", at, off, write)
	}
	again := preloadOps(7, vol, bs, 8000)
	for i := range s.key {
		if s.key[i] != again.key[i] || s.stamp[i] != again.stamp[i] {
			t.Fatal("same seed gave different preloads")
		}
	}
}

// miniature shrinks w to a 2k-operation run over a small volume, keeping
// the cache-to-data proportion that makes the workload what it is.
func miniature(w *spec) *spec {
	m := *w
	m.setups = 1
	if m.serve() {
		m.cache = m.cache * (8 * mib) / m.volume
		m.volume = 8 * mib
	}
	return &m
}

func TestMiniatureWorkloadsPassTheirChecks(t *testing.T) {
	for _, w := range workloads {
		w := miniature(w)
		t.Run(w.name, func(t *testing.T) {
			p, err := w.run(1, 2000, nil, false)
			if err != nil {
				t.Fatal(err)
			}
			if p.failed != 0 {
				t.Fatalf("%d failed: %s", p.failed, p.why)
			}
			for _, m := range endToEnd {
				if v := endToEndValues(p)[m.name]; !(v > 0) {
					t.Errorf("%s = %v, want positive", m.name, v)
				}
			}
		})
	}
}

func TestMiniatureTracedPassReconciles(t *testing.T) {
	for _, name := range []string{"replay-fin1-write", "serve-read-verify"} {
		w := miniature(workloadByName(name))
		t.Run(name, func(t *testing.T) {
			res, err := runTraced(w, 1, 2000)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("traced run failed %d checks", res.Failed)
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("%d per-layer metrics, want %d", len(res.Metrics), len(perLayer))
			}
			if v := res.Metrics["compress.replay_match_share"].Value; v < 0.99 {
				t.Errorf("replay_match_share = %v", v)
			}
		})
	}
}

func TestSeedMovesReplayAddressesOnly(t *testing.T) {
	w := workloadByName("replay-fin1-write")
	a, err := w.profile(w.volume).GenerateN(500, traceSeed)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := w.profile(w.volume).GenerateN(500, traceSeed)
	rotate(a, w.volume, 1)
	rotate(b, w.volume, 2)
	moved := false
	for i := range a.Requests {
		x, y := a.Requests[i], b.Requests[i]
		if x.Arrival != y.Arrival || x.Size != y.Size || x.Write != y.Write {
			t.Fatalf("request %d: seed changed more than the address", i)
		}
		if x.Offset != y.Offset {
			moved = true
		}
		if x.Offset < 0 || x.Offset >= w.volume || (x.Offset-y.Offset)%(64<<10) != 0 {
			t.Fatalf("request %d: offsets %d and %d", i, x.Offset, y.Offset)
		}
	}
	if !moved {
		t.Error("seeds 1 and 2 gave the same addresses")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	// == [3.5, 24.0, 160.0]
	q := quartilesOf([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q.q1 != 3.5 || q.med != 24 || q.q3 != 160 {
		t.Errorf("quartiles = %+v", q)
	}
}

// runsOf builds ten paired records per side for one workload whose
// ops_per_s values are base scaled by the given factors.
func runsOf(factors []float64) []record {
	var recs []record
	for i, f := range factors {
		recs = append(recs, record{
			Workload: "replay-fin1-write", Seed: int64(i + 1),
			result: result{Correct: true, Attempted: 1, Metrics: map[string]metric{
				"ops_per_s":         {Value: 1000 * f, Unit: "1/s"},
				"virt_mean_resp_us": {Value: 500, Unit: "us"},
			}},
		})
	}
	return recs
}

func TestCompareVerdicts(t *testing.T) {
	flat := []float64{1, 1.01, 0.99, 1, 1.005, 0.995, 1, 1.01, 0.99, 1}
	scaled := func(by float64) []float64 {
		out := make([]float64, len(flat))
		for i, f := range flat {
			out[i] = f * by * (1 + 0.002*float64(i%3)) // pairs differ slightly
		}
		return out
	}
	noisy := []float64{0.6, 1.5, 0.7, 1.4, 0.65, 1.45, 0.75, 1.35, 0.6, 1.5}
	cases := []struct {
		name string
		b    []float64
		want verdict
	}{
		{"same", flat, same},
		{"worse", scaled(0.7), worse},
		{"better", scaled(1.3), better},
		{"unresolved", noisy, unresolved},
	}
	for _, c := range cases {
		rows := compareRuns(runsOf(flat), runsOf(c.b))
		if len(rows) != 2 {
			t.Fatalf("%s: %d rows, want 2", c.name, len(rows))
		}
		for _, r := range rows {
			switch r.metric {
			case "ops_per_s":
				if r.verdict != c.want {
					t.Errorf("%s: ops_per_s verdict %s, want %s (worsening %+v)", c.name, r.verdict, c.want, r.worsening)
				}
			case "virt_mean_resp_us":
				if r.verdict != same || r.moved {
					t.Errorf("%s: identical exact metric judged %s moved=%v", c.name, r.verdict, r.moved)
				}
			}
		}
	}
}

func TestExactMetricThatMovesIsFlagged(t *testing.T) {
	a, b := runsOf([]float64{1, 1, 1, 1}), runsOf([]float64{1, 1, 1, 1})
	for i := range b {
		b[i].Metrics["virt_mean_resp_us"] = metric{Value: 600, Unit: "us"}
	}
	for _, r := range compareRuns(a, b) {
		if r.metric == "virt_mean_resp_us" && (r.verdict != worse || !r.moved) {
			t.Errorf("20%% slower exact metric judged %s moved=%v", r.verdict, r.moved)
		}
	}
}

// TestBenchmarkJSONMatchesHarness keeps the contract file at the
// repository root in step with the tables the harness reports from.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, harness has %q: %q", i, b.Workloads[i], w.name, w.why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the harness", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		better := "lower"
		if m.higherBetter {
			better = "higher"
		}
		if e := b.EndToEnd[i]; e.Name != m.name || e.Unit != m.unit || e.Better != better || e.Bound != m.bound {
			t.Errorf("end-to-end metric %d: %+v, harness has %+v", i, e, m)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the harness", len(b.PerLayer), len(perLayer))
	}
	for _, e := range b.PerLayer {
		if unit, ok := perLayer[e.Name]; !ok || unit != e.Unit || (e.Better != "lower" && e.Better != "higher") {
			t.Errorf("per-layer metric %+v: harness unit %q (known %v)", e, unit, ok)
		}
	}
}
