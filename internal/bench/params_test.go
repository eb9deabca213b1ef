package bench

import (
	"encoding/json"
	"slices"
	"strings"
	"testing"
	"time"

	"edc"
	"edc/internal/parallel"
)

// overlayParams turns every overlay field of Params on at once, sized so
// each leaves a mark on a short run: fault rates high enough to bite and
// half the payload regions cloned from a pool of eight so the dedup
// index finds repeats.
func overlayParams() Params {
	return Params{
		Requests: 800, VolumeMiB: 64,
		Workers: 4, Shards: 2, Maint: true, Dedup: true,
		DupRatio: 0.5, DupUniverse: 8,
		Faults: &edc.FaultPlan{Seed: 7, ReadTransient: 0.05, WriteTransient: 0.1,
			SpikeRate: 0.05, SpikeLatency: 2 * time.Millisecond},
	}
}

// checkOverlay fails unless res shows every field of overlayParams at
// work in the stack that produced it. pooled is the codec pool's job
// count over the run: Workers > 1 is the only setting that hands codec
// work to the pool whatever GOMAXPROCS is. plain is the same run without
// DupRatio: rewrites alone give the index some hits, cloned regions must
// give it more.
func checkOverlay(t *testing.T, mode string, res, plain *edc.Results, pooled int64) {
	t.Helper()
	if want := "2-shard ["; !strings.Contains(res.Backend, want) {
		t.Errorf("%s: Shards did not reach the stack: backend %q lacks %q", mode, res.Backend, want)
	}
	if res.DedupMisses == 0 {
		t.Errorf("%s: Dedup did not reach the stack: no dedup misses", mode)
	}
	if res.DedupHits <= plain.DedupHits {
		t.Errorf("%s: DupRatio did not reach the payload generator: %d dedup hits, %d without it",
			mode, res.DedupHits, plain.DedupHits)
	}
	if res.MaintTicks == 0 {
		t.Errorf("%s: Maint did not reach the stack: no maintenance ticks", mode)
	}
	if res.Faults == 0 {
		t.Errorf("%s: Faults did not reach the stack: no injected faults", mode)
	}
	if pooled == 0 {
		t.Errorf("%s: Workers did not reach the stack: the codec pool saw no job", mode)
	}
}

// poolJobs counts the jobs the process-wide codec pool has taken so far.
func poolJobs() int64 {
	st := parallel.Shared().Stats()
	return st.Submitted + st.Inline
}

// TestParamsOverlayReachesStack checks the one flag translator in the
// two modes this package runs: a replay cell and RunServe. cmd/edcbench
// has the same check for -replay.
func TestParamsOverlayReachesStack(t *testing.T) {
	p, noDup := overlayParams(), overlayParams()
	noDup.DupRatio = 0

	before := poolJobs()
	res, err := ReplayCell(p, "fin1", edc.SchemeEDC)
	if err != nil {
		t.Fatal(err)
	}
	pooled := poolJobs() - before
	plain, err := ReplayCell(noDup, "fin1", edc.SchemeEDC)
	if err != nil {
		t.Fatal(err)
	}
	checkOverlay(t, "replay cell", res, plain, pooled)

	before = poolJobs()
	sr, err := RunServe(ServeParams{Params: p, Spec: serveTestSpec(t), Clients: 4})
	if err != nil {
		t.Fatal(err)
	}
	pooled = poolJobs() - before
	srPlain, err := RunServe(ServeParams{Params: noDup, Spec: serveTestSpec(t), Clients: 4})
	if err != nil {
		t.Fatal(err)
	}
	checkOverlay(t, "RunServe", sr.Result, srPlain.Result, pooled)
	if sr.Shards != 2 {
		t.Errorf("RunServe: result reports %d shards, want 2", sr.Shards)
	}
}

// TestReplayCellIsFigureCell pins what edcbench -replay promises: the
// report of ReplayCell under EDC is, byte for byte, the report of the
// cell the fig8/fig10 sweep computes — at a non-zero seed, and for
// workloads past the first, where the trace index and the payload seed
// both matter. It runs only those two cells of the sweep's declared list,
// through the experiments' runner.
func TestReplayCellIsFigureCell(t *testing.T) {
	p := Params{Requests: 400, VolumeMiB: 64, Seed: 3}
	sweep := sweepCells(edc.SingleSSD)(p)
	for _, name := range []string{"fin2", "prxy_0"} {
		prof, err := edc.WorkloadByName(name, p.volume())
		if err != nil {
			t.Fatal(err)
		}
		res, err := ReplayCell(p, name, edc.SchemeEDC)
		if err != nil {
			t.Fatal(err)
		}
		i := slices.IndexFunc(sweep, func(c cell) bool { return c.trace.profile == prof.Name && c.scheme == edc.SchemeEDC })
		if i < 0 {
			t.Fatalf("%s: no sweep cell on a trace named %q", name, prof.Name)
		}
		figure, err := runCells(sweep[i : i+1])
		if err != nil {
			t.Fatal(err)
		}
		got, _ := json.Marshal(res.Report())
		want, _ := json.Marshal(figure[0].Report())
		if string(got) != string(want) {
			t.Errorf("%s: ReplayCell differs from the figure's cell:\n cell:   %s\n figure: %s", name, got, want)
		}
	}
}
