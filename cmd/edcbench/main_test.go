package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"edc"
	"edc/internal/bench"
	"edc/internal/parallel"
)

// replayKeys are the report keys the tests below read.
type replayKeys struct {
	Backend     string `json:"backend"`
	DedupHits   int64  `json:"dedup_hits"`
	DedupMisses int64  `json:"dedup_misses"`
	MaintTicks  int64  `json:"maint_ticks"`
	Faults      int64  `json:"faults"`
}

// replayReport runs the -replay path with -json and decodes what it
// printed.
func replayReport(t *testing.T, p bench.Params, workload string) (replayKeys, []byte) {
	t.Helper()
	var out bytes.Buffer
	if err := runReplay(p, workload, edc.SchemeEDC, replayOutputs{jsonOut: true}, &out); err != nil {
		t.Fatal(err)
	}
	var rep replayKeys
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("-replay -json printed no report: %v\n%s", err, out.Bytes())
	}
	return rep, out.Bytes()
}

// TestReplayIsFigureCell pins the -replay promise end to end: what
// `edcbench -replay fin2 -json` prints is the report of the harness's
// Fin2/EDC cell (bench's TestReplayCellIsFigureCell ties that cell to
// the fig8/fig10 sweep), at a non-zero -seed too.
func TestReplayIsFigureCell(t *testing.T) {
	p := bench.Params{Requests: 600, VolumeMiB: 64, Seed: 3}
	_, printed := replayReport(t, p, "fin2")
	cell, err := bench.ReplayCell(p, "fin2", edc.SchemeEDC)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	if err := enc.Encode(cell.Report()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(printed, want.Bytes()) {
		t.Fatalf("-replay printed\n%s\nthe harness cell is\n%s", printed, want.Bytes())
	}
}

// TestReplayOverlayReachesStack is bench's TestParamsOverlayReachesStack
// for the third mode: every shared flag, carried in one bench.Params,
// shows in the report -replay prints.
func TestReplayOverlayReachesStack(t *testing.T) {
	p := bench.Params{
		Requests: 800, VolumeMiB: 64,
		Workers: 4, Shards: 2, Maint: true, Dedup: true,
		DupRatio: 0.5, DupUniverse: 8,
		Faults: &edc.FaultPlan{Seed: 7, ReadTransient: 0.05, WriteTransient: 0.1,
			SpikeRate: 0.05, SpikeLatency: 2 * time.Millisecond},
	}
	pool := func() int64 {
		st := parallel.Shared().Stats()
		return st.Submitted + st.Inline
	}
	before := pool()
	rep, _ := replayReport(t, p, "fin1")
	pooled := pool() - before
	p.DupRatio = 0
	plain, _ := replayReport(t, p, "fin1")

	if !strings.Contains(rep.Backend, "2-shard [") {
		t.Errorf("-shards did not reach the stack: backend %q", rep.Backend)
	}
	if rep.DedupMisses == 0 {
		t.Error("-dedup did not reach the stack: no dedup misses")
	}
	if rep.DedupHits <= plain.DedupHits {
		t.Errorf("-dup-ratio did not reach the payload generator: %d dedup hits, %d without it", rep.DedupHits, plain.DedupHits)
	}
	if rep.MaintTicks == 0 {
		t.Error("-maint did not reach the stack: no maintenance ticks")
	}
	if rep.Faults == 0 {
		t.Error("-faults did not reach the stack: no injected faults")
	}
	if pooled == 0 {
		t.Error("-workers did not reach the stack: the codec pool saw no job")
	}
}

// TestProfilesEveryMode runs a short -replay and a short -serve with
// -cpuprofile and -memprofile: every mode writes both profiles, not only
// the experiment path.
func TestProfilesEveryMode(t *testing.T) {
	dir := t.TempDir()
	for _, mode := range []struct {
		name string
		args []string
	}{
		{"replay", []string{"-replay", "fin1", "-requests", "300", "-volume", "64"}},
		{"serve", []string{"-serve", "-spec", "d=100ms qps=500 rw=0.5", "-volume", "64", "-clients", "2"}},
	} {
		cpu, mem := filepath.Join(dir, mode.name+".prof"), filepath.Join(dir, mode.name+".mem")
		var out bytes.Buffer
		if err := run(append(mode.args, "-cpuprofile", cpu, "-memprofile", mem), &out); err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
		for _, path := range []string{cpu, mem} {
			st, err := os.Stat(path)
			if err != nil {
				t.Errorf("%s: %v", mode.name, err)
			} else if st.Size() == 0 {
				t.Errorf("%s: %s is empty", mode.name, filepath.Base(path))
			}
		}
	}
}

// TestServeJSONResultIsReport holds -serve -json's result to the report
// -replay -json prints: its keys, and no raw RunStats field name.
func TestServeJSONResultIsReport(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-serve", "-json", "-spec", "d=100ms qps=500 rw=0.5", "-volume", "64", "-clients", "2"}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	var printed struct {
		Result map[string]json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(out.Bytes(), &printed); err != nil {
		t.Fatalf("-serve -json printed no JSON: %v\n%s", err, out.Bytes())
	}
	for _, key := range []string{"requests", "mean_us", "p99_us", "stored_bytes", "runs_by_codec"} {
		if _, ok := printed.Result[key]; !ok {
			t.Errorf("result has no %q key", key)
		}
	}
	for key := range printed.Result {
		if key[0] >= 'A' && key[0] <= 'Z' {
			t.Errorf("result has raw field key %q", key)
		}
	}
}
