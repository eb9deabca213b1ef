package edc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"
)

// matrixFeature is one optional feature of the replay stack as the
// determinism matrix turns it on: the options that enable it, its share
// of the one fault plan a replay can carry and, for a feature that needs
// tagged traffic, what it does to the trace. on reports whether a
// finished replay shows the feature at work, so a combination cannot
// pass by quietly running without it.
type matrixFeature struct {
	name  string
	opts  []Option
	plan  func(*FaultPlan)
	trace func(*Trace) *Trace
	on    func(*Results) bool
}

// matrixFeatures builds the features for replays of base (the power cut
// is placed by its arrival stamps).
func matrixFeatures(base *Trace) []matrixFeature {
	span := base.Requests[len(base.Requests)-1].Arrival
	return []matrixFeature{
		// Rates high enough to bite on a short trace.
		{name: "faults", plan: func(p *FaultPlan) {
			p.ReadTransient, p.WriteTransient, p.WriteHard = 0.05, 0.1, 0.02
			p.SpikeRate, p.SpikeLatency = 0.05, 2*time.Millisecond
		}, on: func(r *Results) bool { return r.Faults > 0 }},
		{name: "maint", opts: []Option{WithMaintenance(maintPolicy())},
			on: func(r *Results) bool { return r.MaintTicks > 0 }},
		{name: "dedup", opts: []Option{
			WithDedup(Dedup{}),
			WithDataProfile(DataProfiles()["enterprise"].WithDup(0.5, 8), 7),
		}, on: func(r *Results) bool { return r.DedupHits > 0 }},
		{name: "qos", opts: []Option{WithQoS(QoSConfig{Tenants: map[string]QoSTenant{
			"web":   {Class: ClassLatency},
			"batch": {Class: ClassBulk, Bandwidth: "64K", BurstBytes: 16 << 10, MaxDeferred: 32},
		}})}, trace: func(tr *Trace) *Trace {
			out := tagTrace(tr, "web")
			for i := range out.Requests {
				if i%3 == 0 {
					out.Requests[i].Tenant = "batch"
				}
			}
			return out
		}, on: func(r *Results) bool { return r.Tenants["batch"] != nil && r.Tenants["batch"].Shaped > 0 }},
		{name: "cache+verify", opts: []Option{WithCache(4 << 20), WithVerify()},
			on: func(r *Results) bool { return r.Cache.Hits > 0 }},
		// Cut just after a mid-trace arrival, with checkpoints on, so the
		// recovery replays a journal over a snapshot that is not the
		// empty one. Refused at two shards.
		{name: "powercut", opts: []Option{WithSnapshotEvery(span / 8)}, plan: func(p *FaultPlan) {
			p.PowerCutAt = base.Requests[len(base.Requests)/2].Arrival + 20*time.Microsecond
		}, on: func(r *Results) bool { return r.Recoveries == 1 }},
	}
}

// dedupCutCell is the matrix cell that must also succeed, and
// dedupCutRequests its trace length: at 2 200 requests a checkpoint
// failed with an unref replayed while its extent was still live, when
// dedup's refs and unrefs were journaled ahead of the inserts mapped
// before them (at 2 000 the run passed anyway).
const (
	dedupCutCell     = "dedup×powercut/shards=1"
	dedupCutRequests = 2200
)

// TestFeatureMatrixDeterministic is the one determinism gate for feature
// combinations (make matrixcheck runs it under -race on four procs):
// each of the six features alone and every pair of them, at one and two
// shards, replayed twice — the two machine-readable reports must match byte for
// byte, with codec work racing the event loop on the shared pool. A
// combination the stack refuses or fails must fail the same way twice;
// dedupCutCell must not fail at all.
func TestFeatureMatrixDeterministic(t *testing.T) {
	base := smallTrace(t, 200)
	long := smallTrace(t, dedupCutRequests)
	names := matrixFeatures(base)
	for i := range names {
		for j := i; j < len(names); j++ {
			name := names[i].name
			if j > i {
				name += "×" + names[j].name
			}
			for _, shards := range []int{1, 2} {
				cell := fmt.Sprintf("%s/shards=%d", name, shards)
				t.Run(cell, func(t *testing.T) {
					t.Parallel()
					tr := base
					if cell == dedupCutCell {
						tr = long
					}
					// Options are built per subtest: an Option value is not
					// meant to configure two Systems at once.
					feats := matrixFeatures(tr)
					combo := []matrixFeature{feats[i]}
					if j > i {
						combo = append(combo, feats[j])
					}
					first, firstErr := matrixReplay(t, tr, combo, shards)
					again, againErr := matrixReplay(t, tr, combo, shards)
					if cell == dedupCutCell && firstErr != nil {
						t.Fatalf("must succeed: %v", firstErr)
					}
					if firstErr != nil || againErr != nil {
						if fmt.Sprint(firstErr) != fmt.Sprint(againErr) {
							t.Fatalf("errors differ between runs:\n run 1: %v\n run 2: %v", firstErr, againErr)
						}
						t.Logf("fails identically on both runs: %v", firstErr)
					}
					if !bytes.Equal(first, again) {
						t.Fatalf("reports differ between runs:\n run 1: %s\n run 2: %s", first, again)
					}
				})
			}
		}
	}
}

// matrixReplay replays base under the combined features and returns the
// report as JSON (nil when the replay produced no results).
func matrixReplay(t *testing.T, base *Trace, combo []matrixFeature, shards int) ([]byte, error) {
	t.Helper()
	opts := []Option{WithSSDConfig(smallSSD()), WithShards(shards), WithReplayWorkers(4)}
	tr := base
	var plan *FaultPlan
	for _, f := range combo {
		opts = append(opts, f.opts...)
		if f.plan != nil {
			if plan == nil {
				plan = &FaultPlan{Seed: 77}
				opts = append(opts, WithFaults(plan))
			}
			f.plan(plan)
		}
		if f.trace != nil {
			tr = f.trace(tr)
		}
	}
	res, err := Replay(tr, testVolume, opts...)
	if res == nil {
		return nil, err
	}
	for _, f := range combo {
		if err == nil && !f.on(res) {
			t.Errorf("%s is configured but left no mark on the results", f.name)
		}
	}
	out, jerr := json.Marshal(res.Report())
	if jerr != nil {
		t.Fatal(jerr)
	}
	return out, err
}
