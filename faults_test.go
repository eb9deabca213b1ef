package edc

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func testFaultPlan() *FaultPlan {
	return &FaultPlan{
		Seed: 77, ReadTransient: 0.01, WriteTransient: 0.02,
		WriteHard: 0.005, SpikeRate: 0.01, SpikeLatency: 2 * time.Millisecond,
	}
}

func TestTypedErrors(t *testing.T) {
	if _, err := Replay(smallTrace(t, 10), testVolume, WithScheme("bogus")); !errors.Is(err, ErrUnknownScheme) {
		t.Fatalf("bogus scheme: err = %v, want ErrUnknownScheme", err)
	}
	if _, err := WorkloadByName("nope", testVolume); !errors.Is(err, ErrUnknownWorkload) {
		t.Fatalf("bogus workload: err = %v, want ErrUnknownWorkload", err)
	}
	fe := &FaultError{Op: "read", Dev: 2, LBA: 77, Transient: true}
	if !errors.Is(fe, ErrFaultTransient) || errors.Is(fe, ErrFaultHard) {
		t.Fatal("transient FaultError must match ErrFaultTransient only")
	}
	var got *FaultError
	if !errors.As(error(fe), &got) || got.Dev != 2 || got.LBA != 77 {
		t.Fatalf("errors.As extraction failed: %+v", got)
	}
}

// TestFaultDeterminismFacade pins the tentpole's determinism contract at
// the API boundary: same trace + same plan → identical results, with and
// without LBA sharding.
func TestFaultDeterminismFacade(t *testing.T) {
	tr := smallTrace(t, 800)
	for _, shards := range []int{1, 4} {
		run := func() string {
			opts := []Option{
				WithSSDConfig(smallSSD()),
				WithFaults(testFaultPlan()),
			}
			if shards > 1 {
				opts = append(opts, WithShards(shards))
			}
			res, err := Replay(tr, testVolume, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if res.Faults == 0 {
				t.Fatal("plan attached but no faults injected")
			}
			return res.Format()
		}
		if a, b := run(), run(); a != b {
			t.Fatalf("shards=%d: fault replays diverged:\n--- run 1 ---\n%s--- run 2 ---\n%s", shards, a, b)
		}
	}
}

func TestPowerCutRecovery(t *testing.T) {
	tr := smallTrace(t, 800)
	span := tr.Requests[len(tr.Requests)-1].Arrival
	// Cut just after a mid-trace arrival: that request is admitted but
	// still in flight (device service runs ~100µs+), so the crash
	// demonstrably loses work.
	cut := tr.Requests[400].Arrival + 20*time.Microsecond
	plan := &FaultPlan{Seed: 13, WriteTransient: 0.01, PowerCutAt: cut}
	run := func() *Results {
		res, err := Replay(tr, testVolume,
			WithSSDConfig(smallSSD()),
			WithVerify(),
			WithFaults(plan),
			WithSnapshotEvery(span/8))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run()
	if res.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", res.Recoveries)
	}
	if res.CrashLost == 0 {
		t.Fatal("a mid-trace power cut should lose in-flight requests")
	}
	if got := res.Resp.Count() + res.CrashLost; got > int64(len(tr.Requests)) {
		t.Fatalf("completed(%d) + lost(%d) > trace size %d",
			res.Resp.Count(), res.CrashLost, len(tr.Requests))
	}
	if res.Resp.Count() == 0 {
		t.Fatal("no requests completed across the crash")
	}
	// The crash/recover/resume composite is itself deterministic.
	if a, b := res.Format(), run().Format(); a != b {
		t.Fatalf("power-cut replays diverged:\n--- run 1 ---\n%s--- run 2 ---\n%s", a, b)
	}
}

// TestNoPlanMatchesBaseline pins the zero-cost-when-disabled contract:
// attaching no plan leaves results identical to a build that never heard
// of fault injection (here: field-identical to a second plain run, with
// every fault counter zero and no fault line in the report).
func TestNoPlanMatchesBaseline(t *testing.T) {
	tr := smallTrace(t, 400)
	res, err := Replay(tr, testVolume, WithSSDConfig(smallSSD()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults != 0 || res.FaultRetries != 0 || res.DegradedReads != 0 ||
		res.WriteReallocs != 0 || res.UnrecoveredReads != 0 || res.Recoveries != 0 {
		t.Fatalf("fault counters non-zero without a plan: %+v", res)
	}
	if report := res.Format(); strings.Contains(report, "faults:") {
		t.Fatalf("plan-free report mentions faults:\n%s", report)
	}
}
