package edc_test

import (
	"testing"

	"edc"
)

// dupTrace builds a write-heavy trace over a duplicate-rich payload
// profile: the DupRatio knob makes many 64 KiB content regions clones
// of a small clone universe, so distinct LBAs carry identical bytes.
func dupTrace(t *testing.T, n int) (*edc.Trace, edc.DataProfile) {
	t.Helper()
	wl, err := edc.WorkloadByName("fin1", 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := wl.GenerateN(n, 7)
	if err != nil {
		t.Fatal(err)
	}
	prof := edc.DataProfiles()["enterprise"].WithDup(0.5, 8)
	return tr, prof
}

// TestDedupHitsAndVerify drives a duplicate-heavy workload through a
// dedup-enabled system in verify mode: dedup must find hits, save slot
// bytes, and every read must still round-trip byte-exact (shared
// extents decompress to the right content for every referrer).
func TestDedupHitsAndVerify(t *testing.T) {
	tr, prof := dupTrace(t, 4000)
	res, err := edc.Replay(tr, 64<<20,
		edc.WithDataProfile(prof, 7),
		edc.WithDedup(edc.Dedup{}),
		edc.WithVerify(),
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.DedupHits == 0 {
		t.Fatal("expected dedup hits on a duplicate-heavy profile, got none")
	}
	if res.DedupMisses == 0 {
		t.Fatal("expected some dedup misses, got none")
	}
	if res.DedupBytesSaved <= 0 {
		t.Fatalf("expected positive DedupBytesSaved, got %d", res.DedupBytesSaved)
	}
	if hr := res.DedupHitRate(); hr <= 0 || hr > 1 {
		t.Fatalf("hit rate %v out of range", hr)
	}
}

// TestDedupOffUnchanged checks the off switch: a replay without a dedup
// policy, even of a duplicate-heavy trace, fingerprints nothing.
func TestDedupOffUnchanged(t *testing.T) {
	tr, prof := dupTrace(t, 2000)
	res, err := edc.Replay(tr, 64<<20, edc.WithDataProfile(prof, 7))
	if err != nil {
		t.Fatal(err)
	}
	if res.DedupHits != 0 || res.DedupMisses != 0 {
		t.Fatalf("dedup counters moved with dedup off: hits=%d misses=%d",
			res.DedupHits, res.DedupMisses)
	}
}

// TestDedupDeterministic replays the same trace twice with dedup on and
// demands byte-identical formatted results.
func TestDedupDeterministic(t *testing.T) {
	tr, prof := dupTrace(t, 2000)
	run := func() string {
		res, err := edc.Replay(tr, 64<<20,
			edc.WithDataProfile(prof, 7), edc.WithDedup(edc.Dedup{}))
		if err != nil {
			t.Fatal(err)
		}
		return res.Format()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("dedup replay not deterministic:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
}

// TestDedupSharded runs dedup under sharded replay (each shard
// deduplicates its own LBA range) and checks determinism across two
// runs plus verify-mode round-trips.
func TestDedupSharded(t *testing.T) {
	tr, prof := dupTrace(t, 3000)
	run := func() *edc.Results {
		res, err := edc.Replay(tr, 64<<20,
			edc.WithDataProfile(prof, 7),
			edc.WithDedup(edc.Dedup{}),
			edc.WithShards(2),
			edc.WithVerify(),
		)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Format() != b.Format() {
		t.Fatalf("sharded dedup not deterministic:\n--- a ---\n%s\n--- b ---\n%s",
			a.Format(), b.Format())
	}
	if a.DedupHits == 0 {
		t.Fatal("expected dedup hits under sharded replay")
	}
}

// TestDedupObsCounters checks the dedup events and counters surface
// through the observability layer and agree with RunStats.
func TestDedupObsCounters(t *testing.T) {
	tr, prof := dupTrace(t, 2000)
	var hits, misses int64
	tracer := edc.TracerFunc(func(e *edc.TraceEvent) {
		switch e.Type {
		case edc.EvDedupHit:
			hits++
			if e.Slot <= 0 {
				t.Errorf("dedup_hit event with non-positive slot %d", e.Slot)
			}
		case edc.EvDedupMiss:
			misses++
		}
	})
	res, err := edc.Replay(tr, 64<<20,
		edc.WithDataProfile(prof, 7),
		edc.WithDedup(edc.Dedup{}),
		edc.WithTracer(tracer),
	)
	if err != nil {
		t.Fatal(err)
	}
	if hits != res.DedupHits || misses != res.DedupMisses {
		t.Fatalf("event counts (hits=%d misses=%d) disagree with stats (hits=%d misses=%d)",
			hits, misses, res.DedupHits, res.DedupMisses)
	}
	if res.Obs == nil {
		t.Fatal("expected an obs report")
	}
	if got := res.Obs.Counters["edc_dedup_hits_total"]; got != res.DedupHits {
		t.Fatalf("counter edc_dedup_hits_total=%d, stats DedupHits=%d", got, res.DedupHits)
	}
	if got := res.Obs.Counters["edc_dedup_saved_bytes_total"]; got != res.DedupBytesSaved {
		t.Fatalf("counter edc_dedup_saved_bytes_total=%d, stats DedupBytesSaved=%d",
			got, res.DedupBytesSaved)
	}
}

// TestDedupValidate: Dedup has no settings, so its one value validates.
func TestDedupValidate(t *testing.T) {
	if _, err := edc.NewSystem(64<<20, edc.WithDedup(edc.Dedup{})); err != nil {
		t.Fatalf("zero-valued dedup policy should validate: %v", err)
	}
}
