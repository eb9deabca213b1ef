package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"edc/internal/compress"
	"edc/internal/datagen"
	"edc/internal/fault"
	"edc/internal/sim"
	"edc/internal/ssd"
	"edc/internal/trace"
)

// freshSSDRig returns an engine + single-SSD backend without a device,
// for tests that build the device themselves (RecoverDevice).
func freshSSDRig(t *testing.T) (*sim.Engine, *Backend) {
	t.Helper()
	eng := sim.NewEngine()
	cfg := ssd.DefaultConfig()
	cfg.Blocks = 2048
	d, err := ssd.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, NewSSDBackend(eng, d)
}

func TestFaultWriteRetryRecovers(t *testing.T) {
	plan := &fault.Plan{Seed: 42, WriteTransient: 0.05}
	rig := newTestRig(t, Options{Policy: Native(), Faults: plan})
	st, err := rig.dev.Play(seqTrace(400, 2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if st.Resp.Count() != 400 {
		t.Fatalf("answered %d, want 400 (transient faults must not lose requests)", st.Resp.Count())
	}
	if st.Faults == 0 || st.FaultRetries == 0 {
		t.Fatalf("faults = %d, retries = %d; want both > 0", st.Faults, st.FaultRetries)
	}
	if st.WriteReallocs != 0 {
		t.Fatalf("reallocs = %d; transient-only plan must not re-allocate", st.WriteReallocs)
	}
}

func TestFaultWriteHardReallocates(t *testing.T) {
	plan := &fault.Plan{Seed: 7, WriteHard: 0.05}
	rig := newTestRig(t, Options{Policy: Native(), Faults: plan})
	st, err := rig.dev.Play(seqTrace(400, 2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if st.WriteReallocs == 0 {
		t.Fatal("hard write faults injected but no re-allocations recorded")
	}
	// VerifyReads is on: every post-realloc read checked content, so
	// reaching here means re-allocated writes stayed readable.
	if st.Resp.Count() != 400 {
		t.Fatalf("answered %d, want 400", st.Resp.Count())
	}
}

func TestFaultReadHardAbandonsOnSingleSSD(t *testing.T) {
	plan := &fault.Plan{Seed: 3, ReadHard: 0.05}
	rig := newTestRig(t, Options{Policy: Native(), Faults: plan})
	st, err := rig.dev.Play(seqTrace(400, 2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	// A single SSD has no redundancy: hard read failures are counted as
	// unrecovered, and the replay still completes every request.
	if st.UnrecoveredReads == 0 {
		t.Fatal("hard read faults injected but none counted unrecovered")
	}
	if st.Resp.Count() != 400 {
		t.Fatalf("answered %d, want 400", st.Resp.Count())
	}
	if st.DegradedReads != 0 {
		t.Fatalf("degraded reads = %d on a single SSD", st.DegradedReads)
	}
}

func TestFaultDegradedReadRAIS5(t *testing.T) {
	eng := sim.NewEngine()
	cfg := ssd.DefaultConfig()
	cfg.Blocks = 1024
	devs := make([]*ssd.SSD, 5)
	for i := range devs {
		d, err := ssd.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		devs[i] = d
	}
	arr, err := newRAIS5(devs)
	if err != nil {
		t.Fatal(err)
	}
	be := NewArrayBackend(eng, arr)
	dev, err := NewDevice(eng, be, 256<<20, Options{
		Policy:      Native(),
		Data:        datagen.New(datagen.Enterprise(), 10),
		VerifyReads: true,
		Faults:      &fault.Plan{Seed: 5, ReadHard: 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := dev.Play(seqTrace(500, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if st.DegradedReads == 0 {
		t.Fatal("hard member-read faults on RAIS5 but no degraded reads recorded")
	}
	if st.DegradedReadTime <= 0 {
		t.Fatalf("degraded read time = %v, want > 0", st.DegradedReadTime)
	}
	if st.UnrecoveredReads != 0 {
		t.Fatalf("unrecovered = %d; RAIS5 parity must reconstruct single-member failures", st.UnrecoveredReads)
	}
	if st.Resp.Count() != 500 {
		t.Fatalf("answered %d, want 500", st.Resp.Count())
	}
}

func TestFaultStallSlowsResponses(t *testing.T) {
	run := func(plan *fault.Plan) *RunStats {
		rig := newTestRig(t, Options{Policy: Native(), Faults: plan})
		st, err := rig.dev.Play(seqTrace(300, time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	base := run(nil)
	stalled := run(&fault.Plan{Seed: 1, Stalls: []fault.Stall{
		{Dev: 0, At: 50 * time.Millisecond, For: 40 * time.Millisecond},
	}})
	if stalled.Resp.Mean() <= base.Resp.Mean() {
		t.Fatalf("stall did not slow the run: stalled mean %v <= base mean %v",
			stalled.Resp.Mean(), base.Resp.Mean())
	}
}

func TestFaultReplayDeterminism(t *testing.T) {
	run := func() string {
		plan := &fault.Plan{
			Seed: 99, ReadTransient: 0.01, WriteTransient: 0.02,
			WriteHard: 0.005, SpikeRate: 0.01, SpikeLatency: 2 * time.Millisecond,
		}
		rig := newTestRig(t, Options{Faults: plan})
		st, err := rig.dev.Play(seqTrace(500, time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		return st.Format()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("two replays under the same fault plan diverged:\n--- run 1 ---\n%s--- run 2 ---\n%s", a, b)
	}
}

func TestCheckpointFoldMatchesLiveMapping(t *testing.T) {
	rig := newTestRig(t, Options{
		Policy:        Native(),
		SnapshotEvery: 50 * time.Millisecond,
	})
	if _, err := rig.dev.Play(seqTrace(300, 2*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	per := rig.dev.per
	if per == nil {
		t.Fatal("SnapshotEvery set but no persister armed")
	}
	if len(per.snapshot) == 0 {
		t.Fatal("no checkpoint snapshot written")
	}
	m, _, err := recoverShadow(per.snapshot, per.jnl.Bytes(), rig.dev.se.alloc.Capacity())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	live := rig.dev.se.mapping
	if m.LiveBlocks() != live.LiveBlocks() || m.Extents() != live.Extents() {
		t.Fatalf("recovered %d blocks/%d extents, live %d/%d",
			m.LiveBlocks(), m.Extents(), live.LiveBlocks(), live.Extents())
	}
}

func TestRecoverMappingTruncatedSnapshot(t *testing.T) {
	// Build a small mapping and snapshot it.
	alloc := NewAllocator(1 << 20)
	m := NewMapping(64*BlockSize, alloc, nil)
	var j Journal
	j.Append(&Extent{Offset: 0, OrigLen: 4 * BlockSize, CompLen: 5000, SlotLen: 8192, Tag: compress.TagLZF, Version: 1, DevOff: 0})
	if _, err := ReplayJournal(m, j.Bytes()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()

	// A truncated snapshot is corruption, not tolerated damage.
	if _, _, err := RecoverMapping(snap[:len(snap)-5], nil, NewAllocator(1<<20)); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("truncated snapshot: err = %v, want ErrBadSnapshot", err)
	}

	// An intact snapshot with a torn journal tail recovers.
	var j2 Journal
	j2.Append(&Extent{Offset: 8 * BlockSize, OrigLen: 4 * BlockSize, CompLen: 6000, SlotLen: 8192, Tag: compress.TagGZ, Version: 2, DevOff: 8192})
	j2.Append(&Extent{Offset: 16 * BlockSize, OrigLen: 4 * BlockSize, CompLen: 6000, SlotLen: 8192, Tag: compress.TagGZ, Version: 3, DevOff: 16384})
	tornJnl := j2.Bytes()[:len(j2.Bytes())-9]
	rec, records, err := RecoverMapping(snap, tornJnl, NewAllocator(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	if records != 1 {
		t.Fatalf("replayed %d records, want 1 (torn second dropped)", records)
	}
	if err := rec.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if rec.LiveBlocks() != 8 {
		t.Fatalf("live blocks = %d, want 8", rec.LiveBlocks())
	}
}

func TestPlayUntilRecoverResume(t *testing.T) {
	const cut = 500 * time.Millisecond
	tr := seqTrace(600, 2*time.Millisecond)
	opts := func() Options {
		return Options{
			Policy:      Native(),
			Data:        datagen.New(datagen.Enterprise(), 11),
			VerifyReads: true,
		}
	}

	// Phase 1: replay until the cut.
	eng1, be1 := freshSSDRig(t)
	o := opts()
	dev1, err := NewDevice(eng1, be1, 256<<20, o)
	if err != nil {
		t.Fatal(err)
	}
	st1, cs, err := dev1.PlayUntil(tr, cut)
	if err != nil {
		t.Fatal(err)
	}
	if cs.CutAt != cut {
		t.Fatalf("cut at %v, want %v", cs.CutAt, cut)
	}
	if st1.CrashLost != cs.Lost {
		t.Fatalf("stats lost %d != crash state lost %d", st1.CrashLost, cs.Lost)
	}
	if st1.Resp.Count() == 0 {
		t.Fatal("no requests completed before the cut")
	}

	// Phase 2: recover onto a fresh device and replay the remainder.
	eng2, be2 := freshSSDRig(t)
	o2 := opts()
	dev2, err := RecoverDevice(eng2, be2, 256<<20, o2, cs)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev2.se.mapping.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Strictly after the cut: an arrival at exactly cut was admitted by
	// RunUntil (events with time <= cut fire) and is completed or lost.
	rest := &trace.Trace{Name: tr.Name}
	for _, r := range tr.Requests {
		if r.Arrival > cut {
			rest.Requests = append(rest.Requests, r)
		}
	}
	st2, err := dev2.Play(rest)
	if err != nil {
		// VerifyReads is on, so a payload-regeneration bug in recovery
		// surfaces here as a content mismatch.
		t.Fatal(err)
	}
	if st2.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", st2.Recoveries)
	}
	total := st1.Resp.Count() + cs.Lost + st2.Resp.Count()
	if total != int64(len(tr.Requests)) {
		t.Fatalf("completed(%d) + lost(%d) + resumed(%d) = %d, want %d",
			st1.Resp.Count(), cs.Lost, st2.Resp.Count(), total, len(tr.Requests))
	}
}

func TestPlayUntilSecondUse(t *testing.T) {
	rig := newTestRig(t, Options{Policy: Native()})
	if _, _, err := rig.dev.PlayUntil(seqTrace(50, time.Millisecond), 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, _, err := rig.dev.PlayUntil(seqTrace(50, time.Millisecond), 10*time.Millisecond); !errors.Is(err, ErrReplayed) {
		t.Fatalf("second PlayUntil: err = %v, want ErrReplayed", err)
	}
	if _, err := rig.dev.Play(seqTrace(50, time.Millisecond)); !errors.Is(err, ErrReplayed) {
		t.Fatalf("Play after PlayUntil: err = %v, want ErrReplayed", err)
	}
}
