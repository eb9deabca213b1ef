package core

import (
	"testing"
	"time"

	"edc/internal/datagen"
	"edc/internal/maint"
	"edc/internal/trace"
)

// maintTestConfig returns an aggressive maintenance policy for unit
// tests: every tick is idle, epochs are short, and extents go cold
// after two quiet epochs.
func maintTestConfig() *maint.Config {
	return &maint.Config{
		Interval:   10 * time.Millisecond,
		IdleIOPS:   1e9, // every tick idle: the tests control timing
		EpochLen:   20 * time.Millisecond,
		ColdEpochs: 2,
	}
}

// TestMaintColdRelocation writes a region without compression, lets it
// go cold while sparse traffic elsewhere keeps the event loop alive,
// and expects maintenance to recompress it — then re-reads the region
// so verify-mode catches any corruption the move introduced.
func TestMaintColdRelocation(t *testing.T) {
	rig := newTestRig(t, Options{
		Policy: Native(), // every extent lands uncompressed: all cold candidates
		Maint:  maintTestConfig(),
	})
	tr := &trace.Trace{Name: "maint-cold"}
	// Region A: written once at the start, then untouched.
	for i := 0; i < 16; i++ {
		tr.Requests = append(tr.Requests, trace.Request{
			Arrival: time.Duration(i) * time.Millisecond,
			Offset:  int64(i) * 16384, Size: 16384, Write: true,
		})
	}
	// Region B: sparse reads keep the engine (and the maintenance
	// scheduler) running while region A crosses the cold threshold.
	for i := 0; i < 40; i++ {
		tr.Requests = append(tr.Requests, trace.Request{
			Arrival: 50*time.Millisecond + time.Duration(i)*25*time.Millisecond,
			Offset:  8 << 20, Size: 4096, Write: i == 0,
		})
	}
	// Re-read region A at the end: the relocated extents must still
	// round-trip under verification.
	for i := 0; i < 16; i++ {
		tr.Requests = append(tr.Requests, trace.Request{
			Arrival: 1100*time.Millisecond + time.Duration(i)*time.Millisecond,
			Offset:  int64(i) * 16384, Size: 16384,
		})
	}
	tr.SortByArrival()
	st, err := rig.dev.Play(tr)
	if err != nil {
		t.Fatalf("play: %v", err)
	}
	if st.MaintTicks == 0 || st.MaintIdleTicks == 0 {
		t.Fatalf("maintenance never ticked: ticks=%d idle=%d", st.MaintTicks, st.MaintIdleTicks)
	}
	if st.MaintCold == 0 {
		t.Fatalf("no cold relocations: %+v", st)
	}
	if st.MaintReclaimed <= 0 {
		t.Fatalf("cold relocations reclaimed nothing: %d", st.MaintReclaimed)
	}
	if st.MaintHot != 0 {
		t.Fatalf("unexpected hot relocations %d with no hot codec traffic", st.MaintHot)
	}
	if len(st.HeatHist) != maint.HistBuckets {
		t.Fatalf("heat histogram %v, want %d buckets", st.HeatHist, maint.HistBuckets)
	}
	if err := rig.dev.se.mapping.CheckInvariants(); err != nil {
		t.Fatalf("mapping inconsistent after maintenance: %v", err)
	}
}

// TestMaintHotDemotion stores gz-compressed extents, hammers them with
// reads to push their heat over the threshold, and expects maintenance
// to demote them to the cheap codec.
func TestMaintHotDemotion(t *testing.T) {
	reg := defaultTestRegistry(t)
	gz, err := reg.ByName("gz")
	if err != nil {
		t.Fatal(err)
	}
	cfg := maintTestConfig()
	cfg.HotHits = 3
	cfg.EpochLen = 500 * time.Millisecond // hits accumulate within one epoch
	rig := newTestRig(t, Options{
		Policy: Fixed("Gzip", gz),
		// Source-like content: compressible enough that every write lands
		// as a gz extent (hot candidates need a heavy codec to demote).
		Data:  datagen.New(datagen.LinuxSrc(), 7),
		Maint: cfg,
	})
	tr := &trace.Trace{Name: "maint-hot"}
	for i := 0; i < 8; i++ {
		tr.Requests = append(tr.Requests, trace.Request{
			Arrival: time.Duration(i) * time.Millisecond,
			Offset:  int64(i) * 16384, Size: 16384, Write: true,
		})
	}
	// Read the same region over and over: each read bumps every touched
	// extent's heat, crossing HotHits well before the trace ends.
	for i := 0; i < 80; i++ {
		tr.Requests = append(tr.Requests, trace.Request{
			Arrival: 20*time.Millisecond + time.Duration(i)*10*time.Millisecond,
			Offset:  int64(i%8) * 16384, Size: 16384,
		})
	}
	tr.SortByArrival()
	st, err := rig.dev.Play(tr)
	if err != nil {
		t.Fatalf("play: %v", err)
	}
	if st.MaintHot == 0 {
		t.Fatalf("no hot demotions: %+v", st)
	}
	if err := rig.dev.se.mapping.CheckInvariants(); err != nil {
		t.Fatalf("mapping inconsistent after maintenance: %v", err)
	}
}

// TestMaintDisabledNoEffect replays a trace with maintenance absent: no
// tick may run and no heat histogram may be reported.
func TestMaintDisabledNoEffect(t *testing.T) {
	rig := newTestRig(t, Options{})
	st, err := rig.dev.Play(seqTrace(400, 2*time.Millisecond))
	if err != nil {
		t.Fatalf("play: %v", err)
	}
	if st.MaintTicks != 0 || st.HeatHist != nil {
		t.Fatalf("maintenance ran while absent: %d ticks, heat histogram %v", st.MaintTicks, st.HeatHist)
	}
}

// TestMaintRelocateJournaled runs maintenance under an armed journal
// and checks every relocation produced a replayable relocate record:
// the journal recovers onto the pre-run snapshot to the same mapping.
// PlayUntil (cut after the trace drains) journals the whole run with no
// checkpoint folding records away mid-flight.
func TestMaintRelocateJournaled(t *testing.T) {
	rig := newTestRig(t, Options{
		Policy: Native(),
		Maint:  maintTestConfig(),
	})
	tr := &trace.Trace{Name: "maint-journal"}
	for i := 0; i < 16; i++ {
		tr.Requests = append(tr.Requests, trace.Request{
			Arrival: time.Duration(i) * time.Millisecond,
			Offset:  int64(i) * 16384, Size: 16384, Write: true,
		})
	}
	for i := 0; i < 40; i++ {
		tr.Requests = append(tr.Requests, trace.Request{
			Arrival: 50*time.Millisecond + time.Duration(i)*25*time.Millisecond,
			Offset:  8 << 20, Size: 4096, Write: i == 0,
		})
	}
	tr.SortByArrival()
	st, cs, err := rig.dev.PlayUntil(tr, 10*time.Second)
	if err != nil {
		t.Fatalf("play: %v", err)
	}
	if cs.Lost != 0 {
		t.Fatalf("cut after the trace drained still lost %d requests", cs.Lost)
	}
	if st.MaintRelocations == 0 {
		t.Fatal("no relocations; the journal check needs at least one")
	}
	if got := rig.dev.per.jnl.Relocations(); got != int(st.MaintRelocations) {
		t.Fatalf("journal has %d relocate records, stats say %d",
			got, st.MaintRelocations)
	}
	m, _, err := RecoverMapping(cs.Snapshot, cs.Journal, NewAllocator(rig.dev.se.alloc.Capacity()))
	if err != nil {
		t.Fatalf("recovery over relocate records: %v", err)
	}
	if got, want := m.LiveBlocks(), rig.dev.se.mapping.LiveBlocks(); got != want {
		t.Fatalf("recovered %d live blocks, live mapping has %d", got, want)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("recovered mapping inconsistent: %v", err)
	}
}

// TestMergeRunStatsHeatHist checks the shard-merge path sums heat
// histograms element-wise, growing the output as needed (a shard
// without maintenance contributes a nil histogram).
func TestMergeRunStatsHeatHist(t *testing.T) {
	a := &RunStats{HeatHist: []int64{1, 2, 3, 0, 0}, MaintCold: 2, MaintReclaimed: 100}
	b := &RunStats{HeatHist: []int64{4, 0, 1, 1, 5}, MaintCold: 3, MaintReclaimed: 50}
	c := &RunStats{} // no maintenance on this shard
	out := MergeRunStats([]*RunStats{a, b, c})
	want := []int64{5, 2, 4, 1, 5}
	if len(out.HeatHist) != len(want) {
		t.Fatalf("merged histogram %v, want %v", out.HeatHist, want)
	}
	for i := range want {
		if out.HeatHist[i] != want[i] {
			t.Fatalf("merged histogram %v, want %v", out.HeatHist, want)
		}
	}
	if out.MaintCold != 5 || out.MaintReclaimed != 150 {
		t.Fatalf("merged maint counters cold=%d reclaimed=%d", out.MaintCold, out.MaintReclaimed)
	}
}
