package core

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"edc/internal/compress"
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
	// extent's heat, crossing maint.HotHits well before the trace ends.
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

// TestMaintNoWinKeepsNoDeadExtent stores incompressible extents, lets
// maintenance find that a cold re-encode wins no space on them, then
// overwrites them. Once the run is over nothing may keep a replaced
// extent alive: the no-win mark lives on the extent, not in a table the
// maintainer keeps for the device's life.
func TestMaintNoWinKeepsNoDeadExtent(t *testing.T) {
	rig := newTestRig(t, Options{
		Policy: Native(),
		Maint:  maintTestConfig(),
		Data:   datagen.New(datagen.Media(), 11),
	})
	const extents = 16
	tr := &trace.Trace{Name: "maint-nowin"}
	for _, at := range []time.Duration{0, 700 * time.Millisecond} {
		for i := 0; i < extents; i++ {
			tr.Requests = append(tr.Requests, trace.Request{
				Arrival: at + time.Duration(i)*time.Millisecond,
				Offset:  int64(i) * 16384, Size: 16384, Write: true,
			})
		}
	}
	for i := 0; i < 44; i++ { // keeps the maintenance scheduler ticking
		tr.Requests = append(tr.Requests, trace.Request{
			Arrival: 50*time.Millisecond + time.Duration(i)*25*time.Millisecond,
			Offset:  8 << 20, Size: 4096, Write: i == 0,
		})
	}
	tr.SortByArrival()

	// Before the overwrite, put a finalizer on every extent marked no-win.
	freed := make(chan struct{}, extents)
	marked := 0
	rig.eng.Schedule(600*time.Millisecond, func() {
		var prev *Extent
		for _, e := range rig.dev.se.mapping.table[:extents*16384/BlockSize] {
			if e != nil && e != prev && e.noWin {
				marked++
				runtime.SetFinalizer(e, func(*Extent) { freed <- struct{}{} })
			}
			prev = e
		}
	})
	st, err := rig.dev.Play(tr)
	if err != nil {
		t.Fatalf("play: %v", err)
	}
	if marked == 0 {
		t.Fatalf("no extent was marked no-win (%d cold moves, %d aborted)", st.MaintCold, st.MaintAborted)
	}
	runtime.GC()
	for got := 0; got < marked; got++ {
		select {
		case <-freed:
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d overwritten no-win extents are still reachable", marked-got, marked)
		}
	}
	runtime.KeepAlive(rig.dev) // the device, not its collection, must let go
}

// TestWinLimit holds winLimit to replacement's own rule — a cold move
// wins when its output fits a compressed slot smaller than the extent's
// — quantized and with exact slots, for a slot at every class: the
// table's limit, and every output length up to OrigLen+1 through
// storeEngine.encoded.
func TestWinLimit(t *testing.T) {
	gz, err := defaultTestRegistry(t).ByName("gz")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		orig, slot   int64
		quant, exact int
	}{
		{1, 1, -1, -1},
		{5, 2, -1, 1}, {5, 3, -1, 2}, {5, 4, 2, 3}, {5, 5, 4, 4},
		{4096, 1024, -1, 1023}, {4096, 2048, 1024, 2047}, {4096, 3072, 2048, 3071}, {4096, 4096, 3072, 3072},
		{65537, 16385, -1, 16384}, {65537, 32770, 16385, 32769}, {65537, 49155, 32770, 49154}, {65537, 65537, 49155, 49155},
	}
	payload := make([]byte, 65538)
	for _, c := range cases {
		for _, exact := range []bool{false, true} {
			want := c.quant
			if exact {
				want = c.exact
			} else if s, _ := QuantizeSlot(c.orig, c.slot); s != c.slot {
				continue // not a quantized slot: only exact slots hold it
			}
			e := &Extent{OrigLen: c.orig, SlotLen: c.slot}
			if got := winLimit(e, exact); got != want {
				t.Errorf("OrigLen %d, slot %d, exact %v: winLimit %d, want %d", c.orig, c.slot, exact, got, want)
			}
			se := &storeEngine{exactSlots: exact}
			for n := 1; n <= int(c.orig)+1; n++ {
				ext, _, fits := se.encoded(0, c.orig, 0, gz, nil, payload[:n])
				if wins := fits && ext.SlotLen < c.slot; wins != (n <= want) {
					t.Fatalf("OrigLen %d, slot %d, exact %v: a %d-byte output wins %v, winLimit %d", c.orig, c.slot, exact, n, wins, want)
				}
			}
		}
	}
}

// unbounded hides a codec's BoundedAppender method, so a budgeted encode
// of it runs the whole encode and then checks the length.
type unbounded struct{ compress.Codec }

// TestMaintBudgetedEncodeChangesNothing replays cold relocations of lzf
// extents at every slot class and of raw ones, some of which win and
// some not, twice: once as built and once with the cold codec's budgeted
// encode hidden. Cutting an encode short must change no decision, so
// the two reports must be equal, field for field.
func TestMaintBudgetedEncodeChangesNothing(t *testing.T) {
	lzf, err := defaultTestRegistry(t).ByName("lzf")
	if err != nil {
		t.Fatal(err)
	}
	tr := &trace.Trace{Name: "maint-budget"}
	for i := 0; i < 64; i++ {
		tr.Requests = append(tr.Requests, trace.Request{
			Arrival: time.Duration(i) * time.Millisecond,
			Offset:  int64(i) * 16384, Size: 4096 << (i % 3), Write: true,
		})
	}
	for i := 0; i < 40; i++ {
		tr.Requests = append(tr.Requests, trace.Request{
			Arrival: 100*time.Millisecond + time.Duration(i)*25*time.Millisecond,
			Offset:  8 << 20, Size: 4096, Write: i == 0,
		})
	}
	tr.SortByArrival()
	for _, exact := range []bool{false, true} {
		play := func(hide bool) *RunStats {
			rig := newTestRig(t, Options{
				Policy:     Fixed("Lzf", lzf),
				Maint:      maintTestConfig(),
				ExactSlots: exact,
			})
			if _, ok := rig.dev.mnt.cold.(compress.BoundedAppender); !ok {
				t.Fatal("the cold codec has no budgeted encode to hide")
			}
			if hide {
				rig.dev.mnt.cold = unbounded{rig.dev.mnt.cold}
			}
			st, err := rig.dev.Play(tr)
			if err != nil {
				t.Fatalf("play: %v", err)
			}
			return st
		}
		got, want := play(false), play(true)
		if want.MaintCold == 0 || want.MaintAborted == 0 {
			t.Fatalf("exact %v: %d cold moves, %d aborted: the trace must show both a win and a no-win", exact, want.MaintCold, want.MaintAborted)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("exact %v: the budgeted encode changed the run:\n%+v\nwant\n%+v", exact, got, want)
		}
	}
}

// levelMeter reports a settable calculated IOPS.
type levelMeter struct{ iops float64 }

func (*levelMeter) Record(time.Duration, int64)       {}
func (m *levelMeter) Intensity(time.Duration) float64 { return m.iops }

// TestMaintTickBudget drives the maintenance timer's tick by hand over
// a table of cold uncompressed extents: a busy tick starts nothing, an
// idle one starts at most maint.BudgetPerTick relocations, and the next
// idle tick goes on from where the scan stopped.
func TestMaintTickBudget(t *testing.T) {
	meter := &levelMeter{iops: 2e9} // above maintTestConfig's 1e9 ceiling
	rig := newTestRig(t, Options{Policy: Native(), Maint: maintTestConfig(), Meter: meter})
	se, mt := rig.dev.se, rig.dev.mnt
	const extents = 3*maint.BudgetPerTick - 1
	for i := int64(0); i < extents; i++ {
		mkExtent(t, se.mapping, se.alloc, i*16384, 16384, compress.TagNone)
	}
	rig.eng.RunUntil(time.Second) // 50 epochs: every extent is cold
	st := rig.dev.stats
	if !mt.tick() || st.MaintTicks != 1 || st.MaintIdleTicks != 0 || len(mt.relocating) != 0 {
		t.Fatalf("busy tick: ticks %d, idle %d, %d relocations started", st.MaintTicks, st.MaintIdleTicks, len(mt.relocating))
	}
	meter.iops = 0
	for tick, want := range []int{maint.BudgetPerTick, 2 * maint.BudgetPerTick, extents} {
		if !mt.tick() || st.MaintIdleTicks != int64(tick+1) || len(mt.relocating) != want {
			t.Fatalf("idle tick %d: %d idle ticks, %d relocations in flight, want %d", tick+1, st.MaintIdleTicks, len(mt.relocating), want)
		}
	}
}
