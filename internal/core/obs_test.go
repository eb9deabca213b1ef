package core

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"edc/internal/obs"
	"edc/internal/trace"
)

// obsRig builds a small traced device over the standard test rig.
func obsRig(t *testing.T, cfg obs.Config, opts Options) (*testRig, *obs.Collector) {
	t.Helper()
	col := obs.New(cfg)
	opts.Obs = col
	return newTestRig(t, opts), col
}

// TestSDFlushReasons drives the detector through every flush cause and
// checks each emitted sd_flush event carries the right reason.
func TestSDFlushReasons(t *testing.T) {
	var events []obs.Event
	rig, _ := obsRig(t, obs.Config{Tracer: obs.TracerFunc(func(e *obs.Event) {
		if e.Type == obs.EvSDFlush {
			events = append(events, *e)
		}
	})}, Options{})
	tuning{flushWait: -1}.apply(rig.dev) // no idle timer: reasons stay deterministic here

	const blk = BlockSize
	ms := func(n int64) time.Duration { return time.Duration(n) * time.Millisecond }
	tr := &trace.Trace{Name: "flush-reasons", Requests: []trace.Request{
		// Contiguous pair, then a jump: noncontig flush of the pair.
		{Arrival: ms(0), Offset: 0, Size: blk, Write: true},
		{Arrival: ms(1), Offset: blk, Size: blk, Write: true},
		{Arrival: ms(2), Offset: 100 * blk, Size: blk, Write: true},
		// A read flushes the pending run at 100*blk.
		{Arrival: ms(3), Offset: 0, Size: blk, Write: false},
		// Contiguous run hitting the DefaultMaxRun cap (64 KiB = 16 blocks).
		{Arrival: ms(4), Offset: 200 * blk, Size: DefaultMaxRun, Write: true},
		{Arrival: ms(5), Offset: 200*blk + DefaultMaxRun, Size: blk, Write: true},
		// The final pending run drains at end of trace.
	}}
	if _, err := rig.dev.Play(tr); err != nil {
		t.Fatal(err)
	}
	var reasons []string
	for _, e := range events {
		reasons = append(reasons, e.Reason)
	}
	want := []string{obs.FlushNonContig, obs.FlushRead, obs.FlushMaxRun, obs.FlushDrain}
	if strings.Join(reasons, ",") != strings.Join(want, ",") {
		t.Fatalf("flush reasons = %v, want %v", reasons, want)
	}
	// The noncontig flush carries both merged writes.
	if events[0].Writes != 2 || events[0].Size != 2*blk {
		t.Fatalf("first flush = %+v, want 2 writes spanning 2 blocks", events[0])
	}
}

// TestFlushTimeoutReason lets the idle timer fire and checks the flush is
// tagged "timeout".
func TestFlushTimeoutReason(t *testing.T) {
	var reasons []string
	rig, _ := obsRig(t, obs.Config{Tracer: obs.TracerFunc(func(e *obs.Event) {
		if e.Type == obs.EvSDFlush {
			reasons = append(reasons, e.Reason)
		}
	})}, Options{})
	tr := &trace.Trace{Name: "timeout", Requests: []trace.Request{
		{Arrival: 0, Offset: 0, Size: BlockSize, Write: true},
		// Next arrival far beyond DefaultFlushTimeout: the timer wins.
		{Arrival: time.Second, Offset: 0, Size: BlockSize, Write: false},
	}}
	if _, err := rig.dev.Play(tr); err != nil {
		t.Fatal(err)
	}
	if len(reasons) == 0 || reasons[0] != obs.FlushTimeout {
		t.Fatalf("flush reasons = %v, want a leading %q", reasons, obs.FlushTimeout)
	}
}

// TestDeviceObsCountersMatchStats cross-checks the collector's counters
// against the independently maintained RunStats aggregates.
func TestDeviceObsCountersMatchStats(t *testing.T) {
	rig, col := obsRig(t, obs.Config{SeriesInterval: time.Second}, Options{})
	tr := seqTrace(800, 200*time.Microsecond)
	stats, err := rig.dev.Play(tr)
	if err != nil {
		t.Fatal(err)
	}
	c := col.Counters()
	if got := c[`edc_admitted_total{op="write"}`] + c[`edc_admitted_total{op="read"}`]; got != stats.Requests {
		t.Errorf("admitted counter %d != stats.Requests %d", got, stats.Requests)
	}
	if got := c[`edc_estimates_total{verdict="write_through"}`]; got != stats.WriteThrough {
		t.Errorf("write-through counter %d != stats.WriteThrough %d", got, stats.WriteThrough)
	}
	if got := c[`edc_slot_oversize_total`]; got != stats.Oversize {
		t.Errorf("oversize counter %d != stats.Oversize %d", got, stats.Oversize)
	}
	var flushes int64
	for k, v := range c {
		if strings.HasPrefix(k, "edc_sd_flushes_total{") {
			flushes += v
		}
	}
	if flushes != stats.SDRuns {
		t.Errorf("flush counters sum %d != stats.SDRuns %d", flushes, stats.SDRuns)
	}
	if got := c["edc_sd_merged_total"]; got != stats.SDMerged {
		t.Errorf("merged counter %d != stats.SDMerged %d", got, stats.SDMerged)
	}
	if stats.Obs == nil || stats.Obs.Series == nil {
		t.Fatal("RunStats.Obs missing the series snapshot")
	}
}

// TestRunStatsFormatIncludesRates pins the satellite fix: the canonical
// report and the one-line summary both carry write-through and oversize
// rates.
func TestRunStatsFormatIncludesRates(t *testing.T) {
	rs := newRunStats("EDC", "tr", "be")
	rs.SDRuns = 200
	rs.WriteThrough = 50
	rs.Oversize = 10
	if got := rs.WriteThroughRate(); got != 0.25 {
		t.Fatalf("WriteThroughRate = %v", got)
	}
	if got := rs.OversizeRate(); got != 0.05 {
		t.Fatalf("OversizeRate = %v", got)
	}
	f := rs.Format()
	for _, want := range []string{"write-through=50 (25.0%)", "oversize=10 (5.0%)"} {
		if !strings.Contains(f, want) {
			t.Errorf("Format() missing %q:\n%s", want, f)
		}
	}
	s := rs.String()
	for _, want := range []string{"wt=25.0%", "ovr=5.0%"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q: %s", want, s)
		}
	}
	var zero RunStats
	if zero.WriteThroughRate() != 0 || zero.OversizeRate() != 0 {
		t.Error("zero-run rates must be 0")
	}
}

// TestReportCodecNames checks the JSON report keys codec maps by name.
func TestReportCodecNames(t *testing.T) {
	rig, _ := obsRig(t, obs.Config{}, Options{})
	stats, err := rig.dev.Play(seqTrace(600, 200*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	rep := stats.Report()
	var runs int64
	for name, n := range rep.RunsByCodec {
		if name == "" {
			t.Error("empty codec name in report")
		}
		runs += n
	}
	var want int64
	for _, n := range stats.RunsByTag {
		want += n
	}
	if runs != want {
		t.Errorf("report runs %d != stats runs %d", runs, want)
	}
	if _, err := json.Marshal(rep); err != nil {
		t.Fatal(err)
	}
}
