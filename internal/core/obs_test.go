package core

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"edc/internal/datagen"
	"edc/internal/dedup"
	"edc/internal/fault"
	"edc/internal/obs"
	"edc/internal/qos"
	"edc/internal/sim"
	"edc/internal/ssd"
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

// countersRig replays a tagged, bursty trace of mixed sizes on a RAIS5
// device with dedup, maintenance, a fault plan and QoS shaping on, so
// that every collector counter with a RunStats twin moves.
func countersRig(t *testing.T) (*RunStats, map[string]int64) {
	t.Helper()
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
	elastic, _ := DefaultElastic(defaultTestRegistry(t))
	col := obs.New(obs.Config{SeriesInterval: time.Second})
	dev, err := NewDevice(eng, NewArrayBackend(eng, arr), 256<<20, Options{
		Policy: elastic, Obs: col,
		Data:   datagen.New(datagen.Enterprise().WithDup(0.5, 4), 5),
		Dedup:  &dedup.Config{},
		Maint:  maintTestConfig(),
		Faults: &fault.Plan{Seed: 9, ReadTransient: 0.03, ReadHard: 0.03, WriteTransient: 0.05, WriteHard: 0.01},
		QoS: &qos.Config{Tenants: map[string]qos.Tenant{
			"web":   {Class: qos.ClassLatency},
			"batch": {Class: qos.ClassBulk, Bandwidth: "1M", BurstBytes: 32 << 10, MaxDeferred: 2},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := &trace.Trace{Name: "counters"}
	for i := 0; i < 480; i++ {
		// Bursts of 96 requests share a stamp, which overfills the
		// closed-loop bound, then the device idles for maintenance.
		r := trace.Request{Arrival: time.Duration(i/96) * 25 * time.Millisecond,
			Offset: int64(i*37%2048) * BlockSize, Size: int64(1+i*7%16) * BlockSize,
			Write: i%4 != 3, Tenant: "web"}
		if i%3 == 0 {
			r.Tenant = "batch"
		}
		if prev := len(tr.Requests) - 1; i%6 == 1 {
			r.Offset = tr.Requests[prev].Offset + tr.Requests[prev].Size // one for the detector to merge
		}
		tr.Requests = append(tr.Requests, r)
	}
	stats, err := dev.Play(tr)
	if err != nil {
		t.Fatal(err)
	}
	return stats, col.Counters()
}

// TestDeviceObsCountersMatchStats cross-checks every collector counter
// that has a RunStats twin against it. Where a pair differs by
// definition, the twin's row in runStats or tenantStats says how.
func TestDeviceObsCountersMatchStats(t *testing.T) {
	stats, c := countersRig(t)
	sum := func(family string) int64 {
		var n int64
		for k, v := range c {
			if k == family || strings.HasPrefix(k, family+"{") {
				n += v
			}
		}
		return n
	}
	for _, p := range []struct {
		counter string
		got     int64
		stat    string
		want    int64
	}{
		{"edc_admitted_total", sum("edc_admitted_total"), "Requests", stats.Requests},
		{"edc_estimates_total{write_through}", c[`edc_estimates_total{verdict="write_through"}`], "WriteThrough", stats.WriteThrough},
		{"edc_slot_oversize_total", c["edc_slot_oversize_total"], "Oversize", stats.Oversize},
		{"edc_sd_flushes_total", sum("edc_sd_flushes_total"), "SDRuns", stats.SDRuns},
		{"edc_sd_merged_total", c["edc_sd_merged_total"], "SDMerged", stats.SDMerged},
		{"edc_dedup_hits_total", c["edc_dedup_hits_total"], "DedupHits", stats.DedupHits},
		{"edc_dedup_misses_total", c["edc_dedup_misses_total"], "DedupMisses", stats.DedupMisses},
		{"edc_dedup_saved_bytes_total", c["edc_dedup_saved_bytes_total"], "DedupBytesSaved", stats.DedupBytesSaved},
		{"edc_dedup_unrefs_total", c["edc_dedup_unrefs_total"], "DedupUnrefs", stats.DedupUnrefs},
		{"edc_maint_recompress_total", sum("edc_maint_recompress_total"), "MaintRelocations", stats.MaintRelocations},
		{"edc_maint_recompress_total{cold}", c[`edc_maint_recompress_total{reason="cold"}`], "MaintCold", stats.MaintCold},
		{"edc_maint_recompress_total{hot}", c[`edc_maint_recompress_total{reason="hot"}`], "MaintHot", stats.MaintHot},
		{"edc_maint_compactions_total", c["edc_maint_compactions_total"], "MaintCompactions", stats.MaintCompactions},
		{"edc_maint_coalesced_total", c["edc_maint_coalesced_total"], "MaintCoalesced", stats.MaintCoalesced},
		{"edc_faults_total", sum("edc_faults_total"), "Faults", stats.Faults},
		{"edc_retries_total", sum("edc_retries_total"), "FaultRetries", stats.FaultRetries},
		{"edc_degraded_reads_total", c["edc_degraded_reads_total"], "DegradedReads", stats.DegradedReads},
		{"edc_recoveries_total{realloc}", c[`edc_recoveries_total{reason="realloc"}`], "WriteReallocs", stats.WriteReallocs},
		{"edc_recoveries_total{read_abandon}", c[`edc_recoveries_total{reason="read_abandon"}`], "UnrecoveredReads", stats.UnrecoveredReads},
	} {
		if p.got != p.want {
			t.Errorf("%s = %d, RunStats.%s = %d", p.counter, p.got, p.stat, p.want)
		}
	}
	// The collector adds only positive savings; MaintReclaimed is net.
	if got := c["edc_maint_reclaimed_bytes_total"]; got < stats.MaintReclaimed {
		t.Errorf("edc_maint_reclaimed_bytes_total = %d below the net RunStats.MaintReclaimed %d", got, stats.MaintReclaimed)
	}
	for name, ts := range stats.Tenants {
		label := fmt.Sprintf("{tenant=%q}", name)
		if got := c["edc_tenant_requests_total"+label]; got != ts.Requests {
			t.Errorf("edc_tenant_requests_total%s = %d, Requests = %d", label, got, ts.Requests)
		}
		if got := c["edc_tenant_shaped_total"+label]; got != ts.Shaped {
			t.Errorf("edc_tenant_shaped_total%s = %d, Shaped = %d", label, got, ts.Shaped)
		}
		if got := c["edc_tenant_rejected_total"+label]; got != ts.Rejected {
			t.Errorf("edc_tenant_rejected_total%s = %d, Rejected = %d", label, got, ts.Rejected)
		}
		// The counter sums each delay's whole microseconds, so it may
		// fall short of the summed delay by under a microsecond a
		// request.
		got, want := c["edc_tenant_shape_delay_us_total"+label], ts.ShapeDelay.Microseconds()
		if got > want || got < want-ts.Shaped {
			t.Errorf("edc_tenant_shape_delay_us_total%s = %d, ShapeDelay = %v", label, got, ts.ShapeDelay)
		}
	}
	// Every pair above must have moved, or it compared zeros.
	b := stats.Tenants["batch"]
	for name, n := range map[string]int64{
		"DedupHits": stats.DedupHits, "DedupUnrefs": stats.DedupUnrefs, "MaintRelocations": stats.MaintRelocations,
		"MaintCompactions": stats.MaintCompactions, "MaintCoalesced": stats.MaintCoalesced,
		"DegradedReads": stats.DegradedReads, "WriteReallocs": stats.WriteReallocs,
		"batch Shaped": b.Shaped, "batch Rejected": b.Rejected, "SDMerged": stats.SDMerged,
	} {
		if n == 0 {
			t.Errorf("%s is zero: the rig does not exercise it", name)
		}
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
	b, err := json.Marshal(stats.Report())
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		RunsByCodec map[string]int64 `json:"runs_by_codec"`
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatal(err)
	}
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
}
