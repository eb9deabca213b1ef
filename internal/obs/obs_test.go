package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestNilCollectorHooksAreNoOps exercises every hook on a nil receiver:
// the disabled path must be safe to call unconditionally.
func TestNilCollectorHooksAreNoOps(t *testing.T) {
	var c *Collector
	c.Admit(0, 0, 4096, true, "")
	c.Defer(0, 0, 4096, false, 3)
	c.SDMerge(0, 0, 4096, 2)
	c.SDFlush(0, FlushRead, 0, 8192, 2)
	c.Estimate(0, 0, 8192, 2.5, false)
	c.PolicyChoice(0, 0, 8192, 1000, "lz4")
	c.SlotChoice(0, 0, 8192, "lz4", 3000, 4096, false)
	c.SlotAlloc(0, 4096)
	c.SlotFree(0, 0, 8192, 4096)
	c.CacheLookup(0, 0, 4096, true)
	c.Decompress(0, 0, 8192, "lz4", 3000)
	c.Absorb([]*Collector{nil})
	if c.Counters() != nil || c.Report() != nil {
		t.Fatal("nil collector must report nothing")
	}
	if c.Child(1) != nil {
		t.Fatal("nil collector must hand out nil children")
	}
}

// TestJSONLTracerValidLines checks every emitted line parses back into
// an Event.
func TestJSONLTracerValidLines(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONLTracer(&buf)
	c := New(Config{Tracer: tr})
	c.Admit(10*time.Microsecond, 4096, 8192, true, "")
	c.SDFlush(20*time.Microsecond, FlushMaxRun, 4096, 65536, 16)
	c.PolicyChoice(30*time.Microsecond, 4096, 65536, 812.5, "gz")
	c.SlotChoice(40*time.Microsecond, 4096, 65536, "gz", 20000, 32768, false)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var n int
	var seen []EventType
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		if e.Seq != int64(n) {
			t.Fatalf("line %d: seq=%d", n, e.Seq)
		}
		seen = append(seen, e.Type)
		n++
	}
	want := []EventType{EvAdmit, EvSDFlush, EvPolicy, EvSlot}
	if !reflect.DeepEqual(seen, want) {
		t.Fatalf("event types %v, want %v", seen, want)
	}
}

// TestSlotClassPct covers the quantized classes and the exact-fit
// ablation fallback.
func TestSlotClassPct(t *testing.T) {
	cases := []struct {
		orig, slot int64
		want       int
	}{
		{8192, 2048, 25},
		{8192, 4096, 50},
		{8192, 6144, 75},
		{8192, 8192, 100},
		{8192, 9000, 100}, // >= orig
		{8192, 3000, 37},  // exact-fit ablation: ceil(3000*100/8192)
		{0, 4096, 0},      // degenerate
		{4097, 1025, 25},  // quarter rounds up: (4097+3)/4 = 1025
	}
	for _, tc := range cases {
		if got := slotClassPct(tc.orig, tc.slot); got != tc.want {
			t.Errorf("slotClassPct(%d,%d)=%d want %d", tc.orig, tc.slot, got, tc.want)
		}
	}
}

// TestCountersAndReport checks counter keys and the JSON round-trip of
// the report.
func TestCountersAndReport(t *testing.T) {
	c := New(Config{SeriesInterval: time.Second})
	c.Admit(0, 0, 4096, true, "")
	c.Admit(time.Second, 4096, 4096, false, "")
	c.SDFlush(time.Second, FlushNonContig, 0, 8192, 2)
	c.Estimate(time.Second, 0, 8192, 1.1, true)
	c.PolicyChoice(time.Second, 0, 8192, 500, "lzf")
	c.SlotChoice(time.Second, 0, 8192, "lzf", 3500, 4096, false)
	c.SlotAlloc(time.Second, 4096)
	c.SlotFree(2*time.Second, 0, 8192, 4096)
	c.CacheLookup(2*time.Second, 0, 4096, false)
	c.Decompress(2*time.Second, 0, 8192, "lzf", 3500)

	got := c.Counters()
	for k, want := range map[string]int64{
		`edc_admitted_total{op="write"}`:               1,
		`edc_admitted_total{op="read"}`:                1,
		`edc_sd_flushes_total{reason="noncontig"}`:     1,
		`edc_estimates_total{verdict="write_through"}`: 1,
		`edc_policy_runs_total{codec="lzf"}`:           1,
		`edc_slots_total{class="50"}`:                  1,
		`edc_slot_waste_bytes_total`:                   596,
		`edc_slot_alloc_bytes_total`:                   4096,
		`edc_slot_free_bytes_total`:                    4096,
		`edc_cache_lookups_total{result="miss"}`:       1,
		`edc_decompress_total{codec="lzf"}`:            1,
	} {
		if got[k] != want {
			t.Errorf("counter %s = %d, want %d", k, got[k], want)
		}
	}

	r := c.Report()
	if r.Series == nil || r.Series.IntervalUS != time.Second.Microseconds() {
		t.Fatalf("series report missing or wrong interval: %+v", r.Series)
	}
	// Slot occupancy: +4096 in bin 1, -4096 in bin 2 → cumulative 0 at end.
	sb := r.Series.SlotBytes
	if len(sb) != 3 || sb[1].V != 4096 || sb[2].V != 0 {
		t.Fatalf("slot occupancy curve wrong: %+v", sb)
	}
	if len(r.Series.CIOPS) != 1 || r.Series.CIOPS[0].V != 500 {
		t.Fatalf("ciops series wrong: %+v", r.Series.CIOPS)
	}

	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Counters, r.Counters) {
		t.Fatal("counters did not round-trip through JSON")
	}
}

// TestOversizeSlotCounts verifies oversize runs hit their own counter
// and carry the reason field.
func TestOversizeSlotCounts(t *testing.T) {
	var events []Event
	c := New(Config{Tracer: TracerFunc(func(e *Event) { events = append(events, *e) })})
	c.SlotChoice(0, 0, 8192, "lz4", 7000, 8192, true)
	if got := c.Counters()["edc_slot_oversize_total"]; got != 1 {
		t.Fatalf("oversize counter = %d", got)
	}
	if len(events) != 1 || events[0].Reason != "oversize" {
		t.Fatalf("oversize event wrong: %+v", events)
	}
}

// TestAbsorbDeterministicMerge checks that children merge in
// (time, shard, seq) order regardless of child slice order.
func TestAbsorbDeterministicMerge(t *testing.T) {
	run := func(order []int) []Event {
		parent := New(Config{Tracer: TracerFunc(func(*Event) {}), SeriesInterval: time.Second})
		kids := make([]*Collector, 3)
		for i := range kids {
			kids[i] = parent.Child(i)
		}
		// Interleaved virtual times across shards.
		kids[1].Admit(5*time.Microsecond, 0, 1, true, "")
		kids[0].Admit(5*time.Microsecond, 0, 2, true, "")
		kids[2].Admit(3*time.Microsecond, 0, 3, true, "")
		kids[0].Admit(5*time.Microsecond, 0, 4, true, "")
		var out []Event
		parent.tracer = TracerFunc(func(e *Event) { out = append(out, *e) })
		shuffled := make([]*Collector, len(kids))
		for i, j := range order {
			shuffled[i] = kids[j]
		}
		parent.Absorb(shuffled)
		return out
	}
	a := run([]int{0, 1, 2})
	b := run([]int{2, 0, 1})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("merge order depends on child slice order:\n%+v\n%+v", a, b)
	}
	wantSizes := []int64{3, 2, 4, 1}
	for i, e := range a {
		if e.Size != wantSizes[i] {
			t.Fatalf("merged order wrong at %d: %+v", i, a)
		}
	}
}

// TestWritePrometheus checks exposition format basics: sorted families,
// TYPE lines, parseable samples.
func TestWritePrometheus(t *testing.T) {
	c := New(Config{})
	c.Admit(0, 0, 4096, true, "")
	c.CacheLookup(0, 0, 4096, true)
	var buf bytes.Buffer
	if err := c.Report().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# TYPE edc_admitted_total counter") {
		t.Fatalf("missing TYPE line:\n%s", out)
	}
	if !strings.Contains(out, `edc_admitted_total{op="write"} 1`) {
		t.Fatalf("missing sample:\n%s", out)
	}
	var lastFamily string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fam := line
		if i := strings.IndexByte(line, '{'); i >= 0 {
			fam = line[:i]
		}
		if fam < lastFamily {
			t.Fatalf("families not sorted: %q after %q", fam, lastFamily)
		}
		lastFamily = fam
	}
	if err := (*Report)(nil).WritePrometheus(&buf); err != nil {
		t.Fatal("nil report must write nothing without error")
	}
}

// TestSeriesMergeAcrossChildren verifies per-shard series bins sum in
// the parent.
func TestSeriesMergeAcrossChildren(t *testing.T) {
	parent := New(Config{SeriesInterval: time.Second})
	a, b := parent.Child(0), parent.Child(1)
	a.PolicyChoice(500*time.Millisecond, 0, 1, 100, "lz4")
	b.PolicyChoice(600*time.Millisecond, 0, 1, 300, "lz4")
	b.SlotAlloc(600*time.Millisecond, 1024)
	parent.Absorb([]*Collector{a, b})
	r := parent.Report()
	if len(r.Series.CIOPS) != 1 || r.Series.CIOPS[0].V != 200 {
		t.Fatalf("merged ciops mean wrong: %+v", r.Series.CIOPS)
	}
	if got := r.Series.CodecRuns["lz4"]; len(got) != 1 || got[0].V != 2 {
		t.Fatalf("merged codec runs wrong: %+v", got)
	}
	if len(r.Series.SlotBytes) != 1 || r.Series.SlotBytes[0].V != 1024 {
		t.Fatalf("merged slot occupancy wrong: %+v", r.Series.SlotBytes)
	}
}
