package trace

import (
	"math"
	"testing"
	"time"
)

func sampleTrace() *Trace {
	return &Trace{Name: "s", Requests: []Request{
		{Arrival: 0, Offset: 0, Size: 4096, Write: true},
		{Arrival: time.Second, Offset: 8192, Size: 4096},
		{Arrival: 2 * time.Second, Offset: 16384, Size: 8192, Write: true},
		{Arrival: 3 * time.Second, Offset: 4096, Size: 4096},
	}}
}

func TestScaleTime(t *testing.T) {
	tr := sampleTrace()
	fast, err := tr.ScaleTime(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Duration() != 1500*time.Millisecond {
		t.Fatalf("duration = %v", fast.Duration())
	}
	if tr.Duration() != 3*time.Second {
		t.Fatal("original mutated")
	}
	if fast.Stats().AvgIOPS <= tr.Stats().AvgIOPS {
		t.Fatal("acceleration should raise IOPS")
	}
	if _, err := tr.ScaleTime(0); err == nil {
		t.Fatal("zero factor should fail")
	}
	if _, err := tr.ScaleTime(-1); err == nil {
		t.Fatal("negative factor should fail")
	}
}

func TestWindow(t *testing.T) {
	tr := sampleTrace()
	w := tr.Window(time.Second, 3*time.Second)
	if len(w.Requests) != 2 {
		t.Fatalf("window kept %d requests", len(w.Requests))
	}
	if w.Requests[0].Arrival != 0 {
		t.Fatalf("window not rebased: %v", w.Requests[0].Arrival)
	}
	if w.Requests[1].Arrival != time.Second {
		t.Fatalf("second arrival = %v", w.Requests[1].Arrival)
	}
	empty := tr.Window(10*time.Second, 20*time.Second)
	if len(empty.Requests) != 0 {
		t.Fatal("out-of-range window should be empty")
	}
}

func TestFilterOps(t *testing.T) {
	tr := sampleTrace()
	reads := tr.FilterOps(true, false)
	writes := tr.FilterOps(false, true)
	both := tr.FilterOps(true, true)
	none := tr.FilterOps(false, false)
	if len(reads.Requests) != 2 || len(writes.Requests) != 2 {
		t.Fatalf("filter counts = %d/%d", len(reads.Requests), len(writes.Requests))
	}
	for _, r := range reads.Requests {
		if r.Write {
			t.Fatal("read filter kept a write")
		}
	}
	if len(both.Requests) != 4 || len(none.Requests) != 0 {
		t.Fatal("both/none filters wrong")
	}
}

func TestConcat(t *testing.T) {
	a := sampleTrace()
	b := sampleTrace()
	c := a.Concat(b, time.Second)
	if len(c.Requests) != 8 {
		t.Fatalf("concat length = %d", len(c.Requests))
	}
	// b's first request lands at a.Duration()+gap = 4s.
	if c.Requests[4].Arrival != 4*time.Second {
		t.Fatalf("second phase starts at %v", c.Requests[4].Arrival)
	}
	if c.Duration() != 7*time.Second {
		t.Fatalf("total duration = %v", c.Duration())
	}
	// Original traces untouched.
	if len(a.Requests) != 4 || b.Requests[0].Arrival != 0 {
		t.Fatal("inputs mutated")
	}
}

func TestScaleOffsets(t *testing.T) {
	tr := sampleTrace()
	half, err := tr.ScaleOffsets(0.5, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if half.Requests[2].Offset != 8192 {
		t.Fatalf("offset = %d; want 8192", half.Requests[2].Offset)
	}
	for _, r := range half.Requests {
		if r.Offset%4096 != 0 {
			t.Fatalf("offset %d unaligned", r.Offset)
		}
	}
	if _, err := tr.ScaleOffsets(1, 3); err == nil {
		t.Fatal("non-power-of-two align should fail")
	}
	if _, err := tr.ScaleOffsets(-1, 4096); err == nil {
		t.Fatal("negative factor should fail")
	}
}

// A scaled arrival or offset that does not fit an int64 used to convert
// to an arbitrary value: 3 h times 10⁶ came out as -2 562 047 h, and an
// offset of 2^40 times 10⁷ as -2^63. Both are errors now, as is a NaN or
// infinite factor.
func TestScaleTimeOutOfRange(t *testing.T) {
	tr := &Trace{Requests: []Request{{Arrival: time.Second}, {Arrival: 3 * time.Hour}}}
	for _, factor := range []float64{1e6, math.Inf(1), math.NaN()} {
		if got, err := tr.ScaleTime(factor); err == nil {
			t.Errorf("ScaleTime(%v) = %v, want an error", factor, got.Requests)
		}
	}
	slow, err := tr.ScaleTime(1e3)
	if err != nil {
		t.Fatal(err)
	}
	if slow.Duration() != 3000*time.Hour {
		t.Fatalf("duration = %v; want 3000h", slow.Duration())
	}
}

func TestScaleOffsetsOutOfRange(t *testing.T) {
	tr := &Trace{Requests: []Request{{Offset: 4096, Size: 4096}, {Offset: 1 << 40, Size: 4096}}}
	for _, factor := range []float64{1e7, math.Inf(1), math.NaN()} {
		if got, err := tr.ScaleOffsets(factor, 4096); err == nil {
			t.Errorf("ScaleOffsets(%v) = %v, want an error", factor, got.Requests)
		}
	}
	wide, err := tr.ScaleOffsets(1e6, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if got := wide.Requests[1].Offset; got != 1<<40*1e6 {
		t.Fatalf("offset = %d; want %d", got, int64(1<<40*1e6))
	}
}
