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

// A scaled arrival that does not fit an int64 used to convert to an
// arbitrary value: 3 h times 10⁶ came out as -2 562 047 h. It is an
// error now, as is a NaN or infinite factor.
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
