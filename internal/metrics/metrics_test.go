package metrics

import (
	"math"
	"testing"
	"time"
)

func TestLatencyHistPercentiles(t *testing.T) {
	h := NewLatencyHist()
	// 100 observations: 1ms..100ms
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	p50 := h.Percentile(50)
	if p50 < 40*time.Millisecond || p50 > 55*time.Millisecond {
		t.Fatalf("p50 = %v; want ~50ms", p50)
	}
	p99 := h.Percentile(99)
	if p99 < 90*time.Millisecond || p99 > 100*time.Millisecond {
		t.Fatalf("p99 = %v; want ~99ms", p99)
	}
	mean := h.Mean()
	if mean < 49*time.Millisecond || mean > 52*time.Millisecond {
		t.Fatalf("mean = %v; want ~50.5ms", mean)
	}
}

func TestLatencyHistEdges(t *testing.T) {
	h := NewLatencyHist()
	if h.Percentile(50) != 0 || h.Mean() != 0 {
		t.Fatal("empty hist should report zero")
	}
	h.Observe(0)               // below 1µs clamps to first bucket
	h.Observe(10 * time.Hour)  // overflow
	h.Observe(3 * time.Second) // normal
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
	if p := h.Percentile(0); p > 2*time.Microsecond {
		t.Fatalf("p0 = %v; want ~1µs", p)
	}
	if p := h.Percentile(-5); p > 2*time.Microsecond {
		t.Fatalf("clamped negative percentile = %v", p)
	}
	_ = h.Percentile(200) // clamped, must not panic
}

func TestLatencyHistAccuracy(t *testing.T) {
	h := NewLatencyHist()
	v := 12345 * time.Microsecond
	for i := 0; i < 1000; i++ {
		h.Observe(v)
	}
	got := h.Percentile(50)
	relErr := math.Abs(float64(got-v)) / float64(v)
	if relErr > 0.07 {
		t.Fatalf("p50 = %v for constant %v (rel err %.3f)", got, v, relErr)
	}
}

func TestLatencyHistEmptyPercentiles(t *testing.T) {
	h := NewLatencyHist()
	for _, p := range []float64{-1, 0, 50, 99, 100, 200} {
		if got := h.Percentile(p); got != 0 {
			t.Fatalf("empty hist p%v = %v; want 0", p, got)
		}
	}
	var zero *LatencyHist
	h.Merge(zero) // nil merge must be a no-op
	if h.Count() != 0 {
		t.Fatalf("count after nil merge = %d", h.Count())
	}
}

func TestLatencyHistSingleBucket(t *testing.T) {
	h := NewLatencyHist()
	v := 100 * time.Microsecond
	h.Observe(v)
	// With one observation every percentile lands in the same bucket,
	// whose lower bound is at most the observed value and within the
	// histogram's ~1/16 relative bucket width below it.
	lo := h.Percentile(0)
	for _, p := range []float64{0, 1, 50, 99, 100} {
		got := h.Percentile(p)
		if got != lo {
			t.Fatalf("p%v = %v; want %v (single bucket)", p, got, lo)
		}
		if got > v || float64(v-got)/float64(v) > 1.0/histSubBuckets {
			t.Fatalf("p%v = %v outside bucket containing %v", p, got, v)
		}
	}
	if h.Mean() != v {
		t.Fatalf("mean = %v; want exact %v", h.Mean(), v)
	}
}

func TestLatencyHistMergeCommutative(t *testing.T) {
	build := func(vals []time.Duration) *LatencyHist {
		h := NewLatencyHist()
		for _, v := range vals {
			h.Observe(v)
		}
		return h
	}
	a := []time.Duration{time.Microsecond, 50 * time.Microsecond, 3 * time.Millisecond, 10 * time.Hour}
	b := []time.Duration{7 * time.Microsecond, 3 * time.Millisecond, 900 * time.Millisecond}

	ab := build(a)
	ab.Merge(build(b))
	ba := build(b)
	ba.Merge(build(a))
	union := build(append(append([]time.Duration{}, a...), b...))

	for _, p := range []float64{0, 25, 50, 75, 90, 99, 100} {
		if ab.Percentile(p) != ba.Percentile(p) {
			t.Fatalf("p%v: a+b %v != b+a %v", p, ab.Percentile(p), ba.Percentile(p))
		}
		if ab.Percentile(p) != union.Percentile(p) {
			t.Fatalf("p%v: merged %v != union %v", p, ab.Percentile(p), union.Percentile(p))
		}
	}
	if ab.Count() != ba.Count() || ab.Count() != int64(len(a)+len(b)) {
		t.Fatalf("counts: a+b=%d b+a=%d want %d", ab.Count(), ba.Count(), len(a)+len(b))
	}
	if ab.Mean() != ba.Mean() || ab.Mean() != union.Mean() {
		t.Fatalf("means: a+b=%v b+a=%v union=%v", ab.Mean(), ba.Mean(), union.Mean())
	}
}

// refBucketIndex is bucketIndex as first written, finding the octave
// with a bit-at-a-time leading-zero count; bucketIndex is held to it.
func refBucketIndex(d time.Duration) int {
	us := d.Microseconds()
	if us < 1 {
		us = 1
	}
	v, lz := uint64(us), 0
	for v&(1<<63) == 0 {
		v <<= 1
		lz++
	}
	oct := 63 - lz
	if oct >= histOctaves {
		return -1
	}
	base := int64(1) << uint(oct)
	sub := int((us - base) * histSubBuckets / base)
	if sub >= histSubBuckets {
		sub = histSubBuckets - 1
	}
	return oct*histSubBuckets + sub
}

// TestBucketIndexMatchesReference compares bucketIndex with the loop it
// replaced at every octave edge — 2^k−1, 2^k and 2^k+1 microseconds (and
// nanoseconds, for the sub-microsecond clamp) — and at the extremes.
func TestBucketIndexMatchesReference(t *testing.T) {
	ds := []time.Duration{0, 1, -1, math.MinInt64, math.MaxInt64}
	for k := 0; k <= histOctaves; k++ {
		for _, v := range []int64{1<<k - 1, 1 << k, 1<<k + 1} {
			ds = append(ds, time.Duration(v), time.Duration(v)*time.Microsecond)
		}
	}
	for _, d := range ds {
		if got, want := bucketIndex(d), refBucketIndex(d); got != want {
			t.Errorf("bucketIndex(%d) = %d, reference %d", int64(d), got, want)
		}
	}
}

func TestTimeSeries(t *testing.T) {
	ts := NewTimeSeries(time.Second)
	ts.Add(0, 1)
	ts.Add(500*time.Millisecond, 1)
	ts.Add(2500*time.Millisecond, 3)
	pts := ts.Points()
	if len(pts) != 2 {
		t.Fatalf("points = %v", pts)
	}
	if pts[0].V != 2 || pts[1].V != 3 {
		t.Fatalf("values = %v, %v", pts[0].V, pts[1].V)
	}
	dense := ts.Dense()
	if len(dense) != 3 {
		t.Fatalf("dense = %v", dense)
	}
	if dense[1].V != 0 {
		t.Fatalf("dense gap = %v; want 0", dense[1].V)
	}
	mean, peak, idle := ts.Stats()
	if peak != 3 {
		t.Fatalf("peak = %v", peak)
	}
	if math.Abs(mean-5.0/3.0) > 1e-9 {
		t.Fatalf("mean = %v", mean)
	}
	if math.Abs(idle-1.0/3.0) > 1e-9 {
		t.Fatalf("idle = %v", idle)
	}
}

func TestTimeSeriesDefaultInterval(t *testing.T) {
	ts := NewTimeSeries(0)
	if ts.Interval() != time.Second {
		t.Fatalf("interval = %v; want 1s default", ts.Interval())
	}
}

func TestTimeSeriesEmpty(t *testing.T) {
	ts := NewTimeSeries(time.Second)
	if pts := ts.Points(); len(pts) != 0 {
		t.Fatalf("points = %v; want empty", pts)
	}
	mean, peak, idle := ts.Stats()
	if mean != 0 || peak != 0 || idle != 0 {
		t.Fatal("empty stats should be zero")
	}
}
