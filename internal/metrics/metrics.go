// Package metrics provides the statistics collectors used throughout the
// simulator and the experiment harness: log-bucketed latency histograms
// with percentile queries, and fixed-interval time series (the paper's
// IOPS-over-time plots, Fig. 3, and the sensitivity sweeps, Fig. 12).
package metrics

import (
	"math"
	"math/bits"
	"sort"
	"time"
)

// LatencyHist is a log-bucketed histogram of durations supporting
// approximate percentile queries. Buckets grow geometrically from 1 µs to
// ~1 hour with 16 sub-buckets per octave, bounding relative error to ~4 %.
type LatencyHist struct {
	buckets  []int64
	count    int64
	sum      time.Duration
	overflow int64
}

const (
	histSubBuckets = 16
	histOctaves    = 32 // 1µs << 32 ≈ 1.2 hours
)

// NewLatencyHist returns an empty histogram.
func NewLatencyHist() *LatencyHist {
	return &LatencyHist{buckets: make([]int64, histSubBuckets*histOctaves)}
}

func bucketIndex(d time.Duration) int {
	us := d.Microseconds()
	if us < 1 {
		us = 1
	}
	// octave = floor(log2(us)), position within octave by linear division.
	oct := 63 - bits.LeadingZeros64(uint64(us))
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

// bucketLow returns the lower bound duration of bucket i.
func bucketLow(i int) time.Duration {
	oct := i / histSubBuckets
	sub := i % histSubBuckets
	base := int64(1) << uint(oct)
	us := base + base*int64(sub)/histSubBuckets
	return time.Duration(us) * time.Microsecond
}

// Observe adds one duration.
func (h *LatencyHist) Observe(d time.Duration) {
	h.count++
	h.sum += d
	i := bucketIndex(d)
	if i < 0 {
		h.overflow++
		return
	}
	h.buckets[i]++
}

// Merge adds every observation recorded in o into h (bucket-exact:
// merging histograms equals observing the union of their inputs).
// Sharded replay uses it to fold per-shard response distributions into
// one global distribution.
func (h *LatencyHist) Merge(o *LatencyHist) {
	if o == nil {
		return
	}
	h.count += o.count
	h.sum += o.sum
	h.overflow += o.overflow
	for i, c := range o.buckets {
		h.buckets[i] += c
	}
}

// Count returns the number of observations.
func (h *LatencyHist) Count() int64 { return h.count }

// Mean returns the exact mean duration.
func (h *LatencyHist) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// Percentile returns the approximate p-th percentile (p in [0,100]).
func (h *LatencyHist) Percentile(p float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	target := int64(math.Ceil(p / 100 * float64(h.count)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range h.buckets {
		cum += c
		if cum >= target {
			return bucketLow(i)
		}
	}
	return bucketLow(len(h.buckets) - 1)
}

// TimeSeries accumulates per-interval values over virtual time: used to
// plot IOPS-over-time and queue-depth-over-time series.
type TimeSeries struct {
	interval time.Duration
	bins     map[int64]float64
}

// NewTimeSeries returns a series with the given bin width.
func NewTimeSeries(interval time.Duration) *TimeSeries {
	if interval <= 0 {
		interval = time.Second
	}
	return &TimeSeries{interval: interval, bins: make(map[int64]float64)}
}

// Add accumulates v into the bin containing time t.
func (ts *TimeSeries) Add(t time.Duration, v float64) {
	ts.bins[int64(t/ts.interval)] += v
}

// Interval returns the bin width.
func (ts *TimeSeries) Interval() time.Duration { return ts.interval }

// Point is one (bin start, value) sample.
type Point struct {
	T time.Duration // bin start (virtual time)
	V float64       // accumulated value in the bin
}

// Points returns the series sorted by time. Empty bins are omitted.
func (ts *TimeSeries) Points() []Point {
	keys := make([]int64, 0, len(ts.bins))
	for k := range ts.bins {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]Point, len(keys))
	for i, k := range keys {
		out[i] = Point{T: time.Duration(k) * ts.interval, V: ts.bins[k]}
	}
	return out
}

// Dense returns the series with empty bins filled with zeros from bin 0
// through the last occupied bin.
func (ts *TimeSeries) Dense() []Point {
	var maxBin int64 = -1
	for k := range ts.bins {
		if k > maxBin {
			maxBin = k
		}
	}
	out := make([]Point, 0, maxBin+1)
	for k := int64(0); k <= maxBin; k++ {
		out = append(out, Point{T: time.Duration(k) * ts.interval, V: ts.bins[k]})
	}
	return out
}

// Stats summarizes the dense series values (burstiness analysis: the
// peak-to-mean ratio and the fraction of idle bins).
func (ts *TimeSeries) Stats() (mean, peak, idleFrac float64) {
	pts := ts.Dense()
	if len(pts) == 0 {
		return 0, 0, 0
	}
	var sum float64
	idle := 0
	for _, p := range pts {
		sum += p.V
		if p.V > peak {
			peak = p.V
		}
		if p.V == 0 {
			idle++
		}
	}
	mean = sum / float64(len(pts))
	idleFrac = float64(idle) / float64(len(pts))
	return mean, peak, idleFrac
}
