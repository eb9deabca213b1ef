package core

import (
	"sort"
	"time"

	"edc/internal/trace"
)

// WorkloadMeter is the intensity seam between the frontend (which
// records admitted traffic) and the write path (which reads the paper's
// feedback signal). The stock implementation is the two-window local
// monitor; sharded replay substitutes a read-only global snapshot so
// every shard sees the same intensity signal.
type WorkloadMeter interface {
	// Record notes an admitted request of the given aligned size.
	Record(now time.Duration, bytes int64)
	// Intensity returns the calculated IOPS driving codec selection.
	Intensity(now time.Duration) float64
}

// dualMonitor is the paper's feedback signal: the sliding-window
// calculated IOPS. Two windows are combined — a long one that recognizes
// genuinely idle periods and a short one that reacts to burst onsets
// within tens of milliseconds — and the more intense reading wins, so a
// burst is never greeted with a heavyweight codec while the long window
// is still warming up.
type dualMonitor struct {
	slow *Monitor // long window: detects idle periods
	fast *Monitor // short window: reacts to burst onsets
}

// newMonitor builds the stock workload monitor: a 500 ms window in ten
// bins, paired with its fast twin.
func newMonitor() WorkloadMeter { return newDualMonitor(500*time.Millisecond, 10) }

// newDualMonitor builds a slow+fast monitor pair over window.
func newDualMonitor(window time.Duration, bins int) *dualMonitor {
	return &dualMonitor{
		slow: NewMonitor(window, bins),
		fast: NewMonitor(window/8, (bins+1)/2),
	}
}

// Record implements WorkloadMeter.
func (m *dualMonitor) Record(now time.Duration, bytes int64) {
	m.slow.Record(now, bytes)
	m.fast.Record(now, bytes)
}

// Intensity implements WorkloadMeter.
func (m *dualMonitor) Intensity(now time.Duration) float64 {
	slow := m.slow.CalculatedIOPS(now)
	fast := m.fast.CalculatedIOPS(now)
	if fast > slow {
		return fast
	}
	return slow
}

// IntensitySnapshot is a read-only WorkloadMeter precomputed from a full
// trace: prefix sums over 4 KB-normalized units at each arrival answer
// exact sliding-window queries for any virtual time. Sharded replay
// builds one per trace and shares it across all shards, so a shard
// serving a quiet LBA range still sees the global burst and picks the
// same codec tier the unsharded device would — the array-level analogue
// of Elastic RAID's shared intensity signal. Safe for concurrent readers
// once built.
type IntensitySnapshot struct {
	arrivals []time.Duration
	prefix   []float64 // prefix[i] = units of arrivals[:i]
	slow     time.Duration
	fast     time.Duration
}

// NewIntensitySnapshot indexes t's arrivals (sizes aligned against
// volBytes, matching what the frontend records) over the device's
// default 500 ms slow window; the fast window is slow/8, mirroring the
// local dual monitor. t must be in arrival order (ShardedDevice.Play
// sorts it).
func NewIntensitySnapshot(t *trace.Trace, volBytes int64) *IntensitySnapshot {
	const slow = 500 * time.Millisecond
	s := &IntensitySnapshot{
		arrivals: make([]time.Duration, 0, len(t.Requests)),
		prefix:   make([]float64, 1, len(t.Requests)+1),
		slow:     slow,
		fast:     slow / 8,
	}
	sum := 0.0
	for _, r := range t.Requests {
		_, size := alignRequest(volBytes, r)
		s.arrivals = append(s.arrivals, r.Arrival)
		sum += units(size)
		s.prefix = append(s.prefix, sum)
	}
	return s
}

// Record implements WorkloadMeter; the snapshot is read-only.
func (s *IntensitySnapshot) Record(time.Duration, int64) {}

// Intensity implements WorkloadMeter: the max of the slow- and
// fast-window calculated IOPS ending at now.
func (s *IntensitySnapshot) Intensity(now time.Duration) float64 {
	slow := s.windowIOPS(now, s.slow)
	fast := s.windowIOPS(now, s.fast)
	if fast > slow {
		return fast
	}
	return slow
}

// windowIOPS sums units with arrival in (now-w, now], divided by w.
func (s *IntensitySnapshot) windowIOPS(now time.Duration, w time.Duration) float64 {
	hi := sort.Search(len(s.arrivals), func(i int) bool { return s.arrivals[i] > now })
	lo := sort.Search(len(s.arrivals), func(i int) bool { return s.arrivals[i] > now-w })
	if hi <= lo {
		return 0
	}
	return (s.prefix[hi] - s.prefix[lo]) / w.Seconds()
}
