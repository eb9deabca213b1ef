package main

import (
	"bufio"
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	edcmetrics "edc/internal/metrics"
)

// region brackets one timed region: wall clock, process CPU (user+sys
// from getrusage) and bytes allocated.
type region struct {
	t0    time.Time
	cpu0  time.Duration
	mall0 uint64
}

// sample is what one timed region cost.
type sample struct {
	wall  time.Duration
	cpu   time.Duration
	alloc uint64
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("perf: getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func beginRegion() region {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return region{cpu0: processCPU(), mall0: ms.TotalAlloc, t0: time.Now()}
}

func (r region) end() sample {
	wall := time.Since(r.t0)
	cpu := processCPU() - r.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return sample{wall: wall, cpu: cpu, alloc: ms.TotalAlloc - r.mall0}
}

// liveHeap forces a collection and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	return lastLiveHeap()
}

// lastLiveHeap returns the bytes the most recent collection found
// reachable, without forcing one. Read at the end of a timed region it
// is the system's footprint while it was still running: sharded replay
// drops its pipelines when Play returns, so a collection forced
// afterwards would find almost nothing.
func lastLiveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// watchdogLimit bounds one timed region. A paced drain that never
// finishes (an awaiter waiting on a completion no later arrival will
// release) would otherwise hang the run past the driver's deadline.
const watchdogLimit = 120 * time.Second

// startWatchdog turns a hung timed region into a failed run with a
// goroutine dump. Stop the returned timer when the region ends.
func startWatchdog(what string) *time.Timer {
	return time.AfterFunc(watchdogLimit, func() {
		fmt.Fprintf(os.Stderr, "perf: %s still running after %v; goroutines:\n", what, watchdogLimit)
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 2) // diagnostics only
		os.Exit(3)
	})
}

// host identifies the machine a result was measured on.
type host struct {
	Cores      int    `json:"cores"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
}

func hostFingerprint() host {
	h := host{Cores: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPU: "unknown"}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return h
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			h.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
			break
		}
	}
	return h
}

// median returns the middle of vs (mean of the middle two for an even
// count).
func median(vs []float64) float64 {
	vs = append([]float64(nil), vs...)
	sort.Float64s(vs)
	n := len(vs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// p99 refines hist's 99th percentile. Percentile returns the lower edge
// of a log-spaced bucket (16 per octave), a step function that reads
// the same for every seed; this places the percentile inside the bucket
// by the share of the bucket's mass below it, found by bisecting
// Percentile itself.
func p99(hist *edcmetrics.LatencyHist) float64 {
	low := hist.Percentile(99)
	// The cumulative shares (in percent) at which the bucket starts and ends.
	edge := func(lo, hi float64, inside func(time.Duration) bool) float64 {
		for i := 0; i < 50; i++ {
			mid := (lo + hi) / 2
			if inside(hist.Percentile(mid)) {
				hi = mid
			} else {
				lo = mid
			}
		}
		return hi
	}
	from := edge(0, 99, func(d time.Duration) bool { return d >= low })
	to := edge(99, 100, func(d time.Duration) bool { return d > low })
	us := low.Microseconds()
	if us < 1 {
		return 0 // empty histogram
	}
	width := float64(int64(1)<<(bits.Len64(uint64(us))-1)) / 16 // bucket width in us
	if width < 1 {
		width = 1
	}
	if to <= from {
		return float64(us)
	}
	return float64(us) + width*(99-from)/(to-from)
}
