package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"edc/internal/cache"
	"edc/internal/compress"
	"edc/internal/metrics"
	"edc/internal/obs"
	"edc/internal/sim"
	"edc/internal/ssd"
)

// RunStats aggregates everything a replay produces: the response-time
// distributions (Figs. 10/11), the space accounting behind the
// compression-ratio comparison (Fig. 8), the composite ratio/time metric
// (Fig. 9), per-codec usage, SD effectiveness, and device endurance
// counters (the paper's reliability objective).
type RunStats struct {
	// Scheme, Trace, and Backend identify the run: the compression
	// scheme name, the workload trace name, and the device backend.
	Scheme  string
	Trace   string
	Backend string

	// Response-time distributions: all requests, reads only, writes only.
	Resp      *metrics.LatencyHist
	RespRead  *metrics.LatencyHist
	RespWrite *metrics.LatencyHist

	// Request counts completed by the replay.
	Requests int64
	Reads    int64
	Writes   int64

	// Write-traffic space accounting (bytes entering the device):
	OrigBytes   int64 // uncompressed bytes the host wrote
	CompBytes   int64 // codec output bytes
	StoredBytes int64 // quantized slot bytes actually stored

	// Live-space accounting at end of run:
	LiveBlocks    int64
	LiveSlotBytes int64
	PeakSlotBytes int64
	DeadSlotBytes int64
	// AllocClasses counts distinct free-slot sizes at end of run — a
	// fragmentation proxy (the quantization ablation inflates it).
	AllocClasses int

	// Policy behaviour:
	RunsByTag    map[compress.Tag]int64 // runs stored per codec
	BytesByTag   map[compress.Tag]int64 // original bytes per codec
	WriteThrough int64                  // runs bypassed by the estimator
	Oversize     int64                  // runs whose codec output missed the 75 % slot

	// Sequentiality detector:
	SDMerged int64
	SDRuns   int64

	// SubmitStalls counts serve-mode submissions that found their shard
	// mailbox full and had to block (backpressure events; zero in replay).
	SubmitStalls int64

	// Resplits counts serve-mode heat-balanced shard splits (zero in
	// replay and with resplitting disabled; omitted from JSON then so
	// earlier runs' serialized form is unchanged).
	Resplits int64 `json:"Resplits,omitempty"`
	// ShardLiveBlocks is the per-shard live-block occupancy, in LBA
	// order, at the end of a serve run — the occupancy counters a
	// resplit rebalances (nil outside serve mode).
	ShardLiveBlocks []int64 `json:"ShardLiveBlocks,omitempty"`

	// Content-addressed dedup (all zero unless dedup is enabled):
	DedupHits       int64 // runs resolved against an existing stored extent
	DedupMisses     int64 // fingerprinted runs that stored normally
	DedupBytesSaved int64 // slot bytes not stored thanks to hits
	DedupUnrefs     int64 // slots released after their last reference dropped

	// Background maintenance (all zero unless maintenance is enabled):
	MaintTicks       int64 // maintenance ticks fired
	MaintIdleTicks   int64 // ticks that found the device idle
	MaintRelocations int64 // extents rewritten to a new slot
	MaintCold        int64 // relocations that recompressed cold data
	MaintHot         int64 // relocations that demoted hot data
	// MaintAborted counts relocations started but not committed. Most
	// are a cold re-encode that showed no space win (on replay-usr0-bg
	// every one is); the rest were abandoned mid-flight to a read error,
	// an overwrite, a failed run or a full device.
	MaintAborted      int64
	MaintReclaimed    int64   // net live slot bytes freed by relocation
	MaintCompactions  int64   // allocator free-list compactions
	MaintCoalesced    int64   // adjacent free slots merged by compaction
	MaintCompactFreed int64   // free-tail bytes returned to fresh space
	HeatHist          []int64 // live extents by decayed heat bucket at end of run

	// Fault injection and recovery (all zero without a fault plan):
	Faults           int64         // injected device errors observed
	FaultRetries     int64         // virtual-time retries issued
	DegradedReads    int64         // RAIS5 reads served by parity reconstruction
	DegradedReadTime time.Duration // virtual time spent reconstructing
	WriteReallocs    int64         // writes moved to a fresh slot after hard failure
	UnrecoveredReads int64         // hard read failures with no redundancy to recover from
	Recoveries       int64         // crash recoveries performed (power cut)
	CrashLost        int64         // requests in flight and lost at the power cut

	// Tenants breaks the run down by submitting tenant when multi-
	// tenant QoS is active (nil otherwise — untagged runs carry no
	// tenant section, and omitempty keeps their serialized form
	// identical to pre-QoS builds). Keys are tenant names; the map is
	// merged in sorted key order so sharded runs stay deterministic.
	Tenants map[string]*TenantStats `json:"Tenants,omitempty"`

	// Infrastructure:
	CPU     sim.Stats
	Cache   cache.Stats
	Devices []ssd.Stats
	Queues  []sim.Stats

	// Duration is the virtual time at which the replay drained.
	Duration time.Duration

	// Obs is the observability snapshot (decision counters plus optional
	// time series) when a collector was attached; nil otherwise.
	Obs *obs.Report

	// Err records a fatal replay error (e.g. device space exhaustion).
	Err error
}

// TenantStats is one tenant's slice of a run: request counts, the
// tenant's own response-time distribution, its codec mix, and the QoS
// actions applied to it.
type TenantStats struct {
	// Requests/Reads/Writes count the tenant's completed operations.
	Requests int64
	Reads    int64
	Writes   int64
	// Resp is the tenant's response-time distribution.
	Resp *metrics.LatencyHist
	// RunsByTag counts stored runs per codec attributed to the tenant
	// (by the run's first write).
	RunsByTag map[compress.Tag]int64
	// WriteThrough counts the tenant's runs bypassed by the estimator.
	WriteThrough int64
	// Shaped counts requests delayed by the tenant's bandwidth
	// schedule; ShapeDelay sums the virtual time added.
	Shaped     int64
	ShapeDelay time.Duration
	// Rejected counts requests refused admission (queue depth or
	// strict-tenant violations surfaced as errors in serve mode).
	Rejected int64
}

func newTenantStats() *TenantStats {
	return &TenantStats{
		Resp:      metrics.NewLatencyHist(),
		RunsByTag: make(map[compress.Tag]int64),
	}
}

// merge folds o into ts (counter sums, histogram merge).
func (ts *TenantStats) merge(o *TenantStats) {
	ts.Requests += o.Requests
	ts.Reads += o.Reads
	ts.Writes += o.Writes
	ts.Resp.Merge(o.Resp)
	for tag, n := range o.RunsByTag {
		ts.RunsByTag[tag] += n
	}
	ts.WriteThrough += o.WriteThrough
	ts.Shaped += o.Shaped
	ts.ShapeDelay += o.ShapeDelay
	ts.Rejected += o.Rejected
}

// Tenant returns the named tenant's stats, allocating on first use.
// Unnamed (untagged) traffic is never given an entry.
func (rs *RunStats) Tenant(name string) *TenantStats {
	if name == "" {
		return nil
	}
	if rs.Tenants == nil {
		rs.Tenants = make(map[string]*TenantStats)
	}
	ts, ok := rs.Tenants[name]
	if !ok {
		ts = newTenantStats()
		rs.Tenants[name] = ts
	}
	return ts
}

func newRunStats(scheme, traceName, backend string) *RunStats {
	return &RunStats{
		Scheme: scheme, Trace: traceName, Backend: backend,
		Resp:       metrics.NewLatencyHist(),
		RespRead:   metrics.NewLatencyHist(),
		RespWrite:  metrics.NewLatencyHist(),
		RunsByTag:  make(map[compress.Tag]int64),
		BytesByTag: make(map[compress.Tag]int64),
	}
}

// MergeRunStats folds per-part results into one global RunStats. The
// sharded replay merges per-shard stats; the facade merges the pre- and
// post-power-cut phases of a crash-recovery run. Parts are processed in
// slice order, so the merge is deterministic: counters and histograms
// sum, per-device slices concatenate, Duration is the longest part's
// virtual time (shards run concurrently in real time and each simulates
// the full trace timeline), and the first error wins.
func MergeRunStats(parts []*RunStats) *RunStats {
	out := newRunStats(parts[0].Scheme, parts[0].Trace, parts[0].Backend)
	for _, p := range parts {
		if p == nil {
			continue
		}
		out.Resp.Merge(p.Resp)
		out.RespRead.Merge(p.RespRead)
		out.RespWrite.Merge(p.RespWrite)
		out.Requests += p.Requests
		out.Reads += p.Reads
		out.Writes += p.Writes
		out.OrigBytes += p.OrigBytes
		out.CompBytes += p.CompBytes
		out.StoredBytes += p.StoredBytes
		out.LiveBlocks += p.LiveBlocks
		out.LiveSlotBytes += p.LiveSlotBytes
		out.PeakSlotBytes += p.PeakSlotBytes
		out.DeadSlotBytes += p.DeadSlotBytes
		out.AllocClasses += p.AllocClasses
		for tag, n := range p.RunsByTag {
			out.RunsByTag[tag] += n
		}
		for tag, n := range p.BytesByTag {
			out.BytesByTag[tag] += n
		}
		out.WriteThrough += p.WriteThrough
		out.Oversize += p.Oversize
		out.SDMerged += p.SDMerged
		out.SDRuns += p.SDRuns
		out.SubmitStalls += p.SubmitStalls
		out.Resplits += p.Resplits
		out.DedupHits += p.DedupHits
		out.DedupMisses += p.DedupMisses
		out.DedupBytesSaved += p.DedupBytesSaved
		out.DedupUnrefs += p.DedupUnrefs
		out.MaintTicks += p.MaintTicks
		out.MaintIdleTicks += p.MaintIdleTicks
		out.MaintRelocations += p.MaintRelocations
		out.MaintCold += p.MaintCold
		out.MaintHot += p.MaintHot
		out.MaintAborted += p.MaintAborted
		out.MaintReclaimed += p.MaintReclaimed
		out.MaintCompactions += p.MaintCompactions
		out.MaintCoalesced += p.MaintCoalesced
		out.MaintCompactFreed += p.MaintCompactFreed
		for len(out.HeatHist) < len(p.HeatHist) {
			out.HeatHist = append(out.HeatHist, 0)
		}
		for i, v := range p.HeatHist {
			out.HeatHist[i] += v
		}
		out.Faults += p.Faults
		out.FaultRetries += p.FaultRetries
		out.DegradedReads += p.DegradedReads
		out.DegradedReadTime += p.DegradedReadTime
		out.WriteReallocs += p.WriteReallocs
		out.UnrecoveredReads += p.UnrecoveredReads
		out.Recoveries += p.Recoveries
		out.CrashLost += p.CrashLost
		if len(p.Tenants) > 0 {
			// Fold tenants in sorted name order so the merge stays
			// deterministic whatever map iteration does.
			names := make([]string, 0, len(p.Tenants))
			for name := range p.Tenants {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				out.Tenant(name).merge(p.Tenants[name])
			}
		}
		out.CPU.Jobs += p.CPU.Jobs
		out.CPU.BusyTime += p.CPU.BusyTime
		out.CPU.WaitTime += p.CPU.WaitTime
		if p.CPU.MaxQueue > out.CPU.MaxQueue {
			out.CPU.MaxQueue = p.CPU.MaxQueue
		}
		out.Cache.Hits += p.Cache.Hits
		out.Cache.Misses += p.Cache.Misses
		out.Cache.Insertions += p.Cache.Insertions
		out.Cache.Evictions += p.Cache.Evictions
		out.Devices = append(out.Devices, p.Devices...)
		out.Queues = append(out.Queues, p.Queues...)
		if p.Duration > out.Duration {
			out.Duration = p.Duration
		}
		if out.Err == nil && p.Err != nil {
			out.Err = p.Err
		}
	}
	return out
}

// TrafficRatio is the paper's compression ratio over write traffic:
// original bytes divided by stored bytes (>= 1; 1 for Native).
func (rs *RunStats) TrafficRatio() float64 {
	if rs.StoredBytes == 0 {
		return 1
	}
	return float64(rs.OrigBytes) / float64(rs.StoredBytes)
}

// CodecRatio is original bytes over raw codec output (ignores slot
// quantization overhead).
func (rs *RunStats) CodecRatio() float64 {
	if rs.CompBytes == 0 {
		return 1
	}
	return float64(rs.OrigBytes) / float64(rs.CompBytes)
}

// MeanResponse is the average response time over all requests.
func (rs *RunStats) MeanResponse() time.Duration { return rs.Resp.Mean() }

// Composite is the paper's Fig. 9 metric: compression ratio divided by
// response time (here per millisecond, higher is better). Normalize to a
// Native run for cross-scheme comparison.
func (rs *RunStats) Composite() float64 {
	ms := float64(rs.Resp.Mean()) / float64(time.Millisecond)
	if ms <= 0 {
		return 0
	}
	return rs.TrafficRatio() / ms
}

// TotalErases sums member-device erase counts (endurance proxy).
func (rs *RunStats) TotalErases() int64 {
	var n int64
	for _, d := range rs.Devices {
		n += d.Erases
	}
	return n
}

// TotalFlashWrites sums pages programmed across members (host + GC).
func (rs *RunStats) TotalFlashWrites() int64 {
	var n int64
	for _, d := range rs.Devices {
		n += d.FlashPagesWritten
	}
	return n
}

// WriteThroughRate is the fraction of stored runs the estimator bypassed
// as incompressible (0 when no runs were stored).
func (rs *RunStats) WriteThroughRate() float64 {
	if rs.SDRuns == 0 {
		return 0
	}
	return float64(rs.WriteThrough) / float64(rs.SDRuns)
}

// OversizeRate is the fraction of stored runs whose codec output missed
// the 75 % slot class and reverted to uncompressed storage (0 when no
// runs were stored).
func (rs *RunStats) OversizeRate() float64 {
	if rs.SDRuns == 0 {
		return 0
	}
	return float64(rs.Oversize) / float64(rs.SDRuns)
}

// DedupHitRate is the fraction of fingerprinted runs resolved against
// an existing extent (0 when dedup never ran).
func (rs *RunStats) DedupHitRate() float64 {
	total := rs.DedupHits + rs.DedupMisses
	if total == 0 {
		return 0
	}
	return float64(rs.DedupHits) / float64(total)
}

// String renders a compact one-line summary.
func (rs *RunStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s: n=%d mean=%v p99=%v ratio=%.2f comp=%.2f wt=%.1f%% ovr=%.1f%% erases=%d",
		rs.Scheme, rs.Trace, rs.Requests, rs.Resp.Mean().Round(time.Microsecond),
		rs.Resp.Percentile(99).Round(time.Microsecond),
		rs.TrafficRatio(), rs.Composite(),
		100*rs.WriteThroughRate(), 100*rs.OversizeRate(), rs.TotalErases())
	if rs.Err != nil {
		fmt.Fprintf(&b, " ERR=%v", rs.Err)
	}
	return b.String()
}

// tagLabel names a codec tag using the default registry ("none" for
// uncompressed storage).
func tagLabel(tag compress.Tag) string {
	if tag == compress.TagNone {
		return "none"
	}
	if c, err := compress.Default().ByTag(tag); err == nil {
		return c.Name()
	}
	return fmt.Sprintf("tag%d", tag)
}

// Format renders the canonical multi-line human-readable report: request
// counts, the response-time distribution, space accounting, policy
// behaviour (including the write-through and oversize rates), SD
// effectiveness, and endurance counters. It is the one report the docs
// reference; edcbench prints it for single replays.
func (rs *RunStats) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scheme=%s trace=%s backend=%s\n", rs.Scheme, rs.Trace, rs.Backend)
	fmt.Fprintf(&b, "requests: %d (%d reads, %d writes)\n", rs.Requests, rs.Reads, rs.Writes)
	fmt.Fprintf(&b, "response: mean=%v p50=%v p90=%v p99=%v (read mean=%v, write mean=%v)\n",
		rs.Resp.Mean().Round(time.Microsecond),
		rs.Resp.Percentile(50).Round(time.Microsecond),
		rs.Resp.Percentile(90).Round(time.Microsecond),
		rs.Resp.Percentile(99).Round(time.Microsecond),
		rs.RespRead.Mean().Round(time.Microsecond),
		rs.RespWrite.Mean().Round(time.Microsecond))
	fmt.Fprintf(&b, "space: orig=%d comp=%d stored=%d ratio=%.3f codec-ratio=%.3f\n",
		rs.OrigBytes, rs.CompBytes, rs.StoredBytes, rs.TrafficRatio(), rs.CodecRatio())
	fmt.Fprintf(&b, "live: blocks=%d slot-bytes=%d peak=%d dead=%d alloc-classes=%d\n",
		rs.LiveBlocks, rs.LiveSlotBytes, rs.PeakSlotBytes, rs.DeadSlotBytes, rs.AllocClasses)
	fmt.Fprintf(&b, "policy: write-through=%d (%.1f%%) oversize=%d (%.1f%%)\n",
		rs.WriteThrough, 100*rs.WriteThroughRate(), rs.Oversize, 100*rs.OversizeRate())
	tags := make([]int, 0, len(rs.RunsByTag))
	for tag := range rs.RunsByTag {
		tags = append(tags, int(tag))
	}
	sort.Ints(tags)
	for _, t := range tags {
		tag := compress.Tag(t)
		fmt.Fprintf(&b, "  codec %-5s runs=%d bytes=%d\n", tagLabel(tag), rs.RunsByTag[tag], rs.BytesByTag[tag])
	}
	fmt.Fprintf(&b, "sd: runs=%d merged-writes=%d\n", rs.SDRuns, rs.SDMerged)
	// The stalls line only appears in serve mode, so replay reports stay
	// byte-identical to pre-serve builds.
	if rs.SubmitStalls > 0 {
		fmt.Fprintf(&b, "serve: submit-stalls=%d\n", rs.SubmitStalls)
	}
	// The dedup line only appears when dedup fingerprinted something, so
	// dedup-off reports stay byte-identical to pre-dedup builds.
	if rs.DedupHits > 0 || rs.DedupMisses > 0 {
		fmt.Fprintf(&b, "dedup: hits=%d misses=%d hit-rate=%.1f%% saved-bytes=%d unrefs=%d\n",
			rs.DedupHits, rs.DedupMisses, 100*rs.DedupHitRate(),
			rs.DedupBytesSaved, rs.DedupUnrefs)
	}
	// The maint lines only appear when maintenance ran, so
	// maintenance-off reports stay byte-identical to pre-maintenance
	// builds.
	if rs.MaintTicks > 0 || rs.MaintRelocations > 0 || rs.MaintCompactions > 0 {
		fmt.Fprintf(&b, "maint: ticks=%d idle=%d relocated=%d (cold=%d hot=%d aborted=%d) reclaimed=%d compactions=%d coalesced=%d\n",
			rs.MaintTicks, rs.MaintIdleTicks, rs.MaintRelocations,
			rs.MaintCold, rs.MaintHot, rs.MaintAborted,
			rs.MaintReclaimed, rs.MaintCompactions, rs.MaintCoalesced)
	}
	if len(rs.HeatHist) == 5 {
		fmt.Fprintf(&b, "heat: h0=%d h1=%d h2-3=%d h4-7=%d h8+=%d\n",
			rs.HeatHist[0], rs.HeatHist[1], rs.HeatHist[2], rs.HeatHist[3], rs.HeatHist[4])
	}
	// The faults line only appears when a fault plan fired, so no-plan
	// reports stay byte-identical to an un-instrumented build.
	if rs.Faults > 0 || rs.Recoveries > 0 {
		fmt.Fprintf(&b, "faults: injected=%d retries=%d degraded-reads=%d (%v) reallocs=%d unrecovered=%d recoveries=%d lost=%d\n",
			rs.Faults, rs.FaultRetries, rs.DegradedReads,
			rs.DegradedReadTime.Round(time.Microsecond),
			rs.WriteReallocs, rs.UnrecoveredReads, rs.Recoveries, rs.CrashLost)
	}
	// The tenant lines only appear when QoS tagged something, so
	// untagged reports stay byte-identical to pre-QoS builds.
	if len(rs.Tenants) > 0 {
		names := make([]string, 0, len(rs.Tenants))
		for name := range rs.Tenants {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			ts := rs.Tenants[name]
			fmt.Fprintf(&b, "tenant %s: requests=%d (%d reads, %d writes) mean=%v p99=%v",
				name, ts.Requests, ts.Reads, ts.Writes,
				ts.Resp.Mean().Round(time.Microsecond),
				ts.Resp.Percentile(99).Round(time.Microsecond))
			tags := make([]int, 0, len(ts.RunsByTag))
			for tag := range ts.RunsByTag {
				tags = append(tags, int(tag))
			}
			sort.Ints(tags)
			for _, t := range tags {
				tag := compress.Tag(t)
				fmt.Fprintf(&b, " %s=%d", tagLabel(tag), ts.RunsByTag[tag])
			}
			if ts.WriteThrough > 0 {
				fmt.Fprintf(&b, " write-through=%d", ts.WriteThrough)
			}
			if ts.Shaped > 0 {
				fmt.Fprintf(&b, " shaped=%d delay=%v", ts.Shaped, ts.ShapeDelay.Round(time.Microsecond))
			}
			if ts.Rejected > 0 {
				fmt.Fprintf(&b, " rejected=%d", ts.Rejected)
			}
			b.WriteByte('\n')
		}
	}
	fmt.Fprintf(&b, "cache: hits=%d misses=%d\n", rs.Cache.Hits, rs.Cache.Misses)
	fmt.Fprintf(&b, "endurance: erases=%d flash-pages=%d\n", rs.TotalErases(), rs.TotalFlashWrites())
	fmt.Fprintf(&b, "composite=%.3f duration=%v\n", rs.Composite(), rs.Duration.Round(time.Millisecond))
	if rs.Err != nil {
		fmt.Fprintf(&b, "error: %v\n", rs.Err)
	}
	return b.String()
}

// Report is the machine-readable form of RunStats, stable under
// encoding/json round-trips (edcbench -json). Histograms flatten to the
// percentiles the experiments report; codec maps key by name.
type Report struct {
	// Scheme/Trace/Backend identify the run.
	Scheme  string `json:"scheme"`
	Trace   string `json:"trace"`
	Backend string `json:"backend"`

	// Request counts.
	Requests int64 `json:"requests"`
	Reads    int64 `json:"reads"`
	Writes   int64 `json:"writes"`

	// Response-time distribution in microseconds.
	MeanUS      float64 `json:"mean_us"`
	P50US       float64 `json:"p50_us"`
	P90US       float64 `json:"p90_us"`
	P99US       float64 `json:"p99_us"`
	ReadMeanUS  float64 `json:"read_mean_us"`
	WriteMeanUS float64 `json:"write_mean_us"`

	// Space accounting.
	OrigBytes    int64   `json:"orig_bytes"`
	CompBytes    int64   `json:"comp_bytes"`
	StoredBytes  int64   `json:"stored_bytes"`
	TrafficRatio float64 `json:"traffic_ratio"`
	CodecRatio   float64 `json:"codec_ratio"`

	// Live-space accounting.
	LiveBlocks    int64 `json:"live_blocks"`
	LiveSlotBytes int64 `json:"live_slot_bytes"`
	PeakSlotBytes int64 `json:"peak_slot_bytes"`
	DeadSlotBytes int64 `json:"dead_slot_bytes"`
	AllocClasses  int   `json:"alloc_classes"`

	// Policy behaviour (codec maps key by registry name).
	RunsByCodec      map[string]int64 `json:"runs_by_codec"`
	BytesByCodec     map[string]int64 `json:"bytes_by_codec"`
	WriteThrough     int64            `json:"write_through"`
	WriteThroughRate float64          `json:"write_through_rate"`
	Oversize         int64            `json:"oversize"`
	OversizeRate     float64          `json:"oversize_rate"`

	// SD effectiveness.
	SDRuns   int64 `json:"sd_runs"`
	SDMerged int64 `json:"sd_merged"`

	// Serve-mode backpressure (omitted in replay).
	SubmitStalls int64 `json:"submit_stalls,omitempty"`

	// Content-addressed dedup (omitted when dedup is off).
	DedupHits       int64   `json:"dedup_hits,omitempty"`
	DedupMisses     int64   `json:"dedup_misses,omitempty"`
	DedupHitRate    float64 `json:"dedup_hit_rate,omitempty"`
	DedupBytesSaved int64   `json:"dedup_saved_bytes,omitempty"`
	DedupUnrefs     int64   `json:"dedup_unrefs,omitempty"`

	// Background maintenance (omitted when maintenance is off).
	MaintTicks       int64   `json:"maint_ticks,omitempty"`
	MaintIdleTicks   int64   `json:"maint_idle_ticks,omitempty"`
	MaintRelocations int64   `json:"maint_relocations,omitempty"`
	MaintCold        int64   `json:"maint_cold,omitempty"`
	MaintHot         int64   `json:"maint_hot,omitempty"`
	MaintAborted     int64   `json:"maint_aborted,omitempty"`
	MaintReclaimed   int64   `json:"maint_reclaimed_bytes,omitempty"`
	MaintCompactions int64   `json:"maint_compactions,omitempty"`
	MaintCoalesced   int64   `json:"maint_coalesced,omitempty"`
	HeatHist         []int64 `json:"heat_hist,omitempty"`

	// Fault injection and recovery (omitted without a fault plan).
	Faults             int64 `json:"faults,omitempty"`
	FaultRetries       int64 `json:"fault_retries,omitempty"`
	DegradedReads      int64 `json:"degraded_reads,omitempty"`
	DegradedReadTimeUS int64 `json:"degraded_read_time_us,omitempty"`
	WriteReallocs      int64 `json:"write_reallocs,omitempty"`
	UnrecoveredReads   int64 `json:"unrecovered_reads,omitempty"`
	Recoveries         int64 `json:"recoveries,omitempty"`
	CrashLost          int64 `json:"crash_lost,omitempty"`

	// Cache behaviour.
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`

	// Endurance counters and the composite metric (Fig. 9).
	Erases     int64   `json:"erases"`
	FlashPages int64   `json:"flash_pages"`
	Composite  float64 `json:"composite"`
	DurationUS int64   `json:"duration_us"`

	// Tenants is the per-tenant breakdown (omitted for untagged runs).
	Tenants map[string]*TenantReport `json:"tenants,omitempty"`

	// Obs is the observability snapshot when a collector was attached.
	Obs *obs.Report `json:"obs,omitempty"`

	// Error is the fatal replay error, if any.
	Error string `json:"error,omitempty"`
}

// TenantReport is the machine-readable form of TenantStats.
type TenantReport struct {
	// Requests/Reads/Writes count the tenant's completed operations.
	Requests int64 `json:"requests"`
	Reads    int64 `json:"reads"`
	Writes   int64 `json:"writes"`
	// MeanUS/P50US/P99US summarize the tenant's latency distribution
	// in microseconds.
	MeanUS float64 `json:"mean_us"`
	P50US  float64 `json:"p50_us"`
	P99US  float64 `json:"p99_us"`
	// RunsByCodec is the tenant's codec mix (keys are registry names).
	RunsByCodec map[string]int64 `json:"runs_by_codec,omitempty"`
	// WriteThrough counts the tenant's estimator-bypassed runs.
	WriteThrough int64 `json:"write_through,omitempty"`
	// Shaped/ShapeDelayUS account the bandwidth shaper's actions.
	Shaped       int64 `json:"shaped,omitempty"`
	ShapeDelayUS int64 `json:"shape_delay_us,omitempty"`
	// Rejected counts admission rejections.
	Rejected int64 `json:"rejected,omitempty"`
}

// Report flattens the run into its machine-readable form.
func (rs *RunStats) Report() *Report {
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	r := &Report{
		Scheme: rs.Scheme, Trace: rs.Trace, Backend: rs.Backend,
		Requests: rs.Requests, Reads: rs.Reads, Writes: rs.Writes,
		MeanUS: us(rs.Resp.Mean()), P50US: us(rs.Resp.Percentile(50)),
		P90US: us(rs.Resp.Percentile(90)), P99US: us(rs.Resp.Percentile(99)),
		ReadMeanUS: us(rs.RespRead.Mean()), WriteMeanUS: us(rs.RespWrite.Mean()),
		OrigBytes: rs.OrigBytes, CompBytes: rs.CompBytes, StoredBytes: rs.StoredBytes,
		TrafficRatio: rs.TrafficRatio(), CodecRatio: rs.CodecRatio(),
		LiveBlocks: rs.LiveBlocks, LiveSlotBytes: rs.LiveSlotBytes,
		PeakSlotBytes: rs.PeakSlotBytes, DeadSlotBytes: rs.DeadSlotBytes,
		AllocClasses: rs.AllocClasses,
		RunsByCodec:  make(map[string]int64, len(rs.RunsByTag)),
		BytesByCodec: make(map[string]int64, len(rs.BytesByTag)),
		WriteThrough: rs.WriteThrough, WriteThroughRate: rs.WriteThroughRate(),
		Oversize: rs.Oversize, OversizeRate: rs.OversizeRate(),
		SDRuns: rs.SDRuns, SDMerged: rs.SDMerged,
		SubmitStalls: rs.SubmitStalls,
		DedupHits:    rs.DedupHits, DedupMisses: rs.DedupMisses,
		DedupHitRate: rs.DedupHitRate(), DedupBytesSaved: rs.DedupBytesSaved,
		DedupUnrefs: rs.DedupUnrefs,
		MaintTicks:  rs.MaintTicks, MaintIdleTicks: rs.MaintIdleTicks,
		MaintRelocations: rs.MaintRelocations, MaintCold: rs.MaintCold,
		MaintHot: rs.MaintHot, MaintAborted: rs.MaintAborted,
		MaintReclaimed: rs.MaintReclaimed, MaintCompactions: rs.MaintCompactions,
		MaintCoalesced: rs.MaintCoalesced, HeatHist: rs.HeatHist,
		Faults: rs.Faults, FaultRetries: rs.FaultRetries,
		DegradedReads:      rs.DegradedReads,
		DegradedReadTimeUS: rs.DegradedReadTime.Microseconds(),
		WriteReallocs:      rs.WriteReallocs,
		UnrecoveredReads:   rs.UnrecoveredReads,
		Recoveries:         rs.Recoveries, CrashLost: rs.CrashLost,
		CacheHits: rs.Cache.Hits, CacheMisses: rs.Cache.Misses,
		Erases: rs.TotalErases(), FlashPages: rs.TotalFlashWrites(),
		Composite: rs.Composite(), DurationUS: rs.Duration.Microseconds(),
		Obs: rs.Obs,
	}
	for tag, n := range rs.RunsByTag {
		r.RunsByCodec[tagLabel(tag)] += n
	}
	for tag, n := range rs.BytesByTag {
		r.BytesByCodec[tagLabel(tag)] += n
	}
	if len(rs.Tenants) > 0 {
		r.Tenants = make(map[string]*TenantReport, len(rs.Tenants))
		for name, ts := range rs.Tenants {
			tr := &TenantReport{
				Requests: ts.Requests, Reads: ts.Reads, Writes: ts.Writes,
				MeanUS: us(ts.Resp.Mean()), P50US: us(ts.Resp.Percentile(50)),
				P99US:        us(ts.Resp.Percentile(99)),
				WriteThrough: ts.WriteThrough, Shaped: ts.Shaped,
				ShapeDelayUS: ts.ShapeDelay.Microseconds(), Rejected: ts.Rejected,
			}
			if len(ts.RunsByTag) > 0 {
				tr.RunsByCodec = make(map[string]int64, len(ts.RunsByTag))
				for tag, n := range ts.RunsByTag {
					tr.RunsByCodec[tagLabel(tag)] += n
				}
			}
			r.Tenants[name] = tr
		}
	}
	if rs.Err != nil {
		r.Error = rs.Err.Error()
	}
	return r
}
