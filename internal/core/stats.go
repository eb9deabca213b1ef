package core

import (
	"cmp"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
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
//
// Each scalar counter is a field here plus one row of runStats, which
// says what it counts and how MergeRunStats, Report and Format treat
// it: adding a counter means one field plus one row. A run has one
// machine form, its Report, and encoding/json writes that too.
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

	// Request counts, write-traffic and end-of-run live-space
	// accounting (see runStats).
	Requests      int64
	Reads         int64
	Writes        int64
	OrigBytes     int64
	CompBytes     int64
	StoredBytes   int64
	LiveBlocks    int64
	LiveSlotBytes int64
	PeakSlotBytes int64
	DeadSlotBytes int64
	AllocClasses  int

	// Policy behaviour: runs and original bytes stored per codec, then
	// the estimator and detector counters (see runStats).
	RunsByTag    map[compress.Tag]int64
	BytesByTag   map[compress.Tag]int64
	WriteThrough int64
	Oversize     int64
	SDMerged     int64
	SDRuns       int64
	SubmitStalls int64

	// Dedup, maintenance and fault counters, all zero while their
	// feature is off (see runStats). HeatHist counts live extents by
	// decayed heat bucket at the end of a maintained run.
	DedupHits        int64
	DedupMisses      int64
	DedupBytesSaved  int64
	DedupUnrefs      int64
	MaintTicks       int64
	MaintIdleTicks   int64
	MaintRelocations int64
	MaintCold        int64
	MaintHot         int64
	MaintAborted     int64
	MaintReclaimed   int64
	MaintCompactions int64
	MaintCoalesced   int64
	HeatHist         []int64
	Faults           int64
	FaultRetries     int64
	DegradedReads    int64
	DegradedReadTime time.Duration
	WriteReallocs    int64
	UnrecoveredReads int64
	Recoveries       int64
	CrashLost        int64

	// Tenants breaks the run down by submitting tenant when multi-
	// tenant QoS is active (nil otherwise — untagged runs carry no
	// tenant section). Keys are tenant names; the map is merged in
	// sorted key order so sharded runs stay deterministic.
	Tenants map[string]*TenantStats

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
// actions applied to it. Its counters are the rows of tenantStats.
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
	// WriteThrough, Shaped, ShapeDelay and Rejected account the
	// estimator's bypasses and the QoS actions (see tenantStats).
	WriteThrough int64
	Shaped       int64
	ShapeDelay   time.Duration
	Rejected     int64
}

// A stat is one row of a stats table: a field of S, or a value derived
// from S, and how the merge, the JSON report and Format treat it. A
// table's order is both the JSON report's key order and Format's text
// order.
type stat[S any] struct {
	field string        // the S field read, as a path ("Cache.Hits"); merged when it is an integer or a duration
	get   func(*S) any  // a derived value, in place of field
	key   string        // JSON key; "" keeps the row out of the JSON report
	omit  bool          // the JSON report, and Format outside a gated line, leave out a zero value
	max   bool          // merge keeps the largest part's value instead of the sum
	text  string        // Format fragment, a fmt format of the value (a slice spreads over it); "" prints nothing
	line  func(*S) bool // gates the Format line the row belongs to
}

// Value kinds whose renderings in the JSON report and in Format differ
// (a time.Duration counter is written in whole microseconds and printed
// rounded to the microsecond).
type (
	latency time.Duration // fractional microseconds in JSON, rounded to the microsecond in Format
	percent float64       // a fraction, printed ×100
)

// Format lines shown only when their feature did something, so reports
// of runs without it stay byte-identical to builds that predate it.
func dedupOn(s *RunStats) bool  { return s.DedupHits > 0 || s.DedupMisses > 0 }
func faultsOn(s *RunStats) bool { return s.Faults > 0 || s.Recoveries > 0 }
func maintOn(s *RunStats) bool {
	return s.MaintTicks > 0 || s.MaintRelocations > 0 || s.MaintCompactions > 0
}

// runStats is the one declaration of RunStats's scalar counters and the
// values derived from them.
var runStats = []stat[RunStats]{
	{field: "Scheme", key: "scheme", text: "scheme=%s"},
	{field: "Trace", key: "trace", text: " trace=%s"},
	{field: "Backend", key: "backend", text: " backend=%s\n"},
	{field: "Requests", key: "requests", text: "requests: %d"}, // requests completed
	{field: "Reads", key: "reads", text: " (%d reads"},
	{field: "Writes", key: "writes", text: ", %d writes)\n"},
	{get: func(s *RunStats) any { return latency(s.Resp.Mean()) }, key: "mean_us", text: "response: mean=%v"},
	{get: func(s *RunStats) any { return latency(s.Resp.Percentile(50)) }, key: "p50_us", text: " p50=%v"},
	{get: func(s *RunStats) any { return latency(s.Resp.Percentile(90)) }, key: "p90_us", text: " p90=%v"},
	{get: func(s *RunStats) any { return latency(s.Resp.Percentile(99)) }, key: "p99_us", text: " p99=%v"},
	{get: func(s *RunStats) any { return latency(s.RespRead.Mean()) }, key: "read_mean_us", text: " (read mean=%v"},
	{get: func(s *RunStats) any { return latency(s.RespWrite.Mean()) }, key: "write_mean_us", text: ", write mean=%v)\n"},
	{field: "OrigBytes", key: "orig_bytes", text: "space: orig=%d"}, // uncompressed bytes the host wrote
	{field: "CompBytes", key: "comp_bytes", text: " comp=%d"},       // codec output bytes
	{field: "StoredBytes", key: "stored_bytes", text: " stored=%d"}, // quantized slot bytes stored
	{get: func(s *RunStats) any { return s.TrafficRatio() }, key: "traffic_ratio", text: " ratio=%.3f"},
	{get: func(s *RunStats) any { return s.CodecRatio() }, key: "codec_ratio", text: " codec-ratio=%.3f\n"},
	{field: "LiveBlocks", key: "live_blocks", text: "live: blocks=%d"}, // live-space accounting at the end of the run
	{field: "LiveSlotBytes", key: "live_slot_bytes", text: " slot-bytes=%d"},
	{field: "PeakSlotBytes", key: "peak_slot_bytes", text: " peak=%d"},
	{field: "DeadSlotBytes", key: "dead_slot_bytes", text: " dead=%d"},
	// Distinct free-slot sizes at the end of the run — a fragmentation
	// proxy (the quantization ablation inflates it).
	{field: "AllocClasses", key: "alloc_classes", text: " alloc-classes=%d\n"},
	{get: func(s *RunStats) any { return codecNames(s.RunsByTag) }, key: "runs_by_codec"},
	{get: func(s *RunStats) any { return codecNames(s.BytesByTag) }, key: "bytes_by_codec"},
	{field: "WriteThrough", key: "write_through", text: "policy: write-through=%d"}, // runs bypassed by the estimator
	{get: func(s *RunStats) any { return percent(s.WriteThroughRate()) }, key: "write_through_rate", text: " (%.1f%%)"},
	{field: "Oversize", key: "oversize", text: " oversize=%d"}, // runs whose codec output missed the 75 % slot
	{get: func(s *RunStats) any { return percent(s.OversizeRate()) }, key: "oversize_rate", text: " (%.1f%%)\n"},
	{get: (*RunStats).codecLines, text: "%s"},
	{field: "SDRuns", key: "sd_runs", text: "sd: runs=%d"},             // runs the detector flushed
	{field: "SDMerged", key: "sd_merged", text: " merged-writes=%d\n"}, // writes merged into a pending run
	// Serve submissions that found their shard mailbox full and blocked
	// (zero in replay).
	{field: "SubmitStalls", key: "submit_stalls", omit: true, text: "serve: submit-stalls=%d\n"},
	{field: "DedupHits", key: "dedup_hits", omit: true, text: "dedup: hits=%d", line: dedupOn}, // runs resolved against a stored extent
	{field: "DedupMisses", key: "dedup_misses", omit: true, text: " misses=%d", line: dedupOn}, // fingerprinted runs stored normally
	{get: func(s *RunStats) any { return percent(s.DedupHitRate()) }, key: "dedup_hit_rate", omit: true, text: " hit-rate=%.1f%%", line: dedupOn},
	{field: "DedupBytesSaved", key: "dedup_saved_bytes", omit: true, text: " saved-bytes=%d", line: dedupOn}, // slot bytes hits did not store
	{field: "DedupUnrefs", key: "dedup_unrefs", omit: true, text: " unrefs=%d\n", line: dedupOn},             // slots released after their last reference
	{field: "MaintTicks", key: "maint_ticks", omit: true, text: "maint: ticks=%d", line: maintOn},
	{field: "MaintIdleTicks", key: "maint_idle_ticks", omit: true, text: " idle=%d", line: maintOn},         // ticks that found the device idle
	{field: "MaintRelocations", key: "maint_relocations", omit: true, text: " relocated=%d", line: maintOn}, // extents rewritten to a new slot
	{field: "MaintCold", key: "maint_cold", omit: true, text: " (cold=%d", line: maintOn},                   // relocations that recompressed cold data
	{field: "MaintHot", key: "maint_hot", omit: true, text: " hot=%d", line: maintOn},                       // relocations that demoted hot data
	// Relocations started but not committed. Most are a cold re-encode
	// that showed no space win (on replay-usr0-bg every one is); the rest
	// were abandoned mid-flight to a read error, an overwrite, a failed
	// run or a full device.
	{field: "MaintAborted", key: "maint_aborted", omit: true, text: " aborted=%d)", line: maintOn},
	// Net live slot bytes freed by relocation; the collector's
	// edc_maint_reclaimed_bytes_total adds only the positive savings.
	{field: "MaintReclaimed", key: "maint_reclaimed_bytes", omit: true, text: " reclaimed=%d", line: maintOn},
	{field: "MaintCompactions", key: "maint_compactions", omit: true, text: " compactions=%d", line: maintOn}, // allocator free-list compactions
	{field: "MaintCoalesced", key: "maint_coalesced", omit: true, text: " coalesced=%d\n", line: maintOn},     // adjacent free slots merged by them
	{field: "HeatHist", key: "heat_hist", omit: true, text: "heat: h0=%d h1=%d h2-3=%d h4-7=%d h8+=%d\n",
		line: func(s *RunStats) bool { return len(s.HeatHist) == 5 }},
	{field: "Faults", key: "faults", omit: true, text: "faults: injected=%d", line: faultsOn},               // injected device errors observed
	{field: "FaultRetries", key: "fault_retries", omit: true, text: " retries=%d", line: faultsOn},          // virtual-time retries issued
	{field: "DegradedReads", key: "degraded_reads", omit: true, text: " degraded-reads=%d", line: faultsOn}, // RAIS5 reads served by parity reconstruction
	{field: "DegradedReadTime", key: "degraded_read_time_us", omit: true, text: " (%v)", line: faultsOn},    // virtual time spent reconstructing
	// Writes moved to a fresh slot after a hard failure (the collector's
	// edc_recoveries_total{reason="realloc"}).
	{field: "WriteReallocs", key: "write_reallocs", omit: true, text: " reallocs=%d", line: faultsOn},
	{field: "UnrecoveredReads", key: "unrecovered_reads", omit: true, text: " unrecovered=%d", line: faultsOn}, // hard read failures with no redundancy
	{field: "Recoveries", key: "recoveries", omit: true, text: " recoveries=%d", line: faultsOn},               // crash recoveries (power cut)
	{field: "CrashLost", key: "crash_lost", omit: true, text: " lost=%d\n", line: faultsOn},                    // requests in flight at the power cut
	{get: (*RunStats).tenantLines, text: "%s"},
	{field: "Cache.Hits", key: "cache_hits", text: "cache: hits=%d"},
	{field: "Cache.Misses", key: "cache_misses", text: " misses=%d\n"},
	{field: "Cache.Insertions"},
	{field: "Cache.Evictions"},
	{field: "CPU.Jobs"}, // the host CPU station
	{field: "CPU.BusyTime"},
	{field: "CPU.WaitTime"},
	{field: "CPU.MaxQueue", max: true},
	{get: func(s *RunStats) any { return s.TotalErases() }, key: "erases", text: "endurance: erases=%d"},
	{get: func(s *RunStats) any { return s.TotalFlashWrites() }, key: "flash_pages", text: " flash-pages=%d\n"},
	{get: func(s *RunStats) any { return s.Composite() }, key: "composite", text: "composite=%.3f"},
	// The longest part's virtual time: shards run concurrently in real
	// time and each simulates the full trace timeline.
	{field: "Duration", max: true, key: "duration_us"},
	{get: func(s *RunStats) any { return s.Duration.Round(time.Millisecond) }, text: " duration=%v\n"},
	{get: (*RunStats).tenantReports, key: "tenants", omit: true},
	{get: func(s *RunStats) any { return s.Obs }, key: "obs", omit: true},
	{get: func(s *RunStats) any { return errText(s.Err) }, key: "error", omit: true, text: "error: %v\n"},
}

// tenantStats is the one declaration of TenantStats's counters; Format
// prints them on the tenant's line.
var tenantStats = []stat[TenantStats]{
	{field: "Requests", key: "requests", text: " requests=%d"},
	{field: "Reads", key: "reads", text: " (%d reads"},
	{field: "Writes", key: "writes", text: ", %d writes)"},
	{get: func(s *TenantStats) any { return latency(s.Resp.Mean()) }, key: "mean_us", text: " mean=%v"},
	{get: func(s *TenantStats) any { return latency(s.Resp.Percentile(50)) }, key: "p50_us"},
	{get: func(s *TenantStats) any { return latency(s.Resp.Percentile(99)) }, key: "p99_us", text: " p99=%v"},
	{get: func(s *TenantStats) any { return codecNames(s.RunsByTag) }, key: "runs_by_codec", omit: true},
	{get: func(s *TenantStats) any { return tagCounts(s.RunsByTag) }, text: "%s"},
	{field: "WriteThrough", key: "write_through", omit: true, text: " write-through=%d"}, // the tenant's runs the estimator bypassed
	// Requests delayed by the tenant's bandwidth schedule and the
	// virtual time added (edc_tenant_shaped_total and
	// edc_tenant_shape_delay_us_total, which sums whole microseconds).
	{field: "Shaped", key: "shaped", omit: true, text: " shaped=%d"},
	{field: "ShapeDelay", key: "shape_delay_us", omit: true, text: " delay=%v"},
	// Requests refused admission at the tenant's queue bound.
	{field: "Rejected", key: "rejected", omit: true, text: " rejected=%d"},
}

// fieldOf is the field row r reads in s.
func (r *stat[S]) fieldOf(s *S) reflect.Value {
	v := reflect.ValueOf(s).Elem()
	for _, name := range strings.Split(r.field, ".") {
		v = v.FieldByName(name)
	}
	return v
}

// value is row r's value in s.
func (r *stat[S]) value(s *S) any {
	if r.get != nil {
		return r.get(s)
	}
	return r.fieldOf(s).Interface()
}

// mergeStats folds the integer and duration fields of p into out by
// their rows' rules.
func mergeStats[S any](table []stat[S], out, p *S) {
	for i := range table {
		r := &table[i]
		if r.field == "" {
			continue
		}
		o, v := r.fieldOf(out), r.fieldOf(p)
		switch {
		case !o.CanInt():
		case !r.max:
			o.SetInt(o.Int() + v.Int())
		case v.Int() > o.Int():
			o.SetInt(v.Int())
		}
	}
}

// isZero reports whether v is a zero number, an empty string, map or
// slice, or nil.
func isZero(v any) bool {
	rv := reflect.ValueOf(v)
	switch rv.Kind() {
	case reflect.Invalid:
		return true
	case reflect.Map, reflect.Slice, reflect.String:
		return rv.Len() == 0
	}
	return rv.IsZero()
}

// writeText prints the rows of table that carry text.
func writeText[S any](b *strings.Builder, table []stat[S], s *S) {
	for i := range table {
		r := &table[i]
		if r.text == "" {
			continue
		}
		v := r.value(s)
		if r.line != nil && !r.line(s) || r.line == nil && r.omit && isZero(v) {
			continue
		}
		var args []any
		switch v := v.(type) {
		case []int64:
			for _, n := range v {
				args = append(args, n)
			}
		case time.Duration:
			args = []any{v.Round(time.Microsecond)}
		case latency:
			args = []any{time.Duration(v).Round(time.Microsecond)}
		case percent:
			args = []any{100 * float64(v)}
		default:
			args = []any{v}
		}
		fmt.Fprintf(b, r.text, args...)
	}
}

// newReport encodes the rows of table that carry a key, in table order.
func newReport[S any](table []stat[S], s *S) *Report {
	b := []byte{'{'}
	for i := range table {
		r := &table[i]
		if r.key == "" {
			continue
		}
		v := r.value(s)
		switch d := v.(type) {
		case time.Duration:
			v = d.Microseconds()
		case latency:
			v = float64(d) / float64(time.Microsecond)
		}
		if r.omit && isZero(v) {
			continue
		}
		val, err := json.Marshal(v)
		if err != nil {
			// Only a NaN or infinite float fails, and every ratio
			// guards its divisor.
			panic(fmt.Sprintf("core: report %s: %v", r.key, err))
		}
		if len(b) > 1 {
			b = append(b, ',')
		}
		b = append(append(append(append(b, '"'), r.key...), '"', ':'), val...)
	}
	return &Report{append(b, '}')}
}

func newTenantStats() *TenantStats {
	return &TenantStats{
		Resp:      metrics.NewLatencyHist(),
		RunsByTag: make(map[compress.Tag]int64),
	}
}

// merge folds o into ts (counter sums, histogram merge).
func (ts *TenantStats) merge(o *TenantStats) {
	mergeStats(tenantStats, ts, o)
	ts.Resp.Merge(o.Resp)
	addTags(ts.RunsByTag, o.RunsByTag)
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
// slice order, so the merge is deterministic: counters merge by their
// runStats rows, histograms and codec maps sum, tenants fold in name
// order, per-device slices concatenate, and the first error wins.
func MergeRunStats(parts []*RunStats) *RunStats {
	out := newRunStats(parts[0].Scheme, parts[0].Trace, parts[0].Backend)
	for _, p := range parts {
		if p == nil {
			continue
		}
		mergeStats(runStats, out, p)
		out.Resp.Merge(p.Resp)
		out.RespRead.Merge(p.RespRead)
		out.RespWrite.Merge(p.RespWrite)
		addTags(out.RunsByTag, p.RunsByTag)
		addTags(out.BytesByTag, p.BytesByTag)
		for len(out.HeatHist) < len(p.HeatHist) {
			out.HeatHist = append(out.HeatHist, 0)
		}
		for i, v := range p.HeatHist {
			out.HeatHist[i] += v
		}
		for _, name := range sortedKeys(p.Tenants) {
			out.Tenant(name).merge(p.Tenants[name])
		}
		out.Devices = append(out.Devices, p.Devices...)
		out.Queues = append(out.Queues, p.Queues...)
		if out.Err == nil && p.Err != nil {
			out.Err = p.Err
		}
	}
	return out
}

func addTags(out, m map[compress.Tag]int64) {
	for tag, n := range m {
		out[tag] += n
	}
}

func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// ratio is a over b, or none when b is zero.
func ratio(a, b int64, none float64) float64 {
	if b == 0 {
		return none
	}
	return float64(a) / float64(b)
}

// TrafficRatio is the paper's compression ratio over write traffic:
// original bytes divided by stored bytes (>= 1; 1 for Native).
func (rs *RunStats) TrafficRatio() float64 { return ratio(rs.OrigBytes, rs.StoredBytes, 1) }

// CodecRatio is original bytes over raw codec output (ignores slot
// quantization overhead).
func (rs *RunStats) CodecRatio() float64 { return ratio(rs.OrigBytes, rs.CompBytes, 1) }

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
func (rs *RunStats) WriteThroughRate() float64 { return ratio(rs.WriteThrough, rs.SDRuns, 0) }

// OversizeRate is the fraction of stored runs whose codec output missed
// the 75 % slot class and reverted to uncompressed storage (0 when no
// runs were stored).
func (rs *RunStats) OversizeRate() float64 { return ratio(rs.Oversize, rs.SDRuns, 0) }

// DedupHitRate is the fraction of fingerprinted runs resolved against
// an existing extent (0 when dedup never ran).
func (rs *RunStats) DedupHitRate() float64 {
	return ratio(rs.DedupHits, rs.DedupHits+rs.DedupMisses, 0)
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

// codecNames keys a per-codec count by codec name.
func codecNames(m map[compress.Tag]int64) map[string]int64 {
	out := make(map[string]int64, len(m))
	for tag, n := range m {
		out[tagLabel(tag)] += n
	}
	return out
}

// tagCounts renders a per-codec count as " name=n" pairs in tag order.
func tagCounts(m map[compress.Tag]int64) string {
	var b strings.Builder
	for _, tag := range sortedKeys(m) {
		fmt.Fprintf(&b, " %s=%d", tagLabel(tag), m[tag])
	}
	return b.String()
}

// codecLines renders one Format line per codec the run stored with.
func (rs *RunStats) codecLines() any {
	var b strings.Builder
	for _, tag := range sortedKeys(rs.RunsByTag) {
		fmt.Fprintf(&b, "  codec %-5s runs=%d bytes=%d\n", tagLabel(tag), rs.RunsByTag[tag], rs.BytesByTag[tag])
	}
	return b.String()
}

// tenantLines renders one Format line per tenant, in name order.
func (rs *RunStats) tenantLines() any {
	var b strings.Builder
	for _, name := range sortedKeys(rs.Tenants) {
		b.WriteString("tenant " + name + ":")
		writeText(&b, tenantStats, rs.Tenants[name])
		b.WriteByte('\n')
	}
	return b.String()
}

// tenantReports is the JSON report's per-tenant breakdown.
func (rs *RunStats) tenantReports() any {
	out := make(map[string]*Report, len(rs.Tenants))
	for name, ts := range rs.Tenants {
		out[name] = newReport(tenantStats, ts)
	}
	return out
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// Format renders the canonical multi-line human-readable report: the
// text of runStats's rows in table order — request counts, the
// response-time distribution, space accounting, policy behaviour, SD
// effectiveness, the feature lines of the features that ran, tenants,
// cache and endurance counters. It is the one report the docs
// reference; edcbench prints it for single replays.
func (rs *RunStats) Format() string {
	var b strings.Builder
	writeText(&b, runStats, rs)
	return b.String()
}

// Report is the machine-readable form of RunStats (edcbench -json): one
// JSON object whose keys are the keyed rows of runStats in table order,
// durations in microseconds, codec maps keyed by codec name, and a
// tenant's object keyed by tenantStats's rows. It is kept encoded, so it
// round-trips through encoding/json unchanged.
type Report struct{ json.RawMessage }

// Report flattens the run into its machine-readable form.
func (rs *RunStats) Report() *Report { return newReport(runStats, rs) }

// MarshalJSON encodes the run as its Report, so a RunStats inside any
// JSON document (a serve result's "result") reads like edcbench -json.
// The value receiver covers RunStats values as well as pointers.
func (rs RunStats) MarshalJSON() ([]byte, error) { return rs.Report().RawMessage, nil }
