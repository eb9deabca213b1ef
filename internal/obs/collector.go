package obs

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Config configures a Collector. The zero value collects counters only.
type Config struct {
	// Tracer receives one Event per decision (nil: no event stream).
	Tracer Tracer
	// SeriesInterval enables fixed-interval time-series sampling with
	// the given bin width (0 disables).
	SeriesInterval time.Duration
	// Shard tags every event with the producing shard (0 unsharded).
	Shard int
}

// Collector is the pipeline-facing observer: the core stages call one
// hook method per decision. A nil *Collector is valid — every method is
// a nil-receiver no-op — so the disabled path costs one nil check per
// decision and is bit-identical to an uninstrumented replay. Hooks only
// read values the pipeline already computed; nothing flows back.
//
// A Collector is used from a single goroutine (its pipeline's event
// loop). Sharded replay creates one buffering Child per shard and folds
// them back with Absorb after the shards join.
type Collector struct {
	shard  int
	tracer Tracer
	series *Series

	buffering bool
	buf       []Event

	seq      int64
	counters map[counter]int64
}

// Family is one counter family of the collector.
type Family struct {
	// Name is the metric name, Labels its label names in key order and
	// Help the text of its # HELP line.
	Name   string
	Labels []string
	Help   string
}

// families declares every counter family the collector keeps, once, in
// declaration order; hooks count by family id and label values, and
// keys are rendered only on the way out (Counters).
var families []Family

// family declares one family and returns its id.
func family(name, help string, labels ...string) int {
	families = append(families, Family{Name: name, Labels: labels, Help: help})
	return len(families) - 1
}

var (
	fEvents           = family("edc_events_total", "decision events emitted")
	fAdmitted         = family("edc_admitted_total", "host requests admitted by the frontend", "op")
	fDeferred         = family("edc_deferred_total", "host requests parked by the closed-loop bound", "op")
	fSDMerged         = family("edc_sd_merged_total", "writes merged into a pending run")
	fSDFlushes        = family("edc_sd_flushes_total", "pending runs flushed, by reason", "reason")
	fEstimates        = family("edc_estimates_total", "sampling-estimator verdicts", "verdict")
	fPolicyRuns       = family("edc_policy_runs_total", "stored runs by selected codec", "codec")
	fSlots            = family("edc_slots_total", "quantized slot placements by class", "class")
	fSlotOversize     = family("edc_slot_oversize_total", "runs whose codec output missed the 75% class")
	fSlotWaste        = family("edc_slot_waste_bytes_total", "slot bytes beyond codec output (internal fragmentation)")
	fSlotAlloc        = family("edc_slot_alloc_bytes_total", "slot bytes allocated")
	fSlotFree         = family("edc_slot_free_bytes_total", "slot bytes freed by dead extents")
	fCacheLookups     = family("edc_cache_lookups_total", "host-cache read lookups by result", "result")
	fDecompress       = family("edc_decompress_total", "read segments requiring decompression, by codec", "codec")
	fFaults           = family("edc_faults_total", "injected device faults by operation and kind", "op", "kind")
	fRetries          = family("edc_retries_total", "operations re-issued after transient faults", "op")
	fDegradedReads    = family("edc_degraded_reads_total", "RAIS5 reads reconstructed from surviving members")
	fRecoveries       = family("edc_recoveries_total", "recovery decisions by reason", "reason")
	fMaintRecompress  = family("edc_maint_recompress_total", "extents rewritten by background maintenance, by reason", "reason")
	fMaintReclaimed   = family("edc_maint_reclaimed_bytes_total", "slot bytes reclaimed by cold recompression")
	fMaintCompactions = family("edc_maint_compactions_total", "allocator free-list compactions")
	fMaintCoalesced   = family("edc_maint_coalesced_total", "adjacent free slots merged by compaction")
	fDedupHits        = family("edc_dedup_hits_total", "flushed runs deduplicated against an existing extent")
	fDedupMisses      = family("edc_dedup_misses_total", "flushed runs fingerprinted but unseen in the content index")
	fDedupSaved       = family("edc_dedup_saved_bytes_total", "slot bytes dedup hits avoided allocating")
	fDedupUnrefs      = family("edc_dedup_unrefs_total", "shared extents released on their last unref")
	fTenantRequests   = family("edc_tenant_requests_total", "tenant-tagged requests admitted, by tenant", "tenant")
	fTenantBytes      = family("edc_tenant_bytes_total", "tenant-tagged bytes admitted, by tenant", "tenant")
	fTenantShaped     = family("edc_tenant_shaped_total", "requests delayed by a tenant bandwidth schedule", "tenant")
	fTenantShapeDelay = family("edc_tenant_shape_delay_us_total", "virtual microseconds of bandwidth-shaping delay, by tenant", "tenant")
	fTenantRejected   = family("edc_tenant_rejected_total", "requests refused admission, by tenant", "tenant")
)

// Families returns the counter families a Collector keeps, the table
// OBSERVABILITY.md documents.
func Families() []Family { return slices.Clone(families) }

// counter keys one counter: its family id and its label values.
type counter struct {
	family int
	labels [2]string
}

// add counts n on family f under the given label values.
func (c *Collector) add(f int, n int64, labels ...string) {
	k := counter{family: f}
	copy(k.labels[:], labels)
	c.counters[k] += n
}

// String renders the key Prometheus-style, labels inline:
// edc_faults_total{op="read",kind="hard"}.
func (k counter) String() string {
	f := &families[k.family]
	if len(f.Labels) == 0 {
		return f.Name
	}
	pairs := make([]string, len(f.Labels))
	for i, label := range f.Labels {
		pairs[i] = label + "=" + strconv.Quote(k.labels[i])
	}
	return f.Name + "{" + strings.Join(pairs, ",") + "}"
}

// New returns a Collector streaming to cfg.Tracer and sampling series
// at cfg.SeriesInterval. Counters are always collected.
func New(cfg Config) *Collector {
	c := &Collector{
		shard:    cfg.Shard,
		tracer:   cfg.Tracer,
		counters: make(map[counter]int64),
	}
	if cfg.SeriesInterval > 0 {
		c.series = NewSeries(cfg.SeriesInterval)
	}
	return c
}

// Child returns a buffering collector for one shard of a sharded
// replay: it records events in memory instead of streaming them, so the
// shard goroutines never contend on the parent's tracer. Fold children
// back with Absorb. A nil parent returns a nil child (the no-op chain).
func (c *Collector) Child(shard int) *Collector {
	if c == nil {
		return nil
	}
	child := &Collector{
		shard:     shard,
		buffering: c.tracer != nil,
		counters:  make(map[counter]int64),
	}
	if c.series != nil {
		child.series = NewSeries(c.series.interval)
	}
	return child
}

// Absorb merges the per-shard children into c deterministically: events
// are ordered by (virtual time, shard, per-shard sequence) and emitted
// to c's tracer in that order; counters sum; series bins sum. Because
// each shard's replay is itself deterministic, a traced sharded run
// yields an identical event stream for a fixed shard count.
func (c *Collector) Absorb(children []*Collector) {
	if c == nil {
		return
	}
	var total int
	for _, ch := range children {
		if ch != nil {
			total += len(ch.buf)
		}
	}
	merged := make([]Event, 0, total)
	for _, ch := range children {
		if ch == nil {
			continue
		}
		merged = append(merged, ch.buf...)
		for k, v := range ch.counters {
			c.counters[k] += v
		}
		if c.series != nil {
			c.series.merge(ch.series)
		}
	}
	sort.SliceStable(merged, func(i, j int) bool {
		a, b := &merged[i], &merged[j]
		if a.TUS != b.TUS {
			return a.TUS < b.TUS
		}
		if a.Shard != b.Shard {
			return a.Shard < b.Shard
		}
		return a.Seq < b.Seq
	})
	if c.tracer != nil {
		for i := range merged {
			c.tracer.Emit(&merged[i])
		}
	}
}

// emit stamps and routes one event.
func (c *Collector) emit(e Event) {
	e.Shard = c.shard
	e.Seq = c.seq
	c.seq++
	c.add(fEvents, 1)
	if c.buffering {
		c.buf = append(c.buf, e)
	}
	if c.tracer != nil {
		c.tracer.Emit(&e)
	}
}

// op renders the admit/defer direction label.
func op(write bool) string {
	if write {
		return "write"
	}
	return "read"
}

// Admit records one request admitted by the frontend. A tenant-tagged
// request (tenant != "", under QoS tagging) also ticks the per-tenant
// counters, and its event carries the tenant label.
func (c *Collector) Admit(now time.Duration, off, size int64, write bool, tenant string) {
	if c == nil {
		return
	}
	c.add(fAdmitted, 1, op(write))
	if tenant != "" {
		c.add(fTenantRequests, 1, tenant)
		c.add(fTenantBytes, size, tenant)
	}
	c.emit(Event{TUS: now.Microseconds(), Type: EvAdmit, Op: op(write), Off: off, Size: size, Tenant: tenant})
}

// Defer records one request parked in the deferred FIFO; queued is the
// queue depth including it.
func (c *Collector) Defer(now time.Duration, off, size int64, write bool, queued int) {
	if c == nil {
		return
	}
	c.add(fDeferred, 1, op(write))
	c.emit(Event{TUS: now.Microseconds(), Type: EvDefer, Op: op(write), Off: off, Size: size, Queued: queued})
}

// Shape records the bandwidth shaper delaying a tenant's request by
// delay of virtual time before admission.
func (c *Collector) Shape(now time.Duration, off, size int64, write bool, tenant string, delay time.Duration) {
	if c == nil {
		return
	}
	c.add(fTenantShaped, 1, tenant)
	c.add(fTenantShapeDelay, delay.Microseconds(), tenant)
	c.emit(Event{TUS: now.Microseconds(), Type: EvShape, Op: op(write), Off: off, Size: size,
		Tenant: tenant, DelayUS: delay.Microseconds()})
}

// AdmitReject records admission control refusing a tenant's request
// for the given reason ("queue_depth").
func (c *Collector) AdmitReject(now time.Duration, off, size int64, write bool, tenant, reason string) {
	if c == nil {
		return
	}
	c.add(fTenantRejected, 1, tenant)
	c.emit(Event{TUS: now.Microseconds(), Type: EvAdmitReject, Op: op(write), Off: off, Size: size,
		Tenant: tenant, Reason: reason})
}

// SDMerge records a write joining the pending run; writes is the run's
// host-write count including it.
func (c *Collector) SDMerge(now time.Duration, off, size int64, writes int) {
	if c == nil {
		return
	}
	c.add(fSDMerged, 1)
	c.emit(Event{TUS: now.Microseconds(), Type: EvSDMerge, Off: off, Size: size, Writes: writes})
}

// SDFlush records the pending run [runOff, runOff+runSize), carrying
// writes host writes, leaving the detector for the given reason.
func (c *Collector) SDFlush(now time.Duration, reason string, runOff, runSize int64, writes int) {
	if c == nil {
		return
	}
	c.add(fSDFlushes, 1, reason)
	c.emit(Event{TUS: now.Microseconds(), Type: EvSDFlush, Reason: reason, Off: runOff, Size: runSize, Writes: writes})
}

// Estimate records the sampling estimator's verdict on the run at
// [off, off+size): the sampled ratio and whether the run is written
// through (ratio below the 4/3 write-through threshold).
func (c *Collector) Estimate(now time.Duration, off, size int64, ratio float64, writeThrough bool) {
	if c == nil {
		return
	}
	verdict := "compress"
	if writeThrough {
		verdict = "write_through"
	}
	c.add(fEstimates, 1, verdict)
	c.emit(Event{TUS: now.Microseconds(), Type: EvEstimate, Off: off, Size: size, Ratio: ratio, Verdict: verdict})
}

// PolicyChoice records the codec the policy selected for the run at
// [off, off+size) given the calculated IOPS at decision time. codec is
// "none" when the run is stored uncompressed.
func (c *Collector) PolicyChoice(now time.Duration, off, size int64, ciops float64, codec string) {
	if c == nil {
		return
	}
	c.add(fPolicyRuns, 1, codec)
	if c.series != nil {
		c.series.observeIOPS(now, ciops)
		c.series.observeCodec(now, codec)
	}
	c.emit(Event{TUS: now.Microseconds(), Type: EvPolicy, Off: off, Size: size, CIOPS: ciops, Codec: codec})
}

// SlotChoice records the quantized placement of one stored run: the
// codec output of comp bytes went into a slot of slot bytes (Fig. 5
// classes 25/50/75/100 % of orig). oversize marks codec output above
// the 75 % class, which reverts the run to uncompressed storage.
func (c *Collector) SlotChoice(now time.Duration, off, orig int64, codec string, comp, slot int64, oversize bool) {
	if c == nil {
		return
	}
	e := Event{TUS: now.Microseconds(), Type: EvSlot, Off: off, Size: orig,
		Codec: codec, Comp: comp, Slot: slot, ClassPct: slotClassPct(orig, slot), Waste: slot - comp}
	if oversize {
		e.Reason = "oversize"
		c.add(fSlotOversize, 1)
	} else {
		c.add(fSlots, 1, strconv.Itoa(e.ClassPct))
		c.add(fSlotWaste, e.Waste)
	}
	c.emit(e)
}

// SlotAlloc records slot bytes entering use (occupancy series +
// counters); the engine calls it when an extent is placed.
func (c *Collector) SlotAlloc(now time.Duration, bytes int64) {
	if c == nil {
		return
	}
	c.add(fSlotAlloc, bytes)
	if c.series != nil {
		c.series.observeSlot(now, bytes)
	}
}

// SlotFree records a dead extent's slot returning to the allocator:
// the logical range [off, off+orig) stored in slot bytes.
func (c *Collector) SlotFree(now time.Duration, off, orig, slot int64) {
	if c == nil {
		return
	}
	c.add(fSlotFree, slot)
	if c.series != nil {
		c.series.observeSlot(now, -slot)
	}
	c.emit(Event{TUS: now.Microseconds(), Type: EvSlotFree, Off: off, Size: orig, Slot: slot})
}

// CacheLookup records the host-cache ruling on a read of
// [off, off+size).
func (c *Collector) CacheLookup(now time.Duration, off, size int64, hit bool) {
	if c == nil {
		return
	}
	typ, result := EvCacheMiss, "miss"
	if hit {
		typ, result = EvCacheHit, "hit"
	}
	c.add(fCacheLookups, 1, result)
	c.emit(Event{TUS: now.Microseconds(), Type: typ, Off: off, Size: size})
}

// Decompress records a read segment that must decompress a compressed
// extent: comp stored bytes inflate back to orig bytes with codec.
func (c *Collector) Decompress(now time.Duration, off, orig int64, codec string, comp int64) {
	if c == nil {
		return
	}
	c.add(fDecompress, 1, codec)
	c.emit(Event{TUS: now.Microseconds(), Type: EvDecompress, Off: off, Size: orig, Codec: codec, Comp: comp})
}

// Fault records one injected device fault on an operation against
// [off, off+size) of member device dev.
func (c *Collector) Fault(now time.Duration, opName string, dev int, off, size int64, transient bool) {
	if c == nil {
		return
	}
	kind := "hard"
	if transient {
		kind = "transient"
	}
	c.add(fFaults, 1, opName, kind)
	c.emit(Event{TUS: now.Microseconds(), Type: EvFault, Op: opName, Dev: dev,
		Off: off, Size: size, Reason: kind})
}

// Retry records a path re-issuing an operation after a transient fault;
// attempt is the retry ordinal (1 = first retry).
func (c *Collector) Retry(now time.Duration, opName string, off, size int64, attempt int) {
	if c == nil {
		return
	}
	c.add(fRetries, 1, opName)
	c.emit(Event{TUS: now.Microseconds(), Type: EvRetry, Op: opName,
		Off: off, Size: size, Attempt: attempt})
}

// DegradedRead records a RAIS5 stripe reconstruction: the read of
// [off, off+size) on member dev failed hard and was rebuilt from the
// surviving devices.
func (c *Collector) DegradedRead(now time.Duration, dev int, off, size int64) {
	if c == nil {
		return
	}
	c.add(fDegradedReads, 1)
	c.emit(Event{TUS: now.Microseconds(), Type: EvDegradedRead, Dev: dev, Off: off, Size: size})
}

// Recover records one recovery decision: reason "realloc" (hard write
// failure moved the run to a fresh slot at [off, off+size)),
// "read_abandon" (a read gave up after retries and served lost data),
// or "crash" (journal recovery rebuilt the mapping; size carries the
// recovered live bytes and records the journal records applied).
func (c *Collector) Recover(now time.Duration, reason string, off, size int64, records int) {
	if c == nil {
		return
	}
	c.add(fRecoveries, 1, reason)
	c.emit(Event{TUS: now.Microseconds(), Type: EvRecover, Reason: reason,
		Off: off, Size: size, Records: records})
}

// Recompress records one background maintenance relocation: the extent
// at [off, off+orig) moved from codec `from` (slot oldSlot) to codec
// `to` (compressed length comp in slot newSlot) because it went cold or
// hot (reason).
func (c *Collector) Recompress(now time.Duration, off, orig int64, from, to string, comp, oldSlot, newSlot int64, reason string) {
	if c == nil {
		return
	}
	c.add(fMaintRecompress, 1, reason)
	if saved := oldSlot - newSlot; saved > 0 {
		c.add(fMaintReclaimed, saved)
	}
	c.emit(Event{TUS: now.Microseconds(), Type: EvRecompress, Reason: reason,
		Off: off, Size: orig, From: from, Codec: to, Comp: comp,
		Slot: newSlot, ClassPct: slotClassPct(orig, newSlot), Reclaimed: oldSlot - newSlot})
}

// Compact records one allocator free-list compaction: classes size
// classes existed, merged adjacent free slots were coalesced, and
// reclaimed bytes rejoined the untouched region.
func (c *Collector) Compact(now time.Duration, classes, merged int, reclaimed int64) {
	if c == nil {
		return
	}
	c.add(fMaintCompactions, 1)
	c.add(fMaintCoalesced, int64(merged))
	c.emit(Event{TUS: now.Microseconds(), Type: EvCompact,
		Classes: classes, Merged: merged, Reclaimed: reclaimed})
}

// DedupHit records a flushed run whose fingerprint matched the extent
// at targetOff: the run at [off, off+size) mapped by reference and
// skipped compression and allocation of slot bytes.
func (c *Collector) DedupHit(now time.Duration, off, size, targetOff, slot int64) {
	if c == nil {
		return
	}
	c.add(fDedupHits, 1)
	c.add(fDedupSaved, slot)
	c.emit(Event{TUS: now.Microseconds(), Type: EvDedupHit, Off: off, Size: size,
		Target: targetOff, Slot: slot})
}

// DedupMiss records a flushed run whose fingerprint was unseen; the run
// continued down the normal compression pipeline.
func (c *Collector) DedupMiss(now time.Duration, off, size int64) {
	if c == nil {
		return
	}
	c.add(fDedupMisses, 1)
	c.emit(Event{TUS: now.Microseconds(), Type: EvDedupMiss, Off: off, Size: size})
}

// Unref records a dedup-shared extent losing its last reference: the
// extent once mapped at [off, off+orig) released slot bytes back to the
// allocator.
func (c *Collector) Unref(now time.Duration, off, orig, slot int64) {
	if c == nil {
		return
	}
	c.add(fDedupUnrefs, 1)
	c.add(fSlotFree, slot)
	if c.series != nil {
		c.series.observeSlot(now, -slot)
	}
	c.emit(Event{TUS: now.Microseconds(), Type: EvUnref, Off: off, Size: orig, Slot: slot})
}

// slotClassPct maps a slot length to its quantized class percentage.
// Non-quantized slots (the exact-fit ablation) round up to the nearest
// percent.
func slotClassPct(orig, slot int64) int {
	if orig <= 0 {
		return 0
	}
	quarter := (orig + 3) / 4
	if quarter > 0 && slot%quarter == 0 && slot/quarter >= 1 && slot/quarter <= 4 {
		return int(25 * (slot / quarter))
	}
	if slot >= orig {
		return 100
	}
	return int((slot*100 + orig - 1) / orig)
}

// Counters returns a copy of the counter map (Prometheus-style keys,
// labels inline: `edc_sd_flushes_total{reason="read"}`).
func (c *Collector) Counters() map[string]int64 {
	if c == nil {
		return nil
	}
	out := make(map[string]int64, len(c.counters))
	for k, v := range c.counters {
		out[k.String()] = v
	}
	return out
}

// Report snapshots the collector for embedding in RunStats and JSON
// output. A nil collector reports nil.
func (c *Collector) Report() *Report {
	if c == nil {
		return nil
	}
	r := &Report{Counters: c.Counters()}
	if c.series != nil {
		r.Series = c.series.report()
	}
	return r
}

// Report is the end-of-run observability snapshot: the counters and, if
// sampling was enabled, the time series.
type Report struct {
	// Counters holds the cumulative decision counters keyed by
	// Prometheus-style name (labels inline).
	Counters map[string]int64 `json:"counters"`
	// Series holds the sampled time series (nil when disabled).
	Series *SeriesReport `json:"series,omitempty"`
}

// WritePrometheus renders the counters in the Prometheus text
// exposition format (families sorted, HELP/TYPE once per family).
func (r *Report) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	keys := make([]string, 0, len(r.Counters))
	for k := range r.Counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	seen := ""
	for _, k := range keys {
		family, _, _ := strings.Cut(k, "{")
		if family != seen {
			seen = family
			if i := slices.IndexFunc(families, func(f Family) bool { return f.Name == family }); i >= 0 {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", family, families[i].Help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s counter\n", family); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", k, r.Counters[k]); err != nil {
			return err
		}
	}
	return nil
}
