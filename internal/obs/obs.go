// Package obs is the observability layer of the EDC pipeline: a
// structured decision tracer, fixed-interval time series, and a counters
// snapshot with a Prometheus-style text exposition.
//
// The paper's central claim is that EDC's per-request decisions —
// calculated-IOPS feedback (Fig. 6), estimator write-through
// (Sec. III-C), SD merging (Fig. 7), and quantized slot placement
// (Fig. 5) — buy its performance/space tradeoff. This package makes
// every one of those decisions visible as it happens instead of only as
// end-of-run aggregates in core.RunStats.
//
// The core pipeline calls a *Collector at each decision point. A nil
// *Collector is valid and free: every hook is a nil-receiver no-op, so
// the disabled path is bit-identical to a build without the layer.
// Collectors are strictly observers — they read values the pipeline has
// already computed and never feed anything back, so an attached tracer
// cannot perturb the simulation (replay results are identical with and
// without one; the core tests enforce this).
//
// Sharded replay gives each shard a buffering Child collector and merges
// the shards deterministically afterwards (sort by virtual time, then
// shard, then per-shard sequence), so a traced sharded run produces the
// same event stream every time for a fixed shard count.
//
// The JSONL event schema, counter names, and time-series format are
// documented in OBSERVABILITY.md at the repository root.
package obs

import (
	"bufio"
	"encoding/json"
	"io"
)

// EventType names a pipeline decision point. The values appear verbatim
// in the JSONL "type" field.
type EventType string

// The decision points traced by the pipeline, in stage order.
const (
	// EvAdmit: the frontend admitted one host request under the
	// closed-loop bound.
	EvAdmit EventType = "admit"
	// EvDefer: the outstanding bound was reached and the request joined
	// the deferred FIFO.
	EvDefer EventType = "defer"
	// EvSDMerge: a contiguous write joined the pending run (Fig. 7).
	EvSDMerge EventType = "sd_merge"
	// EvSDFlush: the pending run was flushed; Reason says why.
	EvSDFlush EventType = "sd_flush"
	// EvEstimate: the sampling estimator ruled on a run's
	// compressibility (Sec. III-C write-through rule).
	EvEstimate EventType = "estimate"
	// EvPolicy: the policy chose a codec at the current calculated IOPS
	// (Fig. 6 feedback selection).
	EvPolicy EventType = "policy"
	// EvSlot: the codec output was placed into a quantized slot
	// (Fig. 5), or kept uncompressed when it missed the 75 % class.
	EvSlot EventType = "slot"
	// EvSlotFree: a live extent died (overwrite) and its slot bytes were
	// returned to the allocator.
	EvSlotFree EventType = "slot_free"
	// EvCacheHit / EvCacheMiss: the host DRAM cache ruled on a read.
	EvCacheHit EventType = "cache_hit"
	// EvCacheMiss is the cache-lookup counterpart of EvCacheHit.
	EvCacheMiss EventType = "cache_miss"
	// EvDecompress: a read covers a compressed extent and must
	// decompress it.
	EvDecompress EventType = "decompress"
	// EvFault: an injected device fault hit an operation (Reason is
	// "transient" or "hard"; Dev names the member device).
	EvFault EventType = "fault"
	// EvRetry: a path re-issued an operation after a transient fault
	// (Attempt counts retries so far).
	EvRetry EventType = "retry"
	// EvDegradedRead: a RAIS5 read reconstructed a failed member's data
	// from the surviving devices' stripe units.
	EvDegradedRead EventType = "degraded_read"
	// EvRecover: a recovery decision (Reason "realloc" for a write
	// re-allocated to a fresh slot, "read_abandon" for an unrecoverable
	// read served as lost data, "crash" for journal-based crash
	// recovery, with Records journal records applied).
	EvRecover EventType = "recover"
	// EvRecompress: background maintenance rewrote a stored extent with
	// a different codec (Reason "cold" for idle-data recompression to a
	// heavier codec, "hot" for demotion to a cheaper one; From/Codec
	// name the old and new codecs, Slot the new slot, Reclaimed the
	// slot bytes saved — negative when a hot demotion grew the slot).
	EvRecompress EventType = "recompress"
	// EvCompact: maintenance coalesced the allocator's free lists
	// (Classes is the size-class count that triggered it, Merged the
	// adjacent slots folded together, Reclaimed the tail bytes returned
	// to fresh space).
	EvCompact EventType = "compact"
	// EvDedupHit: a flushed run's fingerprint matched an existing
	// extent; the run mapped to it by reference and skipped the codec
	// entirely (Target is the matched extent's logical offset, Slot the
	// slot bytes the hit avoided allocating).
	EvDedupHit EventType = "dedup_hit"
	// EvDedupMiss: the fingerprint was unseen; the run continued down
	// the normal estimate/compress/place pipeline and registered itself
	// in the content index at its durable point.
	EvDedupMiss EventType = "dedup_miss"
	// EvUnref: a dedup-shared extent lost its last reference and its
	// slot bytes were released (the dedup analogue of slot_free; Size is
	// the original length, Slot the released slot bytes).
	EvUnref EventType = "unref"
	// EvShape: the tenant's bandwidth schedule delayed a request's
	// admission (Tenant names the tenant, DelayUS the added wait).
	EvShape EventType = "shape"
	// EvAdmitReject: admission control refused a request (Reason
	// "queue_depth" when the tenant's deferred bound overflowed).
	EvAdmitReject EventType = "admit_reject"
)

// SD flush reasons recorded in Event.Reason.
const (
	// FlushNonContig: a write outside the run's tail broke contiguity.
	FlushNonContig = "noncontig"
	// FlushMaxRun: the merged run hit the size cap.
	FlushMaxRun = "maxrun"
	// FlushRead: a read arrived (reads break write contiguity, Fig. 7).
	FlushRead = "read"
	// FlushTimeout: the idle flush timer fired.
	FlushTimeout = "timeout"
	// FlushDrain: end-of-trace drain forced the run out.
	FlushDrain = "drain"
)

// Admission-rejection reasons recorded in Event.Reason on admit_reject
// events.
const (
	// RejectQueueDepth: the tenant's deferred-queue bound overflowed.
	RejectQueueDepth = "queue_depth"
)

// Recovery reasons recorded in Event.Reason on recover events.
const (
	// RecoverRealloc: a write moved to a fresh slot after a hard fault.
	RecoverRealloc = "realloc"
	// RecoverReadAbandon: a hard read failure with no redundancy was
	// served as lost data.
	RecoverReadAbandon = "read_abandon"
	// RecoverCrash: the mapping was rebuilt from snapshot + journal
	// after a power cut.
	RecoverCrash = "crash"
)

// Maintenance reasons recorded in Event.Reason on recompress events.
const (
	// RelocateCold: an idle extent was recompressed to a heavier codec
	// for space.
	RelocateCold = "cold"
	// RelocateHot: a hot extent was demoted to a cheaper codec for
	// read latency.
	RelocateHot = "hot"
)

// Event is one pipeline decision. Every event carries the virtual time
// (microseconds), the shard that produced it, a per-shard sequence
// number, the decision type, and the logical byte range it concerns;
// the remaining fields are type-specific and omitted from the JSON when
// zero-valued (read them with jq's // operator: `.ciops // 0`).
type Event struct {
	// TUS is the virtual time of the decision in microseconds.
	TUS int64 `json:"t_us"`
	// Shard is the LBA shard that produced the event (0 unsharded).
	Shard int `json:"shard"`
	// Seq is the per-shard emission index; (TUS, Shard, Seq) totally
	// orders a merged stream.
	Seq int64 `json:"seq"`
	// Type is the decision point.
	Type EventType `json:"type"`
	// Op is "read" or "write" on admit/defer events.
	Op string `json:"op,omitempty"`
	// Off is the logical byte offset the decision concerns (shard-local
	// under sharded replay, like every offset the shard pipeline sees).
	Off int64 `json:"off"`
	// Size is the logical byte length (the original, uncompressed size
	// on write-path events).
	Size int64 `json:"size"`
	// Reason qualifies sd_flush ("noncontig", "maxrun", "read",
	// "timeout", "drain") and slot ("oversize") events.
	Reason string `json:"reason,omitempty"`
	// Writes is the number of host writes folded into a flushed run.
	Writes int `json:"writes,omitempty"`
	// Queued is the deferred-FIFO depth after a defer event.
	Queued int `json:"queued,omitempty"`
	// Ratio is the estimator's sampled compression ratio (>= 1).
	Ratio float64 `json:"ratio,omitempty"`
	// Verdict is the estimator ruling: "compress" or "write_through".
	Verdict string `json:"verdict,omitempty"`
	// CIOPS is the calculated IOPS observed at policy-decision time.
	CIOPS float64 `json:"ciops,omitempty"`
	// Codec is the codec name ("none" when stored uncompressed).
	Codec string `json:"codec,omitempty"`
	// Comp is the codec output length in bytes.
	Comp int64 `json:"comp,omitempty"`
	// Slot is the allocated (quantized) slot length in bytes.
	Slot int64 `json:"slot,omitempty"`
	// ClassPct is the slot class as a percentage of the original size
	// (25/50/75/100 under quantized allocation).
	ClassPct int `json:"class_pct,omitempty"`
	// Waste is Slot - Comp: the internal fragmentation the quantized
	// class accepts to avoid relocation (Fig. 5).
	Waste int64 `json:"waste,omitempty"`
	// Dev is the member device a fault or degraded read concerns.
	Dev int `json:"dev,omitempty"`
	// Attempt is the retry ordinal on retry events (1 = first retry).
	Attempt int `json:"attempt,omitempty"`
	// Records is the number of journal records applied on recover
	// events.
	Records int `json:"records,omitempty"`
	// From is the codec an extent stored before a recompress event
	// (Codec holds the new one).
	From string `json:"from,omitempty"`
	// Reclaimed is the slot bytes a maintenance action gave back:
	// old slot minus new slot on recompress events (negative when the
	// new slot is larger), tail bytes returned to fresh space on
	// compact events.
	Reclaimed int64 `json:"reclaimed,omitempty"`
	// Classes is the allocator size-class count that triggered a
	// compact event.
	Classes int `json:"classes,omitempty"`
	// Target is the logical offset of the already-stored extent a
	// dedup_hit run mapped to.
	Target int64 `json:"target,omitempty"`
	// Merged is the number of adjacent free slots coalesced by a
	// compact event.
	Merged int `json:"merged,omitempty"`
	// Tenant names the submitting tenant on QoS-tagged events (absent
	// on untagged traffic, so untagged streams keep the pre-tenant
	// schema byte for byte).
	Tenant string `json:"tenant,omitempty"`
	// DelayUS is the virtual delay a shape event added, in
	// microseconds.
	DelayUS int64 `json:"delay_us,omitempty"`
}

// Tracer consumes pipeline decision events. Implementations must not
// retain e past the call: the collector reuses nothing today, but the
// contract keeps buffering strategies open.
type Tracer interface {
	// Emit receives one decision event.
	Emit(e *Event)
}

// TracerFunc adapts a function to the Tracer interface.
type TracerFunc func(*Event)

// Emit implements Tracer.
func (f TracerFunc) Emit(e *Event) { f(e) }

// JSONLTracer writes one JSON object per event, one event per line —
// the format OBSERVABILITY.md documents and `jq` consumes directly.
// Output is buffered; call Flush when the replay completes. Not safe
// for concurrent use (the pipeline emits from one goroutine; sharded
// replay buffers per shard and emits the merged stream sequentially).
type JSONLTracer struct {
	w   *bufio.Writer
	err error
}

// NewJSONLTracer returns a tracer writing JSONL to w.
func NewJSONLTracer(w io.Writer) *JSONLTracer {
	return &JSONLTracer{w: bufio.NewWriterSize(w, 64<<10)}
}

// Emit implements Tracer: marshal the event and append a newline. The
// first write error sticks and suppresses further output.
func (t *JSONLTracer) Emit(e *Event) {
	if t.err != nil {
		return
	}
	b, err := json.Marshal(e)
	if err != nil {
		t.err = err
		return
	}
	if _, err := t.w.Write(b); err != nil {
		t.err = err
		return
	}
	t.err = t.w.WriteByte('\n')
}

// Flush drains the buffer and returns the first error seen.
func (t *JSONLTracer) Flush() error {
	if t.err != nil {
		return t.err
	}
	return t.w.Flush()
}

// Err returns the first write or marshal error (nil if none).
func (t *JSONLTracer) Err() error { return t.err }
