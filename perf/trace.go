package main

import (
	"edc"
	"edc/internal/compress"
)

// kind is a traced decision type the layer replay consumes.
type kind uint8

const (
	kAdmit kind = iota
	kSDFlush
	kEstimate
	kPolicy
	kSlot
	kCacheHit
	kCacheMiss
	kRecompress
	kCompact
	kDedupHit
)

var kindOf = map[edc.TraceEventType]kind{
	edc.EvAdmit:      kAdmit,
	edc.EvSDFlush:    kSDFlush,
	edc.EvEstimate:   kEstimate,
	edc.EvPolicy:     kPolicy,
	edc.EvSlot:       kSlot,
	edc.EvCacheHit:   kCacheHit,
	edc.EvCacheMiss:  kCacheMiss,
	edc.EvRecompress: kRecompress,
	edc.EvCompact:    kCompact,
	edc.EvDedupHit:   kDedupHit,
}

// event is the 40-byte copy of a TraceEvent the replay needs. A full
// TraceEvent is over 300 bytes; at several events per operation that is
// the difference between tens of megabytes and gigabytes held in memory.
type event struct {
	tus   int64   // virtual time, microseconds
	off   int64   // logical byte offset (shard-local)
	aux   int64   // comp bytes (slot, recompress); target offset (dedup_hit)
	val   float64 // estimator ratio; calculated IOPS (policy)
	size  int32
	kind  kind
	shard uint8
	// tag is the codec the event names (compress.TagNone for "none").
	tag compress.Tag
	// flag: write (admit), write-through (estimate), timer-or-drain
	// flush (sd_flush).
	flag bool
}

// recorder is the in-memory tracer of a traced pass. Emit runs on the
// product's goroutines (one at a time: the collector serializes), so it
// only appends.
type recorder struct {
	events []event
	tags   map[string]compress.Tag
}

func newRecorder() *recorder {
	r := &recorder{tags: map[string]compress.Tag{"none": compress.TagNone}}
	for _, name := range compress.Default().Names() {
		if c, err := compress.Default().ByName(name); err == nil {
			r.tags[name] = c.Tag()
		}
	}
	return r
}

// Emit implements edc.Tracer.
func (r *recorder) Emit(e *edc.TraceEvent) {
	k, ok := kindOf[e.Type]
	if !ok {
		return // slot_free, decompress, unref, ...: the replica derives them itself
	}
	ev := event{tus: e.TUS, off: e.Off, size: int32(e.Size), kind: k, shard: uint8(e.Shard)}
	switch k {
	case kAdmit:
		ev.flag = e.Op == "write"
	case kSDFlush:
		ev.flag = e.Reason == "timeout" || e.Reason == "drain"
	case kEstimate:
		ev.val, ev.flag = e.Ratio, e.Verdict == "write_through"
	case kPolicy:
		ev.val, ev.tag = e.CIOPS, r.tags[e.Codec]
	case kSlot, kRecompress:
		ev.aux, ev.tag = e.Comp, r.tags[e.Codec]
	case kDedupHit:
		ev.aux = e.Target
	}
	r.events = append(r.events, ev)
}
