package core

import (
	"time"
)

// PendingWrite is one host write buffered by the sequentiality detector.
type PendingWrite struct {
	Arrival time.Duration // virtual arrival time of the host write
	Offset  int64         // logical byte offset
	Size    int64         // length in bytes

	// Tenant names the submitting tenant ("" for untagged traffic). The
	// write path attributes a merged run to its first write's tenant
	// and, under QoS isolation, evaluates the policy against that
	// tenant's own intensity window.
	Tenant string

	// Done, if non-nil, fires once at write completion with the response
	// time measured from Arrival, before the pipeline-wide complete
	// callback. Untagged replay leaves it nil; serve mode routes each
	// submitted operation's completion back to its waiting client with
	// it, and tagged replay observes the tenant's own latency histogram.
	Done func(resp time.Duration)
}

// Run is a maximal merged sequence of contiguous writes, compressed as a
// single block (paper Sec. III-E: larger blocks compress better and
// decompress faster per byte).
type Run struct {
	Offset int64          // logical byte offset of the run start
	Size   int64          // merged length in bytes
	Writes []PendingWrite // the host writes folded into the run, in order
}

// SeqDetector implements the paper's SD module (Fig. 7): contiguous
// writes are merged until the run is broken by a read, a non-contiguous
// write, or the size cap; the broken run is then compressed as one block.
type SeqDetector struct {
	maxRun int64
	cur    *Run

	merged  int64 // writes that joined an existing run
	flushes int64
}

// DefaultMaxRun caps merged runs at 64 KiB: large enough to capture
// cross-block redundancy, small enough to bound read amplification.
const DefaultMaxRun = 64 << 10

// NewSeqDetector returns a detector with the given run cap in bytes
// (<= 0 selects DefaultMaxRun).
func NewSeqDetector(maxRun int64) *SeqDetector {
	if maxRun <= 0 {
		maxRun = DefaultMaxRun
	}
	return &SeqDetector{maxRun: maxRun}
}

// OnWrite feeds a write request. It returns a completed run to compress
// when this write broke the pending run (nil otherwise — the write was
// merged or became the start of a new run).
func (sd *SeqDetector) OnWrite(w PendingWrite) *Run {
	if w.Size <= 0 {
		return nil
	}
	cur := sd.cur
	if cur != nil && sd.extends(cur.Offset, cur.Size, w.Offset, w.Size) {
		cur.Size += w.Size
		cur.Writes = append(cur.Writes, w)
		sd.merged++
		return nil
	}
	flushed := sd.take()
	sd.cur = &Run{Offset: w.Offset, Size: w.Size, Writes: []PendingWrite{w}}
	return flushed
}

// extends is the merge rule: a write of [off, +size) joins a pending run
// of [runOff, +runSize) when it starts where the run ends and keeps the
// run within the cap. The write path's lookahead predicts runs with it.
func (sd *SeqDetector) extends(runOff, runSize, off, size int64) bool {
	return off == runOff+runSize && runSize+size <= sd.maxRun
}

// OnRead flushes the pending run: a read breaks write contiguity
// (Fig. 7, order 4 in the paper's example is a write; reads behave the
// same way per Sec. III-E).
func (sd *SeqDetector) OnRead() *Run {
	return sd.take()
}

// Flush forces out the pending run (end of trace, idle timeout).
func (sd *SeqDetector) Flush() *Run {
	return sd.take()
}

func (sd *SeqDetector) take() *Run {
	r := sd.cur
	sd.cur = nil
	if r != nil {
		sd.flushes++
	}
	return r
}

// Pending reports whether a run is being accumulated.
func (sd *SeqDetector) Pending() bool { return sd.cur != nil }

// Peek returns the pending run's extent and write count without
// disturbing it (ok false when nothing is buffered). The write path uses
// it to classify flush reasons for the observability layer before
// feeding OnWrite.
func (sd *SeqDetector) Peek() (off, size int64, writes int, ok bool) {
	if sd.cur == nil {
		return 0, 0, 0, false
	}
	return sd.cur.Offset, sd.cur.Size, len(sd.cur.Writes), true
}

// MaxRun returns the merge cap in bytes.
func (sd *SeqDetector) MaxRun() int64 { return sd.maxRun }

// PendingOverlaps reports whether the byte range [off, off+size)
// intersects the pending run (read-after-buffered-write detection).
func (sd *SeqDetector) PendingOverlaps(off, size int64) bool {
	if sd.cur == nil {
		return false
	}
	return off < sd.cur.Offset+sd.cur.Size && sd.cur.Offset < off+size
}

// Merged returns how many writes joined an existing run.
func (sd *SeqDetector) Merged() int64 { return sd.merged }

// Flushes returns how many runs have been emitted.
func (sd *SeqDetector) Flushes() int64 { return sd.flushes }
