package core

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"edc/internal/cache"
	"edc/internal/compress"
	"edc/internal/datagen"
	"edc/internal/fault"
	"edc/internal/obs"
	"edc/internal/parallel"
	"edc/internal/sim"
)

// readPath is the read stage of the request pipeline: host-cache check →
// mapping lookup → device read → decompression on the host CPU station →
// optional round-trip verification. Device I/O and the mapping go through
// the store engine; completions return to the frontend via the
// complete/drop callbacks.
type readPath struct {
	eng   *sim.Engine
	cpu   *sim.Station
	fs    *failState
	stats *RunStats
	se    *storeEngine
	reg   *compress.Registry
	data  *datagen.Generator
	obs   *obs.Collector

	hostCache *cache.Cache
	verify    bool

	// Real-CPU pipeline: the verify-mode check (decompress, regenerate,
	// compare) is dispatched at read submission and, with a pool queue,
	// runs on pool workers while the event loop advances virtual time.
	// The completion event does not wait for it: it parks the segment's
	// future in lag (lag.go), which joins only its oldest entry when full
	// and drains at every exit. A mismatch is therefore reported up to
	// the ring's depth of verified extents after the bad one completed
	// (or at the exit), a point fixed by the operation order. The bound
	// is in extents, not in time: a serve shard that goes idle keeps its
	// parked verifications unjoined until its next verified read or
	// StopServe (DESIGN.md §16). Without a pool the check runs at
	// submission and the ring has depth 0, so the completion event
	// settles it and the operation that fails is the one that completed.
	lag *lagRing[*readSeg]

	// ops and segs recycle the per-read records (event-loop goroutine
	// only). A record abandoned by a power cut is never returned. plan is
	// the read plan's scratch, lent to one read at a time.
	ops  []*readOp
	segs []*readSeg
	plan []ReadSegment

	// complete finishes one host read; drop releases a read without
	// observing it on a failed run.
	complete func(resp time.Duration)
	drop     func(n int)
}

// readOp is one host read in flight: the request, its completion
// callback and the count of device segments still outstanding. Records
// are pooled and hit, the cache-hit completion, is bound once per
// record, as serveOp binds its callbacks.
type readOp struct {
	rp        *readPath
	arrival   time.Duration
	off, size int64
	done      func(time.Duration)
	remaining int
	hit       func()
}

// readSeg is one device read of a host read: a hole, a raw extent or a
// compressed one. Its callbacks — the device completion, the retry, the
// end of decompression and the pool job that verifies — are bound once
// per record, and fut is re-armed (parallel.GoInto) rather than
// allocated, so a steady-state verified read allocates nothing. A
// verified segment is returned to the free list only when the lag ring
// settles it.
type readSeg struct {
	rp *readPath
	op *readOp

	// The device read and its logical range (for the event stream).
	devOff, bytes int64
	off, size     int64
	attempt       int

	// ext is the compressed extent decoded (nil for a hole or a raw
	// extent), cpu the host decompression time after the transfer.
	ext *Extent
	cpu time.Duration

	// Verify mode: payload is the snapshot pinned at submission; res is
	// the verification's outcome and scratch buffers, owned by the job
	// while fut is unsettled.
	payload []byte
	res     verifyResult
	fut     *parallel.Future[*readSeg]

	ioDone  func(err error)
	retry   func()
	decoded func(_, _ time.Duration)
	job     func() *readSeg
}

// finishRead completes one host read: the optional per-operation done
// callback (serve mode) fires before the pipeline-wide complete callback,
// mirroring PendingWrite.Done on the write path.
func (rp *readPath) finishRead(done func(time.Duration), resp time.Duration) {
	if done != nil {
		done(resp)
	}
	rp.complete(resp)
}

// newOp takes a read record from the free list, or makes one.
func (rp *readPath) newOp(arrival time.Duration, off, size int64, done func(time.Duration)) *readOp {
	var op *readOp
	if n := len(rp.ops); n > 0 {
		op = rp.ops[n-1]
		rp.ops = rp.ops[:n-1]
	} else {
		op = &readOp{rp: rp}
		op.hit = func() { op.finish() }
	}
	op.arrival, op.off, op.size, op.done = arrival, off, size, done
	return op
}

// finish completes the read and recycles its record. The record goes
// back only after the completion callbacks, which may admit a read that
// would otherwise take it while it is still in use.
func (op *readOp) finish() {
	rp := op.rp
	rp.finishRead(op.done, rp.eng.Now()-op.arrival)
	op.done = nil
	rp.ops = append(rp.ops, op)
}

// segDone counts one segment complete; the last fills the host cache and
// completes the read.
func (op *readOp) segDone() {
	if op.remaining--; op.remaining == 0 {
		op.rp.hostCache.InsertRange(op.off, op.size)
		op.finish()
	}
}

// newSeg takes a segment record of op from the free list, or makes one
// with its callbacks bound.
func (rp *readPath) newSeg(op *readOp) *readSeg {
	var s *readSeg
	if n := len(rp.segs); n > 0 {
		s = rp.segs[n-1]
		rp.segs = rp.segs[:n-1]
	} else {
		s = &readSeg{rp: rp}
		s.ioDone = s.onIO
		s.retry = s.submit
		s.decoded = s.onDecoded
		s.job = s.verify
	}
	s.op = op
	return s
}

// putSeg recycles a segment record the pipeline is done with.
func (rp *readPath) putSeg(s *readSeg) {
	s.op, s.ext, s.payload, s.res = nil, nil, nil, verifyResult{}
	rp.segs = append(rp.segs, s)
}

// read plans and issues one host read. Fully cached reads are served
// from DRAM, skipping the device and any decompression. done, if
// non-nil, fires once at completion with the response time (serve mode;
// replay passes nil).
func (rp *readPath) read(arrival time.Duration, off, size int64, done func(time.Duration)) {
	// ContainsRange mutates the cache (LRU touch + hit/miss counters), so
	// the single existing call's result feeds both the trace and the
	// branch — calling it again for observability would perturb the run.
	hit := rp.hostCache.ContainsRange(off, size)
	if rp.obs != nil && rp.hostCache.CapacityBlocks() > 0 {
		rp.obs.CacheLookup(rp.eng.Now(), off, size, hit)
	}
	if hit {
		rp.eng.ScheduleAfter(CacheHitLatency, rp.newOp(arrival, off, size, done).hit)
		return
	}
	plan, err := rp.se.mapping.appendReadPlan(rp.plan[:0], off, size)
	// A read issued from a completion below plans into a scratch of its
	// own.
	rp.plan = nil
	defer func() { rp.plan = plan[:0] }()
	if err != nil {
		rp.fs.fail(err)
		rp.drop(1)
		return
	}
	if len(plan) == 0 {
		rp.finishRead(done, rp.eng.Now()-arrival)
		return
	}
	op := rp.newOp(arrival, off, size, done)
	op.remaining = len(plan)
	for _, seg := range plan {
		if seg.Ext != nil {
			rp.se.touch(seg.Ext)
		}
		// A segment that completes at once may complete op: op is not
		// touched after the last segment is issued.
		s := rp.newSeg(op)
		switch {
		case seg.Ext == nil:
			// Hole: the device still transfers zero pages.
			s.devOff, s.bytes, s.off, s.size = 0, seg.Bytes, off, seg.Bytes
		case seg.Ext.Tag == compress.TagNone:
			s.devOff, s.bytes, s.off, s.size = seg.Ext.DevOff, seg.Bytes, seg.Ext.Offset, seg.Bytes
		default:
			ext := seg.Ext
			if rp.obs != nil {
				rp.obs.Decompress(rp.eng.Now(), ext.Offset, ext.OrigLen, tagName(rp.reg, ext.Tag), ext.CompLen)
			}
			// Pin the payload snapshot now: an overwrite may kill the
			// extent while this read is in flight (the host still gets the
			// data captured at submission time), and the pin keeps its
			// buffer from being recycled until the check settles. The
			// whole verification (decompress + regenerate + compare) is
			// pure CPU work over that immutable snapshot, so it is
			// dispatched here and parked at the completion event — the
			// freelist buffers are taken and returned on the event-loop
			// goroutine only.
			s.ext = ext
			if rp.verify {
				s.payload = rp.se.pin(ext)
				s.res.got, s.res.want = rp.se.getBuf(), rp.se.getBuf()
				s.fut = parallel.GoInto(rp.se.pool, s.fut, s.job)
			}
			// Decompression is host CPU time after the transfer.
			s.cpu = DecompressTime(ext.Tag, ext.OrigLen)
			s.devOff, s.bytes, s.off, s.size = ext.DevOff, ext.CompLen, ext.Offset, ext.OrigLen
		}
		s.attempt = 0
		s.submit()
	}
}

// submit issues the segment's device read (again, on a retry).
func (s *readSeg) submit() {
	s.rp.se.be.Read(s.devOff, s.bytes, s.ioDone)
}

// onIO reacts to the device read's outcome: a transient fault retries
// after a virtual-time backoff; a hard fault that survived the backend's
// own redundancy (RAIS5 reconstructs internally and reports success)
// means the data is gone — the read is served anyway so the replay
// continues, and the loss is counted in UnrecoveredReads.
func (s *readSeg) onIO(err error) {
	rp := s.rp
	switch {
	case err == nil:
	case errors.Is(err, fault.ErrTransient) && s.attempt < maxRetries:
		rp.stats.FaultRetries++
		rp.obs.Retry(rp.eng.Now(), "read", s.off, s.size, s.attempt+1)
		rp.eng.ScheduleAfter(retryBackoff<<s.attempt, s.retry)
		s.attempt++
		return
	default:
		rp.stats.UnrecoveredReads++
		rp.obs.Recover(rp.eng.Now(), obs.RecoverReadAbandon, s.off, s.size, 0)
	}
	if s.ext == nil {
		op := s.op
		rp.putSeg(s)
		op.segDone()
		return
	}
	hostTime(rp.cpu, s.cpu, s.decoded)
}

// onDecoded ends a compressed segment: its verification, if any, is
// parked, then the segment counts complete.
func (s *readSeg) onDecoded(_, _ time.Duration) {
	rp, op := s.rp, s.op
	if rp.verify {
		rp.lag.park(s.fut)
	} else {
		rp.putSeg(s)
	}
	op.segDone()
}

// verify is the segment's pool job: it reads only the pinned snapshot,
// the extent's placement-time fields and its own scratch buffers.
func (s *readSeg) verify() *readSeg {
	s.res = s.rp.verifyExtentWork(s.ext, s.payload, s.res.got, s.res.want)
	return s
}

// settleVerify ends a verification: its scratch buffers go back to the
// freelist, its pin is released, the segment is recycled and a mismatch
// fails the run.
func (rp *readPath) settleVerify(s *readSeg) {
	rp.se.putBuf(s.res.got)
	rp.se.putBuf(s.res.want)
	rp.se.unpin(s.ext, s.payload)
	err := s.res.err
	rp.putSeg(s)
	if err != nil {
		rp.fs.fail(err)
	}
}

// tagName resolves a codec tag to its registry name for the event
// stream.
func tagName(reg *compress.Registry, tag compress.Tag) string {
	if c, err := reg.ByTag(tag); err == nil {
		return c.Name()
	}
	return fmt.Sprintf("tag%d", tag)
}

// verifyResult carries a completed verification back to the event loop:
// the two scratch buffers to recycle and the failure, if any.
type verifyResult struct {
	got, want []byte
	err       error
}

// verifyExtentWork decompresses the payload snapshot into got, regenerates
// the original content into want, and compares the two. It reads only
// immutable state (the snapshot, the extent's placement-time fields, the
// concurrency-safe generator), so it may run on a pool worker; the caller
// owns recycling the returned buffers.
func (rp *readPath) verifyExtentWork(ext *Extent, payload, got, want []byte) verifyResult {
	if payload == nil {
		return verifyResult{got: got, want: want,
			err: fmt.Errorf("core: verify: extent at %d has no payload", ext.Offset)}
	}
	codec, err := rp.reg.ByTag(ext.Tag)
	if err != nil {
		return verifyResult{got: got, want: want, err: err}
	}
	got, err = codec.DecompressAppend(got, payload, int(ext.OrigLen))
	if err != nil {
		return verifyResult{got: got, want: want,
			err: fmt.Errorf("core: verify: decompress extent at %d: %w", ext.Offset, err)}
	}
	want = rp.data.AppendBlock(want, ext.Offset, int(ext.OrigLen), ext.Version)
	if !bytes.Equal(got, want) {
		return verifyResult{got: got, want: want,
			err: fmt.Errorf("core: verify: content mismatch for extent at %d", ext.Offset)}
	}
	return verifyResult{got: got, want: want}
}
