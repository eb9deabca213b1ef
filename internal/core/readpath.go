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
// mapping lookup → device read → decompression (host CPU station or
// in-device codec engine) → optional round-trip verification. Device I/O
// and the mapping go through the store engine; completions return to the
// frontend via the complete/drop callbacks.
type readPath struct {
	eng   *sim.Engine
	cpu   sim.Server
	fs    *failState
	stats *RunStats
	se    *storeEngine
	reg   *compress.Registry
	data  *datagen.Generator
	obs   *obs.Collector

	hostCache *cache.Cache
	verify    bool

	// Real-CPU pipeline: verify-mode decompression dispatched at read
	// submission runs on pool workers while the event loop advances
	// virtual time. The completion event does not wait for it: it parks
	// the future in lag (lag.go), which joins only its oldest entry when
	// full and drains at every exit. A mismatch is therefore reported
	// up to the ring's depth of verified extents after the bad one
	// completed (or at the exit), a point fixed by the operation order.
	// The bound is in extents, not in time: a serve shard that goes idle
	// keeps its parked verifications unjoined until its next verified read
	// or StopServe (DESIGN.md §16). The ring exists only while the store
	// engine holds a pool queue; without one the check runs inline at the
	// completion event, not through async, so the operation that fails
	// stays the one whose completion ran the check.
	lag *lagRing[verifyResult]

	// complete finishes one host read; drop releases a read without
	// observing it on a failed run.
	complete func(resp time.Duration)
	drop     func(n int)
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
		rp.eng.ScheduleAfter(CacheHitLatency, func() {
			rp.finishRead(done, rp.eng.Now()-arrival)
		})
		return
	}
	plan, err := rp.se.mapping.ReadPlan(off, size)
	if err != nil {
		rp.fs.fail(err)
		rp.drop(1)
		return
	}
	remaining := len(plan)
	if remaining == 0 {
		rp.finishRead(done, rp.eng.Now()-arrival)
		return
	}
	complete := func() {
		remaining--
		if remaining == 0 {
			rp.hostCache.InsertRange(off, size)
			rp.finishRead(done, rp.eng.Now()-arrival)
		}
	}
	for _, seg := range plan {
		if seg.Ext != nil {
			rp.se.touch(seg.Ext)
		}
		switch {
		case seg.Ext == nil:
			// Hole: the device still transfers zero pages.
			rp.issueRead(0, seg.Bytes, 0, off, seg.Bytes, 0, complete)
		case seg.Ext.Tag == compress.TagNone:
			rp.issueRead(seg.Ext.DevOff, seg.Bytes, 0, seg.Ext.Offset, seg.Bytes, 0, complete)
		default:
			ext := seg.Ext
			if rp.obs != nil {
				rp.obs.Decompress(rp.eng.Now(), ext.Offset, ext.OrigLen, tagName(rp.reg, ext.Tag), ext.CompLen)
			}
			// Snapshot the payload now: an overwrite may free the extent
			// while this read is in flight (the host still gets the data
			// captured at submission time). With a worker pool, the whole
			// verification (decompress + regenerate + compare) is pure CPU
			// work over that immutable snapshot, so it is dispatched here
			// and parked at the completion event — the freelist buffers are
			// taken and returned on the event-loop goroutine only.
			var vfut *parallel.Future[verifyResult]
			var payload []byte
			if rp.verify {
				payload = rp.se.payload(ext)
				if rp.se.pool != nil {
					p, got, want := payload, rp.se.getBuf(), rp.se.getBuf()
					vfut = parallel.Go(rp.se.pool, func() verifyResult {
						return rp.verifyExtentWork(ext, p, got, want)
					})
				}
			}
			decoded := func(_, _ time.Duration) {
				switch {
				case !rp.verify:
				case vfut != nil:
					rp.lag.park(vfut)
				default:
					rp.verifyExtent(ext, payload)
				}
				complete()
			}
			// Decompression is host CPU time after the transfer, or rides
			// on the transfer itself when the device's codec engine does it.
			cpu, extra := rp.se.charge.decompress(ext.Tag, ext.OrigLen)
			rp.issueRead(ext.DevOff, ext.CompLen, extra, ext.Offset, ext.OrigLen, 0, func() { hostTime(rp.cpu, cpu, decoded) })
		}
	}
}

// issueRead submits one device read and reacts to the outcome: a
// transient fault retries after a virtual-time backoff; a hard fault
// that survived the backend's own redundancy (RAIS5 reconstructs
// internally and reports success) means the data is gone — the read is
// served anyway so the replay continues, and the loss is counted in
// UnrecoveredReads. off/size locate the logical range for the event
// stream.
func (rp *readPath) issueRead(devOff, bytes int64, extra time.Duration, off, size int64, attempt int, done func()) {
	rp.se.be.Read(devOff, bytes, extra, func(err error) {
		switch {
		case err == nil:
			done()
		case errors.Is(err, fault.ErrTransient) && attempt < maxRetries:
			rp.stats.FaultRetries++
			rp.obs.Retry(rp.eng.Now(), "read", off, size, attempt+1)
			rp.eng.ScheduleAfter(retryBackoff<<attempt, func() {
				rp.issueRead(devOff, bytes, extra, off, size, attempt+1, done)
			})
		default:
			rp.stats.UnrecoveredReads++
			rp.obs.Recover(rp.eng.Now(), obs.RecoverReadAbandon, off, size, 0)
			done()
		}
	})
}

// settleVerify recycles a joined verification's buffers and records a
// mismatch.
func (rp *readPath) settleVerify(res verifyResult) {
	rp.se.putBuf(res.got)
	rp.se.putBuf(res.want)
	if res.err != nil {
		rp.fs.fail(res.err)
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

// verifyExtent decompresses the payload snapshot taken at read submission
// and compares it with the regenerated original content (the inline,
// no-pool path; buffers come from and return to the freelist here).
func (rp *readPath) verifyExtent(ext *Extent, payload []byte) {
	rp.settleVerify(rp.verifyExtentWork(ext, payload, rp.se.getBuf(), rp.se.getBuf()))
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
	got, err = compress.DecompressAppend(codec, got, payload, int(ext.OrigLen))
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
