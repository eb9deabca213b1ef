package core

import (
	"errors"
	"fmt"
	"time"

	"edc/internal/cache"
	"edc/internal/compress"
	"edc/internal/datagen"
	"edc/internal/dedup"
	"edc/internal/fault"
	"edc/internal/obs"
	"edc/internal/parallel"
	"edc/internal/sim"
	"edc/internal/trace"
)

// Recovery bounds for injected device-write failures: a transient fault
// is retried up to maxRetries times with exponential virtual-time
// backoff (retryBackoff << attempt); a hard fault (or exhausted
// retries) re-allocates the run to a fresh slot up to maxReallocs
// times before the replay aborts.
const (
	maxRetries   = 3
	maxReallocs  = 2
	retryBackoff = 200 * time.Microsecond
)

// DedupHashBps models the content-fingerprint throughput of the dedup
// layer (host CPU bytes/second): ~4 GB/s, in line with fast
// non-cryptographic hashes on one core. Charged per merged run before
// the estimator, whether the lookup hits or misses.
const DedupHashBps = 4e9

// writePath is the write stage of the request pipeline: SD merge →
// compressibility estimate → policy selection → codec dispatch → slot
// quantization → store. It owns the sequentiality detector, the flush
// timer, and the run version counter; placement and device I/O go
// through the store engine, completions return to the frontend via the
// complete/drop callbacks.
type writePath struct {
	eng   *sim.Engine
	cpu   *sim.Station
	fs    *failState
	stats *RunStats
	se    *storeEngine
	meter WorkloadMeter
	obs   *obs.Collector

	sd     *SeqDetector
	est    *Estimator
	data   *datagen.Generator
	policy Policy

	// qs resolves per-tenant intensity under QoS isolation; nil keeps
	// the device-global policy signal.
	qs *qosState

	hostCache *cache.Cache
	disableSD bool

	// upcoming exposes the requests that have not arrived yet (replay's
	// frontend.upcoming, serveShard.upcoming) to la, the lookahead
	// (lookahead.go), which is built at the first run that can use it.
	upcoming func() ([]trace.Request, bool)
	la       *lookahead

	// rawOK is set when nothing but the estimator reads a run's content:
	// no dedup fingerprint, no verify snapshot, no observer, and a policy
	// that does not select by ratio. Then a run the policy stores raw at
	// its intensity is stored without its content, and raw lags its
	// write-through verdict (lag.go).
	rawOK bool
	raw   rawEstimates

	flushWait time.Duration
	flushGen  int64
	version   uint32

	// jnl, when non-nil, is the crash-recovery journal. jq then holds
	// the mapping mutations whose records are not appended yet, in the
	// order they changed the live mapping (see mutation).
	jnl *Journal
	jq  []*mutation

	// complete finishes one host write (response observation +
	// closed-loop slot release); drop releases writes without observing
	// them on a failed run.
	complete func(resp time.Duration)
	drop     func(n int)
}

// admitWrite feeds one admitted host write into the SD merge stage.
func (wp *writePath) admitWrite(w PendingWrite) {
	if wp.disableSD {
		wp.processRun(&Run{Offset: w.Offset, Size: w.Size, Writes: []PendingWrite{w}})
		return
	}
	// Classify what this write will do to the pending run before feeding
	// the detector, so a resulting flush carries its reason. Peek is a
	// pure read; the disabled path does none of this.
	var reason string
	if wp.obs != nil {
		if off, size, _, ok := wp.sd.Peek(); ok {
			if w.Offset == off+size {
				reason = obs.FlushMaxRun // contiguous: only the cap can flush
			} else {
				reason = obs.FlushNonContig
			}
		}
	}
	run := wp.sd.OnWrite(w)
	if wp.obs != nil {
		if run != nil {
			wp.obs.SDFlush(wp.eng.Now(), reason, run.Offset, run.Size, len(run.Writes))
		} else if _, _, writes, ok := wp.sd.Peek(); ok && writes > 1 {
			wp.obs.SDMerge(wp.eng.Now(), w.Offset, w.Size, writes)
		}
	}
	if run != nil {
		wp.processRun(run)
	}
	wp.armFlushTimer()
}

// noteRead flushes the pending run: a read breaks write contiguity.
func (wp *writePath) noteRead() {
	if run := wp.sd.OnRead(); run != nil {
		wp.obs.SDFlush(wp.eng.Now(), obs.FlushRead, run.Offset, run.Size, len(run.Writes))
		wp.processRun(run)
	}
}

// armFlushTimer (re)starts the idle flush for the pending run.
func (wp *writePath) armFlushTimer() {
	if wp.flushWait <= 0 || !wp.sd.Pending() {
		return
	}
	wp.flushGen++
	gen := wp.flushGen
	wp.eng.ScheduleAfter(wp.flushWait, func() {
		if gen == wp.flushGen && wp.sd.Pending() && !wp.fs.failed() {
			run := wp.sd.Flush()
			wp.obs.SDFlush(wp.eng.Now(), obs.FlushTimeout, run.Offset, run.Size, len(run.Writes))
			wp.processRun(run)
		}
	})
}

// drain flushes the still-buffered run after the event heap empties,
// looping until no pending run remains: completing a flushed run can
// admit deferred writes that buffer a fresh run, so a single flush is
// not enough for traces that end mid-run.
func (wp *writePath) drain() {
	for wp.sd.Pending() {
		run := wp.sd.Flush()
		wp.obs.SDFlush(wp.eng.Now(), obs.FlushDrain, run.Offset, run.Size, len(run.Writes))
		wp.processRun(run)
		wp.eng.Run()
	}
}

// processRun stores one merged write run: with dedup enabled it first
// fingerprints the content and resolves it against the content index;
// otherwise (or on a miss) the run proceeds through the elastic
// pipeline in compressRun.
func (wp *writePath) processRun(run *Run) {
	if wp.fs.failed() {
		wp.la.cancelFrom(0, wp.se)
		wp.drop(len(run.Writes))
		return
	}
	wp.stats.SDRuns++

	ver := wp.version
	wp.version++
	pre := wp.la.take(runKey{run.Offset, run.Size, ver}, wp.se)
	if pre == nil && wp.rawOK && wp.policy.Select(wp.intensity(wp.eng.Now(), run)) == nil {
		wp.storeRaw(run, ver)
		wp.lookAhead()
		return
	}
	var content []byte
	if pre != nil {
		content = pre.content
	} else {
		content = wp.data.AppendBlock(wp.se.getBuf(), run.Offset, int(run.Size), ver)
	}

	if wp.se.dedup != nil {
		// Hash now (the fingerprint is a pure function of the content),
		// charge the CPU for it, and resolve against the index at the
		// job's completion time — lookup results must reflect the state
		// when the CPU work is done, not when it was queued.
		sum := dedup.HashSum(dedup.DefaultKey, content)
		wp.cpu.Submit(sim.Job{Service: bytesTime(run.Size, DedupHashBps), Done: func(_, _ time.Duration) {
			wp.dedupResolve(run, content, sum, ver)
		}})
		return
	}
	wp.compressRun(run, content, dedup.Sum{}, false, ver, pre)
	wp.lookAhead()
}

// storeRaw stores a run the policy keeps raw whose content nothing
// reads: it is neither generated nor estimated here. The estimate is
// still charged (EstimateCost), and its write-through verdict, which
// decides nothing else for a run stored raw, is counted when its batch
// settles (rawEstimates). Select is a pure function of the intensity, so
// asking it before the estimate, as processRun does, picks what
// compressRun would.
func (wp *writePath) storeRaw(run *Run, ver uint32) {
	var cpuTime time.Duration
	if wp.policy.ChecksCompressibility() {
		cpuTime = EstimateCost
		wp.raw.add(runKey{run.Offset, run.Size, ver}, runTenant(run))
	}
	hostTime(wp.cpu, cpuTime, func(_, _ time.Duration) { wp.store(run, nil, nil, nil, ver, dedup.Sum{}, false) })
}

// dedupResolve looks the fingerprinted run up in the content index and
// dispatches to the hit fast path or the normal pipeline.
func (wp *writePath) dedupResolve(run *Run, content []byte, sum dedup.Sum, ver uint32) {
	if wp.fs.failed() {
		wp.drop(len(run.Writes))
		wp.se.putBuf(content)
		return
	}
	if tgt := wp.se.dedupLookup(sum, run.Size); tgt != nil {
		wp.dedupHit(run, tgt)
		wp.se.putBuf(content)
		return
	}
	wp.stats.DedupMisses++
	wp.obs.DedupMiss(wp.eng.Now(), run.Offset, run.Size)
	wp.compressRun(run, content, sum, true, ver, nil)
}

// dedupHit completes a run whose content is already stored: remap the
// LBAs onto the existing extent (bumping its refcount), journal the
// ref, and finish the host writes — no estimation, codec, allocation,
// or device I/O at all. The remap is metadata-only, so any extents it
// fully dereferenced are flushed (unref-journaled and freed) here.
func (wp *writePath) dedupHit(run *Run, tgt *Extent) {
	now := wp.eng.Now()
	if err := wp.se.mapping.InsertRef(run.Offset, run.Size, tgt); err != nil {
		wp.fs.fail(fmt.Errorf("dedup ref for run at %d: %w", run.Offset, err))
		wp.drop(len(run.Writes))
		return
	}
	dying := wp.se.mapping.takeDying()
	wp.se.touch(tgt)
	wp.stats.DedupHits++
	wp.stats.DedupBytesSaved += tgt.SlotLen
	wp.stats.OrigBytes += run.Size
	wp.obs.DedupHit(now, run.Offset, run.Size, tgt.Offset, tgt.SlotLen)
	wp.hostCache.InsertRange(run.Offset, run.Size)
	if wp.jnl == nil {
		wp.flushDying(dying)
		wp.finishWrites(run.Writes)
		return
	}
	wp.mutated(&mutation{durable: true, dying: dying, writes: run.Writes,
		record: func(j *Journal) { j.AppendRef(run.Offset, run.Size, tgt) }})
}

// mutation is one change to the live mapping on its way into the
// journal. Replay applies records in journal order, and a ref, a
// relocate or an unref can depend on an insert mapped before it; but an
// insert maps its run when its slot is placed and is durable only when
// its device write completes, and writes complete out of order. So with
// a journal armed every mutation waits in writePath.jq until it is
// durable and every mutation mapped before it has been journaled. Its
// deferred frees and the host writes it acknowledges wait with it: a
// slot is reused, and a write acknowledged, only once the record that
// accounts for it is in the journal.
type mutation struct {
	durable bool
	record  func(j *Journal)
	dying   []*Extent
	writes  []PendingWrite
}

// mutated queues a mutation that just changed the live mapping (a
// journal is armed) and journals whatever it unblocked.
func (wp *writePath) mutated(m *mutation) {
	wp.jq = append(wp.jq, m)
	wp.settle()
}

// settle journals the durable mutations at the head of jq, in order:
// each appends its record, then flushes its deferred frees and
// completes its host writes.
func (wp *writePath) settle() {
	for len(wp.jq) > 0 && wp.jq[0].durable {
		m := wp.jq[0]
		wp.jq[0] = nil
		wp.jq = wp.jq[1:]
		m.record(wp.jnl)
		wp.flushDying(m.dying)
		wp.finishWrites(m.writes)
	}
}

// finishWrites completes the host writes of a run that is now durable.
func (wp *writePath) finishWrites(writes []PendingWrite) {
	now := wp.eng.Now()
	for _, w := range writes {
		if w.Done != nil {
			w.Done(now - w.Arrival)
		}
		wp.complete(now - w.Arrival)
	}
}

// flushDying journals and frees extents whose last reference was
// dropped by a mutation that is now durable (dedup's deferred frees).
func (wp *writePath) flushDying(dying []*Extent) {
	for _, e := range dying {
		if wp.jnl != nil {
			wp.jnl.AppendUnref(e)
		}
		wp.stats.DedupUnrefs++
		wp.obs.Unref(wp.eng.Now(), e.Offset, e.OrigLen, e.SlotLen)
		wp.se.alloc.Free(e.DevOff, e.SlotLen)
		wp.se.freeExtent(e)
	}
}

// abandonDying frees a dying batch on a terminal write failure without
// journaling: the insert that dropped these references never became
// durable, so unref records for it would themselves violate replay
// ordering. The run is already failed — freeing just keeps allocator
// and engine bookkeeping (payloads, content index) consistent.
func (wp *writePath) abandonDying(dying []*Extent) {
	for _, e := range dying {
		wp.se.alloc.Free(e.DevOff, e.SlotLen)
		wp.se.freeExtent(e)
	}
}

// runTenant is the tenant a merged run is attributed to: its first
// write's. Cross-tenant merges are possible (contiguous writes from
// different tenants), so attribution is a convention, not a partition.
func runTenant(run *Run) string {
	if len(run.Writes) == 0 {
		return ""
	}
	return run.Writes[0].Tenant
}

// intensity is the calculated-IOPS signal the policy sees for a run:
// the submitting tenant's own window under QoS isolation, the
// device-global stream otherwise.
func (wp *writePath) intensity(now time.Duration, run *Run) float64 {
	if m := wp.qs.meter(runTenant(run)); m != nil {
		return m.Intensity(now)
	}
	return wp.meter.Intensity(now)
}

// compressRun runs the elastic pipeline for one run: compressibility
// estimate → policy selection → codec dispatch → store. sum/hasSum
// carry the dedup fingerprint (if one was computed) through to the
// stored extent so it can be indexed at its durable point. pre, when
// non-nil, is the run's joined lookahead slot: the estimate, the payload
// for the codec it guessed, and that payload's buffer (nil when it
// guessed none).
func (wp *writePath) compressRun(run *Run, content []byte, sum dedup.Sum, hasSum bool, ver uint32, pre *aheadSlot) {
	now := wp.eng.Now()

	var codec compress.Codec
	var cpuTime time.Duration
	if wp.policy.ChecksCompressibility() {
		cpuTime += EstimateCost
		var ratio float64
		if pre != nil {
			ratio = pre.ratio
		} else {
			ratio = wp.est.EstimateRatio(content)
		}
		if ratio >= WriteThroughRatio {
			wp.obs.Estimate(now, run.Offset, run.Size, ratio, false)
			// Intensity is a pure read of the meter, so capturing it for
			// the trace costs nothing on the disabled path.
			ciops := wp.intensity(now, run)
			if ra, ok := wp.policy.(RatioAware); ok {
				codec = ra.SelectWithRatio(ciops, ratio)
			} else {
				codec = wp.policy.Select(ciops)
			}
			wp.obs.PolicyChoice(now, run.Offset, run.Size, ciops, codecName(codec))
		} else {
			wp.stats.WriteThrough++
			if ts := wp.stats.Tenant(runTenant(run)); ts != nil {
				ts.WriteThrough++
			}
			wp.obs.Estimate(now, run.Offset, run.Size, ratio, true)
		}
	} else {
		ciops := wp.intensity(now, run)
		codec = wp.policy.Select(ciops)
		wp.obs.PolicyChoice(now, run.Offset, run.Size, ciops, codecName(codec))
	}
	// Pipeline the real codec work: compression is a pure function of
	// (content, codec), so it can run on a worker goroutine while the
	// event loop advances virtual time. store joins on the future, so
	// virtual-time ordering and all statistics are unchanged.
	var fut *parallel.Future[[]byte]
	switch {
	case codec == nil:
		if pre != nil && pre.payload != nil {
			wp.la.toNone++
			wp.se.putBuf(pre.payload)
		}
	case pre != nil && codec == pre.codec:
		fut = pre.fut // its result is this codec's payload
	default:
		c, dst := codec, []byte(nil)
		if pre != nil && pre.payload != nil {
			dst = pre.payload[:0]
		} else {
			if pre != nil {
				wp.la.toCodec++
			}
			dst = wp.se.getBuf()
		}
		fut = parallel.Go(wp.se.pool, func() []byte {
			return c.AppendCompress(dst, content)
		})
	}
	if codec != nil {
		cpuTime += CompressTime(codec.Tag(), run.Size)
	}
	hostTime(wp.cpu, cpuTime, func(_, _ time.Duration) { wp.store(run, content, codec, fut, ver, sum, hasSum) })
}

// codecName renders a policy selection for the event stream ("none" when
// the run is stored uncompressed).
func codecName(c compress.Codec) string {
	if c == nil {
		return "none"
	}
	return c.Name()
}

// store joins the codec result, allocates the quantized slot, updates
// the mapping, and issues the device write.
func (wp *writePath) store(run *Run, content []byte, codec compress.Codec, fut *parallel.Future[[]byte], ver uint32, sum dedup.Sum, hasSum bool) {
	var payload []byte
	// Join before any early return: the worker owns the payload buffer
	// (and reads content) until the future resolves.
	if fut != nil {
		payload = fut.Wait()
	}
	if wp.fs.failed() {
		wp.drop(len(run.Writes))
		wp.se.putBuf(content)
		wp.se.putBuf(payload)
		return
	}
	ext, stored, fits := wp.se.encoded(run.Offset, run.Size, ver, codec, content, payload)
	if codec != nil {
		wp.obs.SlotChoice(wp.eng.Now(), run.Offset, run.Size, codec.Name(), int64(len(payload)), ext.SlotLen, !fits)
	}
	if !fits {
		// Codec output above 75 %: keep uncompressed (Sec. III-C).
		wp.stats.Oversize++
		wp.se.putBuf(payload)
		payload = nil
	}
	ext.sum, ext.hasSum = sum, hasSum
	wp.se.touch(ext) // born warm: written this epoch
	ext.pending = true
	if err := wp.se.place(ext); err != nil {
		wp.fs.fail(fmt.Errorf("storing run at %d: %w", run.Offset, err))
		wp.drop(len(run.Writes))
		wp.se.putBuf(content)
		wp.se.putBuf(payload)
		return
	}
	dying := wp.se.mapping.takeDying()
	wp.se.keepPayload(ext, stored)
	wp.stats.OrigBytes += run.Size
	wp.stats.CompBytes += ext.CompLen
	wp.stats.StoredBytes += ext.SlotLen
	wp.stats.RunsByTag[ext.Tag]++
	wp.stats.BytesByTag[ext.Tag] += run.Size
	if ts := wp.stats.Tenant(runTenant(run)); ts != nil {
		ts.RunsByTag[ext.Tag]++
	}
	wp.se.putBuf(content)
	wp.se.putBuf(payload)

	wp.hostCache.InsertRange(run.Offset, run.Size)
	var m *mutation
	if wp.jnl != nil {
		m = &mutation{dying: dying, writes: run.Writes,
			record: func(j *Journal) { j.Append(ext) }}
		wp.jq = append(wp.jq, m)
	}
	wp.issueWrite(ext, run.Writes, dying, m, 0, 0)
}

// issueWrite submits the device write for ext's slot and reacts to the
// outcome: success completes the merged host writes (with a journal
// armed, m, queued when ext was placed, does so once journaled); a
// transient fault retries after a virtual-time backoff; a hard fault (or
// exhausted retries) moves the run to a fresh slot and starts over. Only
// when every recovery avenue is spent does the replay abort.
func (wp *writePath) issueWrite(ext *Extent, writes []PendingWrite, dying []*Extent, m *mutation, attempt, reallocs int) {
	wp.se.write(ext, func(err error) {
		switch {
		case err == nil:
			// Durable: safe for maintenance to relocate.
			ext.pending = false
			// Only a durably stored extent enters the content index, and
			// the extents its insert dereferenced are released only now —
			// so an unref record never precedes the insert that caused it.
			wp.se.dedupRegister(ext)
			if m != nil {
				m.durable = true
				wp.settle()
				return
			}
			wp.flushDying(dying)
			wp.finishWrites(writes)
		case errors.Is(err, fault.ErrTransient) && attempt < maxRetries:
			wp.stats.FaultRetries++
			wp.obs.Retry(wp.eng.Now(), "write", ext.Offset, ext.OrigLen, attempt+1)
			wp.eng.ScheduleAfter(retryBackoff<<attempt, func() {
				wp.issueWrite(ext, writes, dying, m, attempt+1, reallocs)
			})
		case reallocs < maxReallocs:
			// The failed slot is abandoned, not freed — the media there is
			// bad — so its bytes stay accounted as in use for the rest of
			// the run.
			if rerr := wp.se.allocSlot(ext); rerr != nil {
				wp.fs.fail(fmt.Errorf("re-allocating run at %d after %v: %w", ext.Offset, err, rerr))
				wp.abandon(writes, dying, m)
				return
			}
			wp.stats.WriteReallocs++
			wp.obs.Recover(wp.eng.Now(), obs.RecoverRealloc, ext.Offset, ext.OrigLen, 0)
			wp.issueWrite(ext, writes, dying, m, 0, reallocs+1)
		default:
			wp.fs.fail(fmt.Errorf("writing run at %d: %w", ext.Offset, err))
			wp.abandon(writes, dying, m)
		}
	})
}

// abandon releases a run whose write failed for good: its writes are
// dropped and its dying batch freed unjournaled. With a journal armed,
// every mutation queued behind its own (m) goes the same way: none of
// their records can be journaled in order any more.
func (wp *writePath) abandon(writes []PendingWrite, dying []*Extent, m *mutation) {
	if m == nil {
		wp.drop(len(writes))
		wp.abandonDying(dying)
		return
	}
	for i, q := range wp.jq {
		if q == m {
			for _, a := range wp.jq[i:] {
				wp.drop(len(a.writes))
				wp.abandonDying(a.dying)
			}
			clear(wp.jq[i:])
			wp.jq = wp.jq[:i]
			return
		}
	}
}
