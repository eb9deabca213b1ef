package core

import (
	"fmt"
	"math"
	"time"

	"edc/internal/compress"
	"edc/internal/maint"
	"edc/internal/obs"
	"edc/internal/parallel"
)

// Background maintenance
//
// The paper fixes each extent's codec once, at write time, from the
// instantaneous calculated IOPS — so a burst-written extent stays
// lzf/none forever even after it goes cold, and freed quantized slots
// fragment with no reclaim path. The maintainer closes both gaps: a
// virtual-time scheduler (internal/maint) ticks while the engine has
// work pending, and on ticks where the intensity monitor reports the
// device idle it (1) relocates cold lzf/none extents to a heavier codec
// for space, (2) demotes hot gz/bwz extents to a cheap codec for read
// latency, and (3) compacts the allocator's fragmented free lists.
// Relocation reuses the same primitives as the foreground pipeline
// (store-engine reads and writes, CPU-station charges, quantized
// allocation, journal append at the durable point, mapping swap), so a
// maintenance move is observable and recoverable exactly like a host
// write. With maintenance off the maintainer is never constructed and
// no foreground code path reads heat, keeping the disabled replay
// bit-identical.

// maintainer drives temperature-aware recompression and slot
// compaction for one device (one shard). All state is owned by the
// device's event-loop goroutine.
type maintainer struct {
	d     *Device
	cfg   maint.Config
	sched *maint.Scheduler
	cold  compress.Codec // target for cold lzf/none extents (nil: off)
	hot   compress.Codec // target for hot gz/bwz extents (nil: off)

	// relocating guards extents with a move in flight (membership only;
	// never iterated, so it cannot perturb determinism).
	relocating map[*Extent]struct{}
	// scanPos is the next mapping-table block to examine, persisting
	// across ticks so every extent gets scanned regardless of budget.
	scanPos int64
}

// newMaintainer resolves the configured codec names against the
// device's registry and wires the tick scheduler onto its engine. cfg
// must already be normalized. A codec name of "none" disables that
// direction.
func newMaintainer(d *Device, cfg maint.Config, reg *compress.Registry) (*maintainer, error) {
	mt := &maintainer{
		d:          d,
		cfg:        cfg,
		relocating: make(map[*Extent]struct{}),
	}
	var err error
	if cfg.ColdCodec != "none" {
		if mt.cold, err = reg.ByName(cfg.ColdCodec); err != nil {
			return nil, fmt.Errorf("core: maintenance cold codec: %w", err)
		}
	}
	if cfg.HotCodec != "none" {
		if mt.hot, err = reg.ByName(cfg.HotCodec); err != nil {
			return nil, fmt.Errorf("core: maintenance hot codec: %w", err)
		}
	}
	mt.sched = maint.NewScheduler(cfg, d.eng, mt.idle, mt.step)
	return mt, nil
}

// idle is the scheduler's idle-window probe: maintenance only acts
// when the workload monitor's calculated IOPS sits at or below the
// configured ceiling — the same signal that would make the foreground
// policy pick its heaviest codec — and the run has not failed.
func (mt *maintainer) idle(now time.Duration) bool {
	return !mt.d.fs.failed() && mt.d.wp.meter.Intensity(now) <= mt.cfg.IdleIOPS
}

// step is one idle tick's worth of maintenance: scan the mapping table
// from where the last tick stopped, start up to budget relocations,
// then compact the allocator if its free lists have fragmented across
// enough size classes. Returns the number of actions started.
func (mt *maintainer) step(now time.Duration, budget int) int {
	d := mt.d
	table := d.se.mapping.table
	n := int64(len(table))
	epoch := maint.Epoch(now, mt.cfg.EpochLen)
	started := 0
	var prev *Extent
	for scanned := int64(0); scanned < n && started < budget; scanned++ {
		b := mt.scanPos
		mt.scanPos++
		if mt.scanPos >= n {
			mt.scanPos = 0
		}
		e := table[b]
		if e == nil || e == prev {
			continue
		}
		prev = e
		if e.pending {
			continue // device write not durable yet; let it land first
		}
		if _, busy := mt.relocating[e]; busy {
			continue
		}
		hits := e.Heat.Hits(epoch)
		switch {
		case mt.hot != nil && hits >= mt.cfg.HotHits &&
			(e.Tag == compress.TagGZ || e.Tag == compress.TagBWZ):
			mt.relocate(e, mt.hot, obs.RelocateHot)
			started++
		case mt.cold != nil && hits == 0 && e.Heat.IdleFor(epoch) >= mt.cfg.ColdEpochs &&
			(e.Tag == compress.TagNone || e.Tag == compress.TagLZF):
			if e.noWin {
				continue // re-encode already showed no space win for this content
			}
			mt.relocate(e, mt.cold, obs.RelocateCold)
			started++
		}
	}
	if classes := d.se.alloc.classCount(); classes >= mt.cfg.CompactClasses {
		coalesced, reclaimed := d.se.alloc.Compact()
		if coalesced > 0 || reclaimed > 0 {
			d.stats.MaintCompactions++
			d.stats.MaintCoalesced += int64(coalesced)
			d.stats.MaintCompactFreed += reclaimed
			if d.obs != nil {
				d.obs.Compact(now, classes, coalesced, reclaimed)
			}
			started++
		}
	}
	return started
}

// relocate starts moving extent e to codec: read the stored payload
// back from the device, charge the re-encode CPU time, then reencode
// picks the new placement. Any fault, a run failure, or the extent
// dying to an overwrite mid-flight aborts the move (the extent is
// simply reconsidered on a later tick).
func (mt *maintainer) relocate(e *Extent, codec compress.Codec, reason string) {
	mt.relocating[e] = struct{}{}
	d := mt.d
	d.se.be.Read(e.DevOff, e.CompLen, func(err error) {
		if err != nil || d.fs.failed() || e.live == 0 {
			mt.abort(e)
			return
		}
		// Pipeline the real codec work exactly as store-time compression
		// does: regenerated content and its re-encoding are pure functions
		// of the extent's immutable identity (offset, length, version), so
		// they run on the shared pool while the event loop advances;
		// reencode joins the future at the same virtual-time event either
		// way.
		//
		// A cold move is kept only if its output is at most winLimit
		// bytes, so its encode is budgeted at that and stops as soon as
		// the output is shown to be longer; with no smaller class than
		// e's slot there is nothing to regenerate or encode. A hot move
		// keeps any output.
		limit := math.MaxInt
		if reason == obs.RelocateCold {
			limit = winLimit(e, d.se.exactSlots)
		}
		var fut *parallel.Future[reencodedRun]
		if limit < 0 {
			fut = parallel.Resolved(reencodedRun{noWin: true})
		} else {
			cbuf, pbuf := d.se.getBuf(), d.se.getBuf()
			off, olen, ver := e.Offset, e.OrigLen, e.Version
			fut = async(d.se, func() reencodedRun {
				r := reencodedRun{content: d.wp.data.AppendBlock(cbuf, off, int(olen), ver)}
				var fits bool
				r.payload, fits = compress.AppendCompressWithin(codec, pbuf, r.content, limit)
				r.noWin = !fits
				return r
			})
		}
		cpu := d.se.cost.DecompressTime(e.Tag, e.OrigLen) + d.se.cost.CompressTime(codec.Tag(), e.OrigLen)
		hostTime(d.cpu, cpu, func(_, _ time.Duration) { mt.reencode(e, codec, reason, fut) })
	})
}

// reencodedRun carries a relocation's regenerated content and codec
// output from a pool worker back to the event loop. noWin reports a cold
// re-encode shown to win no smaller slot before it finished (payload is
// then empty).
type reencodedRun struct {
	content []byte
	payload []byte
	noWin   bool
}

// winLimit is the longest cold re-encode of e that still wins: the
// output length at or below which replacement would give it a smaller
// slot than e's. Quantized, that is the largest slot class QuantizeSlot
// offers below e's slot; with exact slots, one byte under e's slot,
// capped at the largest class (above it the run is stored raw). It is
// -1 when no output can win.
func winLimit(e *Extent, exactSlots bool) int {
	if e.OrigLen <= 0 {
		return -1
	}
	quarter := (e.OrigLen + 3) / 4
	top := (e.OrigLen - 1) / quarter * quarter // the largest class below OrigLen
	if top <= 0 {
		return -1
	}
	if exactSlots {
		return int(min(top, e.SlotLen-1))
	}
	below := (e.SlotLen - 1) / quarter * quarter // the largest class below SlotLen
	if below <= 0 {
		return -1
	}
	return int(min(top, below))
}

// reencode joins the re-run of the codec over e's regenerated content
// (stored bytes are a pure function of offset, length, and version),
// places the result, and issues the device write for the new placement.
func (mt *maintainer) reencode(e *Extent, codec compress.Codec, reason string, fut *parallel.Future[reencodedRun]) {
	d := mt.d
	// Join before any early return: the worker owns both buffers until
	// the future resolves.
	r := fut.Wait()
	newExt := mt.replacement(e, codec, r)
	d.se.putBuf(r.content)
	d.se.putBuf(r.payload)
	if newExt == nil {
		mt.abort(e)
		return
	}
	d.se.write(newExt, func(err error) {
		mt.commit(e, newExt, reason, err)
	})
}

// replacement allocates the slot for e's re-encoded run and returns the
// not-yet-mapped new extent — or nil when the move is off: the run failed
// or e died meanwhile, a cold move's output was over winLimit (it would
// not shrink the slot), or the device is full. A hot demotion whose cheap
// codec misses every compressed class falls back to an uncompressed slot,
// the cheapest read.
func (mt *maintainer) replacement(e *Extent, codec compress.Codec, r reencodedRun) *Extent {
	d := mt.d
	if d.fs.failed() || e.live == 0 {
		return nil
	}
	if r.noWin {
		// No space win; keep the current placement and remember not to
		// retry until an overwrite replaces the extent.
		e.noWin = true
		return nil
	}
	newExt, stored, _ := d.se.encoded(e.Offset, e.OrigLen, e.Version, codec, r.content, r.payload)
	if err := d.se.allocSlot(newExt); err != nil {
		// Device full: skip rather than fail a background move.
		return nil
	}
	d.se.keepPayload(newExt, stored)
	return newExt
}

// commit lands one relocation at its durable point (the new slot's
// device write completed): move the content-index entry to the new copy,
// remap every referring block — dedup may have mapped foreign LBAs onto
// e — then journal the versioned relocate record and flush the old
// slot's deferred release (without dedup the first and last have nothing
// to do). With a journal armed the last two wait, like every mapping
// mutation, for the inserts mapped before this one (writePath.mutated).
func (mt *maintainer) commit(e, newExt *Extent, reason string, err error) {
	d := mt.d
	if err != nil || d.fs.failed() || e.live == 0 {
		// The new slot was never mapped: quietly return it. (obs slot
		// accounting sees the alloc without a free, matching the write
		// path's treatment of abandoned slots.)
		d.se.alloc.Free(newExt.DevOff, newExt.SlotLen)
		d.se.dropPayload(newExt)
		mt.abort(e)
		return
	}
	oldTag, oldSlot := e.Tag, e.SlotLen
	d.se.dedupRemap(e, newExt)
	if rerr := d.se.mapping.Replace(e, newExt); rerr != nil {
		d.fs.fail(rerr)
		return
	}
	if d.wp.jnl != nil {
		global := d.se.dedup != nil
		d.wp.mutated(&mutation{durable: true, dying: d.se.mapping.takeDying(),
			record: func(j *Journal) { j.AppendRelocate(e, newExt, global) }})
	} else {
		d.wp.flushDying(d.se.mapping.takeDying())
	}
	delete(mt.relocating, e)
	d.stats.MaintRelocations++
	d.stats.MaintReclaimed += oldSlot - newExt.SlotLen
	if reason == obs.RelocateCold {
		d.stats.MaintCold++
	} else {
		d.stats.MaintHot++
	}
	if d.obs != nil {
		d.obs.Recompress(d.eng.Now(), newExt.Offset, newExt.OrigLen,
			tagName(d.rp.reg, oldTag), tagName(d.rp.reg, newExt.Tag),
			newExt.CompLen, oldSlot, newExt.SlotLen, reason)
	}
}

// abort gives up on an in-flight relocation; the extent stays where it
// is and remains eligible for a later tick.
func (mt *maintainer) abort(e *Extent) {
	delete(mt.relocating, e)
	mt.d.stats.MaintAborted++
}

// heatHistogram buckets every live extent's decayed hit count at the
// current epoch (close calls this only when maintenance ran).
func (d *Device) heatHistogram() []int64 {
	hist := make([]int64, maint.HistBuckets)
	epoch := maint.Epoch(d.eng.Now(), d.se.epochLen)
	d.se.mapping.eachExtent(func(e *Extent) {
		hist[maint.HistBucket(e.Heat.Hits(epoch))]++
	})
	return hist
}
