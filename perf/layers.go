package main

import (
	"bytes"
	"fmt"
	"time"

	"edc/internal/cache"
	"edc/internal/compress"
	"edc/internal/core"
	"edc/internal/datagen"
	"edc/internal/dedup"
	"edc/internal/rais"
	"edc/internal/ssd"
)

// Layer replay: the traced pass keeps the run's decision events in
// memory; afterwards each shard's events are fed, in order, to a replica
// pipeline assembled from the layers' public functions — the sequence
// detector, estimator, policy, codecs, allocator, mapping, cache, device
// model — with the payloads regenerated from the content generator. The
// replica does the work the run did, one layer call at a time under a
// clock, so each layer's busy time is measured from outside the program.

// layer indexes the busy-time accumulators.
type layer int

const (
	lDatagen layer = iota
	lSDWrite
	lSDOther
	lEstimate
	lPolicy
	lEncGZ
	lEncLZF
	lDecGZ
	lDecLZF
	lAlloc
	lMapInsert
	lMapLookup
	lCache
	lSSD
	lRAIS
	lDedupHash
	nLayers
)

// codecLayers returns the encode and decode accumulators of a codec. The
// replica only ever holds the elastic ladder's two codecs.
func codecLayers(tag compress.Tag) (enc, dec layer) {
	if tag == compress.TagGZ {
		return lEncGZ, lDecGZ
	}
	return lEncLZF, lDecLZF
}

// stopwatch attributes the time between consecutive clock reads to the
// layer call made in between. One clock read per call is included in
// every lap; calibrate measures it so report can subtract it.
type stopwatch struct {
	last  time.Time
	on    bool // false while replaying set-up events: state builds, nothing is counted
	busy  [nLayers]time.Duration
	calls [nLayers]int64
	bytes [nLayers]int64
}

func (s *stopwatch) start() { s.last = time.Now() }

func (s *stopwatch) lap(l layer) {
	now := time.Now()
	if s.on {
		s.busy[l] += now.Sub(s.last)
		s.calls[l]++
	}
	s.last = now
}

// lapBytes is lap for calls whose throughput is reported.
func (s *stopwatch) lapBytes(l layer, n int) time.Duration {
	now := time.Now()
	d := now.Sub(s.last)
	if s.on {
		s.busy[l] += d
		s.calls[l]++
		s.bytes[l] += int64(n)
	}
	s.last = now
	return d
}

// lapOverhead measures what one empty lap costs.
func lapOverhead() time.Duration {
	var s stopwatch
	s.on = true
	const n = 200000
	s.start()
	for i := 0; i < n; i++ {
		s.lap(lAlloc)
	}
	return s.busy[lAlloc] / n
}

// net returns layer l's busy time with the clock-read overhead removed.
func (s *stopwatch) net(l layer, overhead time.Duration) time.Duration {
	d := s.busy[l] - time.Duration(s.calls[l])*overhead
	if d < 0 {
		return 0
	}
	return d
}

// run is one flushed write run on its way through the replica.
type run struct {
	off, size int64
	ver       uint32
	content   []byte
	genCost   time.Duration

	estimated bool
	decided   bool           // policy ruled, or the estimator wrote it through
	codec     compress.Codec // nil: stored raw
	slotted   bool           // codec output produced and placed (or found oversize)
	comp      int64          // codec output bytes once slotted
	decCost   time.Duration  // one decode of the stored payload
}

// ready reports whether every decision the store needs has been replayed.
func (r *run) ready() bool { return r.decided && (r.codec == nil || r.slotted) }

// extCost is what reading one stored extent costs in verify mode: one
// decode of its payload and one regeneration of its content.
type extCost struct {
	dec, gen time.Duration
	tag      compress.Tag
}

// replica is one shard's shadow pipeline.
type replica struct {
	w  *spec
	sw *stopwatch
	c  *replayCounts

	gen   *datagen.Generator
	sd    *core.SeqDetector
	est   *core.Estimator
	pol   core.Policy
	codec map[compress.Tag]compress.Codec
	alloc *core.Allocator
	mapg  *core.Mapping
	cache *cache.Cache
	devs  []*ssd.SSD
	arr   *rais.Array // nil on a single SSD
	pages int64       // backend capacity in pages

	version uint32
	queue   []*run // flushed runs in flush order, head stores first
	costs   map[*core.Extent]extCost
	freed   []*core.Extent // released by the last mapping mutation, to trim
	bufs    [][]byte
}

// replayCounts are the tallies the replay keeps beside the busy times.
type replayCounts struct {
	events       int64 // decisions replayed
	slotEvents   int64 // codec outputs the run produced
	slotMatches  int64 // ... whose replayed length equals the run's
	roundTrips   int64 // replayed payloads decoded back and compared
	badTrips     int64
	estMismatch  int64
	polMismatch  int64
	unmatched    int64         // events with no run or extent to apply to
	encOut       int64         // bytes out of the encoders (bytes in: the stopwatch's)
	maintBusy    time.Duration // regeneration + re-encode done for relocations
	simEvents    int64         // event-heap events the run scheduled, counted from its decisions
	poolFutures  int64         // codec and verify jobs handed to the worker pool
	deviceIOs    int64
	liveBlocks   int64 // replica end state, against Results
	liveSlotByte int64
}

const pageSize = 4096

func newReplica(w *spec, sw *stopwatch, c *replayCounts) (*replica, error) {
	reg := compress.Default()
	gz, err := reg.ByName("gz")
	if err != nil {
		return nil, err
	}
	lzf, err := reg.ByName("lzf")
	if err != nil {
		return nil, err
	}
	pol, err := core.NewElastic("EDC", []core.Level{
		{MaxIOPS: core.DefaultGzCeiling, Codec: gz},
		{MaxIOPS: core.DefaultLzfCeiling, Codec: lzf},
	})
	if err != nil {
		return nil, err
	}
	r := &replica{
		w: w, sw: sw, c: c,
		gen:   datagen.New(w.dataProfile(), 1),
		sd:    core.NewSeqDetector(0),
		est:   core.NewEstimator(),
		pol:   pol,
		codec: map[compress.Tag]compress.Codec{gz.Tag(): gz, lzf.Tag(): lzf},
		cache: cache.New(w.cache),
		costs: map[*core.Extent]extCost{},
	}
	ndev := 1
	if w.raisDevices > 0 {
		ndev = w.raisDevices
	}
	for i := 0; i < ndev; i++ {
		d, err := ssd.New(ssd.DefaultConfig())
		if err != nil {
			return nil, err
		}
		r.devs = append(r.devs, d)
	}
	capacity := r.devs[0].LogicalBytes()
	if w.raisDevices > 0 {
		if r.arr, err = rais.New(rais.RAIS5, r.devs, 16); err != nil {
			return nil, err
		}
		capacity = r.arr.LogicalBytes()
	}
	r.pages = capacity / pageSize
	r.alloc = core.NewAllocator(capacity)
	vol := w.volume
	if w.shards > 1 {
		vol /= int64(w.shards)
	}
	r.mapg = core.NewMapping(vol, r.alloc, func(e *core.Extent) { r.freed = append(r.freed, e) })
	return r, nil
}

func (r *replica) getBuf() []byte {
	if n := len(r.bufs); n > 0 {
		b := r.bufs[n-1]
		r.bufs = r.bufs[:n-1]
		return b[:0]
	}
	return nil
}

func (r *replica) putBuf(b []byte) {
	if cap(b) > 0 {
		r.bufs = append(r.bufs, b)
	}
}

// find returns the oldest queued run at off that satisfies want.
func (r *replica) find(off int64, want func(*run) bool) *run {
	for _, q := range r.queue {
		if q.off == off && want(q) {
			return q
		}
	}
	r.c.unmatched++
	return nil
}

// apply replays one traced decision.
func (r *replica) apply(ev *event) {
	sw, c := r.sw, r.c
	switch ev.kind {
	case kAdmit:
		if sw.on {
			c.simEvents++ // the arrival
		}
		sw.start()
		if ev.flag {
			r.sd.OnWrite(core.PendingWrite{Offset: ev.off, Size: int64(ev.size)})
			sw.lap(lSDWrite)
			if sw.on {
				c.simEvents++ // the SD flush timer armed behind every write
			}
			return
		}
		r.sd.OnRead()
		sw.lap(lSDOther)
		if r.w.cache == 0 {
			r.readMiss(ev.off, int64(ev.size))
		}

	case kSDFlush:
		if ev.flag {
			sw.start()
			r.sd.Flush()
			sw.lap(lSDOther)
		}
		q := &run{off: ev.off, size: int64(ev.size), ver: r.version}
		r.version++
		sw.start()
		q.content = r.gen.AppendBlock(r.getBuf(), q.off, int(q.size), q.ver)
		q.genCost = sw.lapBytes(lDatagen, int(q.size))
		if r.w.background {
			dedup.HashSum(dedup.DefaultKey, q.content)
			sw.lapBytes(lDedupHash, int(q.size))
			if sw.on {
				c.simEvents++ // the hash job's completion
			}
		}
		r.queue = append(r.queue, q)

	case kDedupHit:
		q := r.find(ev.off, func(q *run) bool { return !q.estimated })
		if q == nil {
			return
		}
		r.drop(q)
		tgt := r.mapg.Lookup(ev.aux)
		if tgt == nil || tgt.OrigLen != q.size {
			c.unmatched++
		} else {
			sw.start()
			if err := r.mapg.InsertRef(q.off, q.size, tgt); err != nil {
				c.unmatched++
			}
			sw.lap(lMapInsert)
			r.trimFreed()
		}
		sw.start()
		r.cache.InsertRange(q.off, q.size)
		sw.lap(lCache)
		r.putBuf(q.content)

	case kEstimate:
		q := r.find(ev.off, func(q *run) bool { return !q.estimated })
		if q == nil {
			return
		}
		sw.start()
		ratio := r.est.EstimateRatio(q.content)
		sw.lap(lEstimate)
		q.estimated = true
		if ratio != ev.val {
			c.estMismatch++
		}
		if sw.on {
			c.simEvents++ // the CPU job carrying the estimate (and codec) cost
		}
		if ev.flag { // written through
			q.decided = true
			r.storeReady()
		}

	case kPolicy:
		q := r.find(ev.off, func(q *run) bool { return q.estimated && !q.decided })
		if q == nil {
			return
		}
		sw.start()
		codec := r.pol.Select(ev.val)
		sw.lap(lPolicy)
		tag := compress.TagNone
		if codec != nil {
			tag = codec.Tag()
		}
		if tag != ev.tag {
			c.polMismatch++
			codec = r.codec[ev.tag] // follow the run's choice
		}
		q.decided, q.codec = true, codec
		r.storeReady()

	case kSlot:
		q := r.find(ev.off, func(q *run) bool { return q.decided && q.codec != nil && !q.slotted })
		if q == nil {
			return
		}
		payload, dec := r.encode(q.codec, q.content, false)
		q.comp, q.decCost, q.slotted = int64(len(payload)), dec, true
		r.putBuf(payload)
		if sw.on {
			c.slotEvents++
			if q.comp == ev.aux {
				c.slotMatches++
			}
		}
		r.storeReady()

	case kCacheHit, kCacheMiss:
		sw.start()
		// The run's verdict rules, not the replica's: its LRU order can
		// differ slightly (it inserts a missed range at lookup time, the
		// run at read completion).
		r.cache.ContainsRange(ev.off, int64(ev.size))
		sw.lap(lCache)
		if ev.kind == kCacheHit {
			if sw.on {
				c.simEvents++ // the DRAM-latency completion
			}
			return
		}
		r.readMiss(ev.off, int64(ev.size))

	case kRecompress:
		r.recompress(ev)

	case kCompact:
		sw.start()
		r.alloc.Compact()
		sw.lap(lAlloc)
	}
}

// encode runs codec over content under the clock, then decodes the
// output once — timing the decode for later reads of the extent and
// checking the round trip. maint attributes the work to maintenance.
func (r *replica) encode(codec compress.Codec, content []byte, maint bool) (payload []byte, dec time.Duration) {
	sw, c := r.sw, r.c
	encL, _ := codecLayers(codec.Tag())
	sw.start()
	payload = compress.AppendCompress(codec, r.getBuf(), content)
	d := sw.lapBytes(encL, len(content))
	if sw.on {
		c.encOut += int64(len(payload))
		c.poolFutures++
		if maint {
			c.maintBusy += d
		}
	}
	t0 := time.Now()
	back, err := compress.DecompressAppend(codec, r.getBuf(), payload, len(content))
	dec = time.Since(t0)
	if sw.on {
		c.roundTrips++
		if err != nil || !bytes.Equal(back, content) {
			c.badTrips++
		}
	}
	r.putBuf(back)
	return payload, dec
}

// drop removes q from the queue.
func (r *replica) drop(q *run) {
	for i, x := range r.queue {
		if x == q {
			r.queue = append(r.queue[:i], r.queue[i+1:]...)
			return
		}
	}
}

// storeReady stores queued runs from the head while they are fully
// decided: the run's CPU station is FIFO, so runs reach the store in
// flush order.
func (r *replica) storeReady() {
	for len(r.queue) > 0 && r.queue[0].ready() {
		q := r.queue[0]
		r.queue = r.queue[1:]
		r.store(q)
	}
}

// store places one run: quantize, allocate, map, cache, device write.
func (r *replica) store(q *run) {
	sw := r.sw
	tag, comp, slot := compress.TagNone, q.size, q.size
	sw.start()
	if q.codec != nil {
		if s, ok := core.QuantizeSlot(q.size, q.comp); ok {
			tag, comp, slot = q.codec.Tag(), q.comp, s
		}
	}
	devOff, err := r.alloc.Alloc(slot)
	sw.lap(lAlloc)
	if err != nil {
		r.c.unmatched++
		return
	}
	ext := &core.Extent{Offset: q.off, OrigLen: q.size, CompLen: comp, SlotLen: slot, Tag: tag, DevOff: devOff, Version: q.ver}
	if err := r.mapg.Insert(ext); err != nil {
		r.c.unmatched++
	}
	sw.lap(lMapInsert)
	r.trimFreed()
	if tag != compress.TagNone {
		r.costs[ext] = extCost{dec: q.decCost, gen: q.genCost, tag: tag}
	}
	sw.start()
	r.cache.InsertRange(q.off, q.size)
	sw.lap(lCache)
	r.deviceIO(devOff, slot, true)
	r.putBuf(q.content)
}

// trimFreed discards the device ranges of extents the last mapping
// mutation released, as the store engine's free callback does.
func (r *replica) trimFreed() {
	sw := r.sw
	for _, e := range r.freed {
		delete(r.costs, e)
		first := (e.DevOff + pageSize - 1) / pageSize
		last := (e.DevOff + e.SlotLen) / pageSize
		if last > r.pages {
			last = r.pages
		}
		if first >= last {
			continue
		}
		sw.start()
		if r.arr == nil {
			_ = r.devs[0].Trim(first, last-first) // range checked above
			sw.lap(lSSD)
			continue
		}
		ops, err := r.arr.MapRead(first, last-first)
		sw.lap(lRAIS)
		if err != nil {
			continue
		}
		for _, op := range ops {
			_ = r.devs[op.Dev].Trim(op.LPN, op.Bytes/pageSize) // mapped inside the member
		}
		sw.lap(lSSD)
	}
	r.freed = r.freed[:0]
}

// deviceIO replays one backend read or write of bytes at devOff: the
// RAIS mapping where there is an array, then each member's FTL.
func (r *replica) deviceIO(devOff, bytes int64, write bool) {
	sw := r.sw
	lpn := devOff / pageSize
	n := (bytes + pageSize - 1) / pageSize
	if lpn+n > r.pages {
		lpn = r.pages - n
	}
	if sw.on {
		r.c.deviceIOs++
	}
	sw.start()
	if r.arr == nil {
		if write {
			_, _ = r.devs[0].WriteTime(lpn, n*pageSize) // range clamped above
		} else {
			_, _ = r.devs[0].ReadTime(lpn, n*pageSize)
		}
		sw.lap(lSSD)
		if sw.on {
			r.c.simEvents++ // the device station's completion
		}
		return
	}
	var ops []rais.SubOp
	var err error
	if write {
		ops, err = r.arr.MapWrite(lpn, n)
	} else {
		ops, err = r.arr.MapRead(lpn, n)
	}
	sw.lap(lRAIS)
	if err != nil {
		r.c.unmatched++
		return
	}
	for _, op := range ops {
		if op.Write {
			_, _ = r.devs[op.Dev].WriteTime(op.LPN, op.Bytes) // mapped inside the member
		} else {
			_, _ = r.devs[op.Dev].ReadTime(op.LPN, op.Bytes)
		}
	}
	sw.lap(lSSD)
	if sw.on {
		r.c.simEvents += int64(len(ops))
	}
}

// readMiss replays a read the cache did not serve: plan it over the
// mapping, fetch every segment, and — in verify mode, where the run
// really decodes and regenerates — charge each compressed extent's
// decode and regeneration.
func (r *replica) readMiss(off, size int64) {
	sw, c := r.sw, r.c
	sw.start()
	plan, err := r.mapg.ReadPlan(off, size)
	sw.lap(lMapLookup)
	if err != nil {
		c.unmatched++
		return
	}
	for _, seg := range plan {
		switch {
		case seg.Ext == nil:
			r.deviceIO(0, seg.Bytes, false)
		case seg.Ext.Tag == compress.TagNone:
			r.deviceIO(seg.Ext.DevOff, seg.Bytes, false)
		default:
			r.deviceIO(seg.Ext.DevOff, seg.Ext.CompLen, false)
			if sw.on {
				c.simEvents++ // the CPU job carrying the decompress cost
			}
			cost, ok := r.costs[seg.Ext]
			if !r.w.verify || !ok || !sw.on {
				continue
			}
			_, decL := codecLayers(cost.tag)
			sw.busy[decL] += cost.dec
			sw.bytes[decL] += seg.Ext.OrigLen
			sw.busy[lDatagen] += cost.gen
			sw.bytes[lDatagen] += seg.Ext.OrigLen
			c.poolFutures++
		}
	}
	if r.w.cache > 0 {
		sw.start()
		r.cache.InsertRange(off, size)
		sw.lap(lCache)
	}
}

// recompress replays one maintenance relocation: read the old slot,
// regenerate and re-encode the content, place the new extent.
func (r *replica) recompress(ev *event) {
	sw, c := r.sw, r.c
	old := r.mapg.Lookup(ev.off)
	if old == nil || old.Offset != ev.off || old.OrigLen != int64(ev.size) {
		c.unmatched++
		return
	}
	r.deviceIO(old.DevOff, old.CompLen, false)
	sw.start()
	content := r.gen.AppendBlock(r.getBuf(), old.Offset, int(old.OrigLen), old.Version)
	gen := sw.lapBytes(lDatagen, len(content))
	if sw.on {
		c.maintBusy += gen
		c.simEvents++ // the CPU job carrying the re-encode cost
	}
	tag, comp, slot := compress.TagNone, old.OrigLen, old.OrigLen
	var dec time.Duration
	if codec := r.codec[ev.tag]; codec != nil {
		var payload []byte
		payload, dec = r.encode(codec, content, true)
		if s, ok := core.QuantizeSlot(old.OrigLen, int64(len(payload))); ok {
			tag, comp, slot = codec.Tag(), int64(len(payload)), s
		}
		if sw.on {
			c.slotEvents++
			if int64(len(payload)) == ev.aux {
				c.slotMatches++
			}
		}
		r.putBuf(payload)
	}
	r.putBuf(content)
	sw.start()
	devOff, err := r.alloc.Alloc(slot)
	sw.lap(lAlloc)
	if err != nil {
		c.unmatched++
		return
	}
	repl := &core.Extent{Offset: old.Offset, OrigLen: old.OrigLen, CompLen: comp, SlotLen: slot, Tag: tag, DevOff: devOff, Version: old.Version}
	r.deviceIO(devOff, slot, true)
	sw.start()
	if r.w.background {
		err = r.mapg.ReplaceAll(old, repl)
	} else {
		err = r.mapg.Replace(old, repl)
	}
	sw.lap(lMapInsert)
	if err != nil {
		c.unmatched++
		r.alloc.Free(devOff, slot)
		return
	}
	r.trimFreed()
	if tag != compress.TagNone {
		r.costs[repl] = extCost{dec: dec, gen: gen, tag: tag}
	}
}

// replayLayers feeds the recorded events of a traced pass through one
// replica per shard. Events before timedFrom (a serve workload's
// preload) build replica state without being counted.
func replayLayers(w *spec, events []event, timedFrom time.Duration) (*stopwatch, *replayCounts, error) {
	sw, c := &stopwatch{}, &replayCounts{}
	shards := 1
	if w.shards > 1 {
		shards = w.shards
	}
	reps := make([]*replica, shards)
	for i := range reps {
		var err error
		if reps[i], err = newReplica(w, sw, c); err != nil {
			return nil, nil, err
		}
	}
	from := timedFrom.Microseconds()
	c.events = int64(len(events))
	for i := range events {
		ev := &events[i]
		if int(ev.shard) >= shards {
			return nil, nil, fmt.Errorf("perf: event from shard %d of %d", ev.shard, shards)
		}
		sw.on = ev.tus >= from
		reps[ev.shard].apply(ev)
	}
	sw.on = true
	for _, r := range reps {
		// Whatever is still queued was decided raw after the last codec
		// output; the run stored it when its CPU job completed.
		for _, q := range r.queue {
			if q.ready() {
				r.store(q)
			} else {
				c.unmatched++
			}
		}
		r.queue = nil
		c.liveBlocks += r.mapg.LiveBlocks()
		c.liveSlotByte += r.alloc.InUse()
	}
	return sw, c, nil
}
