package core

import (
	"time"

	"edc/internal/compress"
	"edc/internal/datagen"
	"edc/internal/parallel"
	"edc/internal/trace"
)

// lookaheadWalk bounds the tail requests one prediction reads.
const lookaheadWalk = 256

// runKey identifies a run's work: content and estimate are pure functions
// of it, and the payload of it and the codec.
type runKey struct {
	off, size int64
	ver       uint32
}

// aheadSlot is one predicted run's work. The event loop sets key, codec
// and the buffers before the job is submitted and reads content, payload
// and ratio only after joining fut. payload is nil when codec is.
type aheadSlot struct {
	key   runKey
	codec compress.Codec // the policy's pick when the run was predicted
	data  *datagen.Generator
	check bool      // the policy estimates compressibility
	est   Estimator // the job's own: an Estimator's hash sets are scratch

	content, payload []byte
	ratio            float64

	fut *parallel.Future[[]byte] // nil until the pool accepts the job
	job func() []byte            // run, bound once
}

// run generates the content, estimates it, and encodes it when the
// estimate passes; the result is the payload.
func (s *aheadSlot) run() []byte {
	s.content = s.data.AppendBlock(s.content, s.key.off, int(s.key.size), s.key.ver)
	encode := s.codec != nil
	if s.check {
		s.ratio = s.est.EstimateRatio(s.content)
		encode = encode && s.ratio >= WriteThroughRatio
	}
	if encode {
		s.payload = s.codec.AppendCompress(s.payload, s.content)
	}
	return s.payload
}

// lookahead is the write path's lookahead (DESIGN.md §9): a ring of
// slots for the next runs the detector will emit from the tail (a
// replay's trace, a serve shard's admitted operations), whose work runs
// on the pool before the event loop reaches them. The ring is as long as
// the pool queue's backlog, so every job the queue can hold has a slot.
// A slot holds its buffers from prediction on, whether or not the pool
// took its job, so the freelist sees the same traffic for the same event
// order.
type lookahead struct {
	slots    []aheadSlot
	head, n  int
	keys     []runKey // prediction scratch, with room for len(slots)
	volBytes int64

	served, missed int64 // runs taken from a slot; rings cancelled on a key miss
	// Served runs stored uncompressed from a slot with a payload buffer,
	// and encoded from a slot without one (predicted none).
	toNone, toCodec int64
}

// newLookahead returns an empty ring of depth slots over a volume of
// volBytes.
func newLookahead(depth int, volBytes int64) *lookahead {
	return &lookahead{slots: make([]aheadSlot, depth), keys: make([]runKey, 0, depth), volBytes: volBytes}
}

// predict returns the runs the detector will emit next if the tail is
// admitted as it arrives, by the detector's rules: a write it extends
// joins the pending run; a read, any other write, an arrival after the
// flush timer fired, or the end of the tail ends it. Run i gets version
// ver+i; at most len(la.slots) runs are predicted.
func (la *lookahead) predict(sd *SeqDetector, flushWait time.Duration, tail []trace.Request, ver uint32) []runKey {
	keys := la.keys[:0]
	var cur runKey // the pending run; size 0 when there is none
	var last time.Duration
	if p := sd.cur; p != nil {
		cur, last = runKey{p.Offset, p.Size, 0}, p.Writes[len(p.Writes)-1].Arrival
	}
	for i, r := range tail {
		if i == lookaheadWalk {
			return keys
		}
		var off, size int64
		if r.Write {
			off, size = alignRequest(la.volBytes, r)
		}
		// An arrival at the very instant the timer fires runs first.
		if cur.size > 0 && (size == 0 || !sd.extends(cur.off, cur.size, off, size) ||
			flushWait > 0 && r.Arrival-last > flushWait) {
			cur.ver = ver + uint32(len(keys))
			if keys = append(keys, cur); len(keys) == len(la.slots) {
				return keys
			}
			cur.size = 0
		}
		if size > 0 {
			if cur.size == 0 {
				cur.off = off
			}
			cur.size += size
			last = r.Arrival
		}
	}
	if cur.size > 0 {
		cur.ver = ver + uint32(len(keys))
		keys = append(keys, cur)
	}
	return keys
}

// at is the i-th slot from the head.
func (la *lookahead) at(i int) *aheadSlot {
	return &la.slots[(la.head+i)%len(la.slots)]
}

// take pops and joins the head slot if it holds the run k; otherwise it
// cancels the ring and returns nil. A head the pool refused runs now.
func (la *lookahead) take(k runKey, se *storeEngine) *aheadSlot {
	if la == nil || la.n == 0 {
		return nil
	}
	s := la.at(0)
	if s.key != k {
		la.missed++
		la.cancelFrom(0, se)
		return nil
	}
	if s.fut == nil {
		s.fut = parallel.Go(se.pool, s.job)
	}
	s.fut.Wait()
	la.served++
	la.head = (la.head + 1) % len(la.slots)
	la.n--
	return s
}

// cancelFrom drops slots i and later: a queued job is cancelled, a
// started one joined, and the buffers go back to the freelist.
func (la *lookahead) cancelFrom(i int, se *storeEngine) {
	if la == nil {
		return
	}
	for ; la.n > i; la.n-- {
		s := la.at(la.n - 1)
		if s.fut != nil && !s.fut.Cancel() {
			s.fut.Wait()
		}
		se.putBuf(s.content)
		se.putBuf(s.payload)
	}
}

// lookAhead refreshes the ring after a run: slots that match the new
// prediction keep their work, the rest are cancelled, new runs get a
// slot, and slots not yet on the pool are offered to it until it refuses
// one (speculation never runs on the event loop).
func (wp *writePath) lookAhead() {
	if wp.upcoming == nil || !wp.canLookAhead() {
		return
	}
	if wp.fs.failed() {
		wp.la.cancelFrom(0, wp.se)
		return
	}
	tail, ok := wp.upcoming()
	if !ok {
		return
	}
	codec := wp.policy.Select(wp.meter.Intensity(wp.eng.Now()))
	// A run predicted raw gets no slot when storeRaw will store it: its
	// lagged estimate costs the loop less than a slot's join.
	grow := codec != nil || !wp.rawOK
	if !grow && (wp.la == nil || wp.la.n == 0) {
		return
	}
	la := wp.la
	if la == nil {
		la = newLookahead(wp.se.pool.Cap(), wp.se.mapping.VolumeBlocks()*BlockSize)
		for i := range la.slots {
			s := &la.slots[i]
			s.data, s.check, s.job = wp.data, wp.policy.ChecksCompressibility(), s.run
			s.est = Estimator{SampleSize: wp.est.SampleSize, Samples: wp.est.Samples}
		}
		wp.la = la
	}
	keys := la.predict(wp.sd, wp.flushWait, tail, wp.version)
	i := 0
	for i < la.n && i < len(keys) && la.at(i).key == keys[i] {
		i++
	}
	la.cancelFrom(i, wp.se)
	if !grow {
		keys = keys[:i]
	}
	for _, k := range keys[i:] {
		s := la.at(la.n)
		s.key, s.codec, s.fut = k, codec, nil
		s.content, s.payload = wp.slotBuf(k.size), nil
		if codec != nil {
			s.payload = wp.slotBuf(k.size)
		}
		la.n++
	}
	for i := 0; i < la.n; i++ {
		if s := la.at(i); s.fut == nil {
			if s.fut = parallel.TryGo(wp.se.pool, s.job); s.fut == nil {
				return
			}
		}
	}
}

// canLookAhead reports whether the lookahead can run: with a pool, and
// runs whose work depends on their key alone, which dedup (hash first),
// QoS (per-tenant meters, shaping), RatioAware and DisableSD rule out.
func (wp *writePath) canLookAhead() bool {
	_, ratioAware := wp.policy.(RatioAware)
	return wp.se.pool != nil && wp.se.dedup == nil && wp.qs == nil && !ratioAware && !wp.disableSD
}

// slotBuf is a freelist buffer that exists even when the freelist is
// empty, so a slot gives a buffer back whether or not its job ran. A
// buffer made here is sized to the run it is for.
func (wp *writePath) slotBuf(size int64) []byte {
	if b := wp.se.getBuf(); b != nil {
		return b
	}
	return make([]byte, 0, size)
}
