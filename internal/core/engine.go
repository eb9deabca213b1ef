package core

import (
	"math/bits"
	"time"

	"edc/internal/compress"
	"edc/internal/dedup"
	"edc/internal/maint"
	"edc/internal/obs"
	"edc/internal/parallel"
)

// storeEngine owns the storage side of the pipeline: the slot allocator,
// the logical-to-device mapping table, the backend, the verify-mode
// payload store, and the replay buffer freelist. It holds the one store
// step (paper Fig. 5) that host writes and maintenance relocations both
// take once the codec futures the write path and the maintainer
// dispatch have joined: encoded → allocSlot → write. The read path
// plans against its mapping and reads from its backend. It performs no
// policy decisions and observes no statistics of its own.
type storeEngine struct {
	be      *Backend
	alloc   *Allocator
	mapping *Mapping

	// exactSlots is the Options.ExactSlots ablation; NewDevice sets it.
	exactSlots bool

	// pool is the queue Device.open registers on the process-wide codec
	// pool for the write path, the read path and the maintainer alike; it
	// exists only while the pipeline runs. Nil runs codec work inline:
	// parallel.Go on a nil queue runs the closure at dispatch and returns
	// it resolved, so every codec consumer joins a future either way. A
	// closure must be a function of immutable inputs only (content,
	// codec, an extent's placement-time fields): the inline case computes
	// at dispatch what the pooled case delivers at the join.
	pool *parallel.Queue

	// obs/now feed slot alloc/free events to the observability layer;
	// both are set by NewDevice (now is the owning engine's clock).
	obs *obs.Collector
	now func() time.Duration

	// payloads holds the verify-mode snapshots, compressed extents only
	// (nil outside verify mode). The engine owns each buffer: it comes
	// from snaps, and goes back there when its extent dies, or, if a
	// verified read still holds it pinned, at the last unpin.
	payloads map[*Extent][]byte
	snaps    snapshotPool

	// epochLen is the heat-epoch length used when stamping extent
	// temperature; set by NewDevice (default even with maintenance off,
	// so heat tracking itself never branches).
	epochLen time.Duration

	// freeBufs recycles content/payload buffers. It is only touched by
	// the event-loop goroutine (workers receive buffers by closure and
	// hand them back through the joined future), so no locking. madeBufs
	// counts the getBuf calls it could not serve, that is the buffers the
	// pipeline made: once a run is closed every one is back in freeBufs.
	freeBufs [][]byte
	madeBufs int

	// dedup is the content index: fingerprint -> stored extent. Nil
	// unless dedup is enabled; entries are registered only once the
	// extent's device write is durable, and removed when the extent's
	// slot is released. dedupMax caps the index size
	// (dedup.DefaultMaxEntries). Event-loop goroutine only.
	dedup    map[dedup.Sum]*Extent
	dedupMax int
}

// newStoreEngine wires allocator + mapping over be for a volume of
// volBytes. Freed extents trim their device range; in verify mode the
// retained payload snapshot is dropped with the extent.
func newStoreEngine(be *Backend, volBytes int64, verify bool) *storeEngine {
	se := &storeEngine{
		be:    be,
		alloc: NewAllocator(be.LogicalBytes()),
		// NewDevice rebinds now to the owning engine's clock; the default
		// keeps bare store engines (tests) usable.
		now: func() time.Duration { return 0 },
	}
	se.mapping = NewMapping(volBytes, se.alloc, se.freeExtent)
	if verify {
		se.payloads = make(map[*Extent][]byte)
	}
	return se
}

// freeExtent is the mapping's slot-release callback: trim the device
// range, drop any verify-mode payload and content-index entry, and
// record the event.
func (se *storeEngine) freeExtent(e *Extent) {
	if se.obs != nil {
		se.obs.SlotFree(se.now(), e.Offset, e.OrigLen, e.SlotLen)
	}
	se.be.Trim(e.DevOff, e.SlotLen)
	se.dropPayload(e)
	se.dedupForget(e)
}

// dedupLookup resolves a fingerprint to a reusable stored extent: it
// must still be live, durable (not pending), and the same uncompressed
// length as the incoming run. Returns nil on a miss.
func (se *storeEngine) dedupLookup(sum dedup.Sum, size int64) *Extent {
	e := se.dedup[sum]
	if e == nil || e.pending || e.live <= 0 || e.OrigLen != size {
		return nil
	}
	return e
}

// dedupRegister indexes a durably stored extent under its fingerprint.
// First writer wins — a duplicate stored before its fingerprint hit the
// index keeps its own slot and simply is not indexed — and the index
// stops growing at dedupMax entries.
func (se *storeEngine) dedupRegister(e *Extent) {
	if se.dedup == nil || !e.hasSum {
		return
	}
	if _, ok := se.dedup[e.sum]; ok {
		return
	}
	if len(se.dedup) >= se.dedupMax {
		return
	}
	se.dedup[e.sum] = e
}

// dedupForget drops e's content-index entry if e is the indexed extent
// for its fingerprint.
func (se *storeEngine) dedupForget(e *Extent) {
	if se.dedup != nil && e.hasSum && se.dedup[e.sum] == e {
		delete(se.dedup, e.sum)
	}
}

// dedupRemap transfers old's fingerprint (and index entry, if old holds
// it) to repl — maintenance relocating an indexed extent keeps the
// index pointing at the surviving copy.
func (se *storeEngine) dedupRemap(old, repl *Extent) {
	if se.dedup == nil || !old.hasSum {
		return
	}
	repl.sum, repl.hasSum = old.sum, true
	if se.dedup[old.sum] == old {
		se.dedup[old.sum] = repl
	}
	old.hasSum = false
}

// adoptMapping swaps in a recovered mapping table (crash recovery),
// rewiring the standard slot-release callback onto it. The mapping must
// already be built over se's allocator.
func (se *storeEngine) adoptMapping(m *Mapping) {
	se.mapping = m
	m.alloc = se.alloc
	m.onFree = se.freeExtent
	// deferFrees is engine policy, not persisted mapping state: with
	// dedup on, the recovered table must keep parking releases on the
	// dying batch, or post-recovery frees happen inline — no unref
	// records, and slots freed before their causing record's durable
	// point, breaking a second recovery's replay ordering.
	m.deferFrees = se.dedup != nil
}

// getBuf returns a recycled buffer (possibly nil) with zero length.
// Event-loop goroutine only.
func (se *storeEngine) getBuf() []byte {
	if n := len(se.freeBufs); n > 0 {
		b := se.freeBufs[n-1]
		se.freeBufs = se.freeBufs[:n-1]
		return b[:0]
	}
	se.madeBufs++
	return nil
}

// putBuf recycles a buffer for a later getBuf. Event-loop goroutine
// only; the caller must not retain b.
func (se *storeEngine) putBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	se.freeBufs = append(se.freeBufs, b[:0])
}

// encoded is the slot decision: the extent (slot not yet allocated) for
// version ver of the run [off, +origLen) that codec turned into payload,
// and the bytes its slot will hold — the quantized class the output fits
// (its exact size under the ablation) or, with no codec or an output
// above 75 % (Sec. III-C; only then is fits false), the run uncompressed.
func (se *storeEngine) encoded(off, origLen int64, ver uint32, codec compress.Codec, content, payload []byte) (ext *Extent, stored []byte, fits bool) {
	ext = &Extent{Offset: off, OrigLen: origLen, CompLen: origLen, SlotLen: origLen, Version: ver}
	if codec == nil {
		return ext, content, true
	}
	compLen := int64(len(payload))
	slotLen, fits := QuantizeSlot(origLen, compLen)
	if !fits {
		return ext, content, false
	}
	if se.exactSlots {
		slotLen = compLen
	}
	ext.Tag, ext.CompLen, ext.SlotLen = codec.Tag(), compLen, slotLen
	return ext, payload, true
}

// allocSlot allocates ext.SlotLen bytes on the device, fills ext.DevOff
// and announces the slot.
func (se *storeEngine) allocSlot(ext *Extent) error {
	devOff, err := se.alloc.Alloc(ext.SlotLen)
	if err != nil {
		return err
	}
	ext.DevOff = devOff
	if se.obs != nil {
		se.obs.SlotAlloc(se.now(), ext.SlotLen)
	}
	return nil
}

// place allocates ext's slot and maps [ext.Offset, +OrigLen) to the
// extent. Any previous extents covering those blocks are unmapped (and
// their slots freed).
func (se *storeEngine) place(ext *Extent) error {
	if err := se.allocSlot(ext); err != nil {
		return err
	}
	return se.mapping.Insert(ext)
}

// touch bumps ext's temperature at the current heat epoch. Heat is a
// strict observation — nothing on the foreground paths reads it back —
// so touching costs the same whether maintenance is on or off.
func (se *storeEngine) touch(ext *Extent) {
	ext.Heat.Touch(maint.Epoch(se.now(), se.epochLen))
}

// keepPayload snapshots the stored bytes for verify-mode reads, in a
// recycled buffer when snaps has one that fits. Only a compressed extent
// gets one: a read of a raw extent decodes nothing, so it verifies
// nothing.
func (se *storeEngine) keepPayload(ext *Extent, data []byte) {
	if se.payloads != nil && ext.Tag != compress.TagNone {
		se.payloads[ext] = append(se.snaps.take(len(data)), data...)
	}
}

// dropPayload ends ext's snapshot, if it has one: its extent died, or
// never got mapped. The buffer goes back to snaps at once, or at the
// last unpin while a verified read still holds it.
func (se *storeEngine) dropPayload(ext *Extent) {
	if buf, ok := se.payloads[ext]; ok {
		delete(se.payloads, ext)
		if ext.pins == 0 {
			se.snaps.put(buf)
		}
	}
}

// pin returns the verify-mode snapshot for ext (nil outside verify mode
// or after the extent died) and, if there is one, holds it for a read's
// verification: until the matching unpin the buffer is not recycled,
// even if ext dies meanwhile.
func (se *storeEngine) pin(ext *Extent) []byte {
	buf := se.payloads[ext]
	if buf != nil {
		ext.pins++
	}
	return buf
}

// unpin releases a hold pin took on buf, ext's snapshot; the last one
// recycles buf if ext has died meanwhile. Abandoned reads (a power cut)
// never unpin: their buffers stay out of snaps and die with the engine.
func (se *storeEngine) unpin(ext *Extent, buf []byte) {
	if buf == nil {
		return
	}
	if ext.pins--; ext.pins == 0 {
		if _, live := se.payloads[ext]; !live {
			se.snaps.put(buf)
		}
	}
}

// write issues the device write of ext's slot; done fires when the
// transfer completes, with the operation outcome (nil, or an injected
// *fault.Error).
func (se *storeEngine) write(ext *Extent, done func(err error)) {
	se.be.Write(ext.DevOff, ext.SlotLen, done)
}

// failState carries the first fatal replay error; every stage shares one
// instance so any stage can abort the run.
type failState struct {
	err error
}

// fail records the first fatal error (later errors are dropped).
func (f *failState) fail(err error) {
	if f.err == nil {
		f.err = err
	}
}

// failed reports whether the replay has aborted.
func (f *failState) failed() bool { return f.err != nil }

// snapshotPoolBytes bounds the capacity a snapshotPool holds: beyond it,
// a returned buffer is left to the garbage collector. Where frees outrun
// snapshots (relocations, dedup refs) the pool stays full, so the bound
// is memory held for the whole run: 1 MiB per pipeline raised
// replay-usr0-bg's live heap by about 6 %.
const snapshotPoolBytes = 256 << 10

// snapshotPool recycles the store engine's verify-mode payload buffers,
// the way the device recycles slots: a dead extent's buffer serves the
// next snapshot of about its size. Lists are kept by capacity, eight per
// power of two (snapBucket); take accepts a buffer only if its spare
// capacity is at most an eighth of the length asked for, which is the
// rounding a fresh allocation's size class already pays. Event-loop
// goroutine only.
type snapshotPool struct {
	lists map[int][][]byte // snapBucket(cap) -> buffers, LIFO
	bytes int              // capacity held in lists
}

// snapBucket files a capacity c >= 1 under its octave and the next three
// bits below its leading one, so one bucket spans an eighth of an octave
// and the buckets ascend with c.
func snapBucket(c int) int {
	e := bits.Len(uint(c)) - 1
	if e < 3 {
		return c
	}
	return (e-2)*8 + (c>>(e-3))&7
}

// take returns an empty buffer whose capacity holds n bytes with at most
// n/8 to spare, or nil (append allocates one of n's own size class). A
// fitting buffer sits in a bucket from n's to n+n/8's; only each list's
// top is tried.
func (sp *snapshotPool) take(n int) []byte {
	if sp.bytes == 0 {
		return nil
	}
	for b, last := snapBucket(n), snapBucket(n+n/8); b <= last; b++ {
		l := sp.lists[b]
		if k := len(l) - 1; k >= 0 && cap(l[k]) >= n && cap(l[k])-n <= n/8 {
			buf := l[k]
			l[k] = nil
			sp.lists[b] = l[:k]
			sp.bytes -= cap(buf)
			return buf[:0]
		}
	}
	return nil
}

// put recycles buf; the caller must not retain it.
func (sp *snapshotPool) put(buf []byte) {
	c := cap(buf)
	if c == 0 || sp.bytes+c > snapshotPoolBytes {
		return
	}
	if sp.lists == nil {
		sp.lists = make(map[int][][]byte)
	}
	b := snapBucket(c)
	sp.lists[b] = append(sp.lists[b], buf[:0])
	sp.bytes += c
}
