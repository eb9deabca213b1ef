package core

import (
	"fmt"

	"edc/internal/compress"
	"edc/internal/dedup"
	"edc/internal/maint"
)

// BlockSize is the logical block granularity of the EDC mapping table.
// The paper's prototype operates on fixed-size 4 KB input blocks
// (Sec. III-C); host requests are aligned to this unit on entry.
const BlockSize = 4096

// Extent describes one stored (possibly merged and compressed) run: the
// paper's per-block mapping metadata — LBA, compressed Size and the
// 3-bit codec Tag (Fig. 5) — extended with the quantized slot length and
// the device location.
type Extent struct {
	Offset  int64 // logical byte offset of the run start
	OrigLen int64 // uncompressed bytes (BlockSize multiple)
	CompLen int64 // compressed payload bytes
	SlotLen int64 // quantized allocation on the device
	Tag     compress.Tag
	DevOff  int64 // byte offset on the backing device
	Version uint32

	// Heat is the extent's epoch-decayed temperature, bumped by the
	// read and write paths and consulted only by background
	// maintenance; it is never persisted (recovered extents start
	// cold).
	Heat maint.Heat

	live    int32 // logical blocks still mapped to this extent
	pending bool  // device write not yet durable; maintenance must not move it
	// noWin marks an extent whose cold re-encode showed no space win, so
	// maintenance stops re-reading it every pass. The content is a pure
	// function of (Offset, OrigLen, Version), all fixed for the extent's
	// life; an overwrite makes a new extent, which is tried afresh.
	noWin bool

	// shared marks an extent currently referenced by blocks outside its
	// home range [Offset, Offset+OrigLen) — a dedup hit mapped foreign
	// LBAs to it. Shared extents are excluded from dead-space accounting
	// (their live count can exceed their home block count, so "partially
	// dead" is undefined for them). The flag tracks foreign exactly: it
	// clears when the last foreign reference goes away, so in-memory
	// state always matches what a snapshot reload would reconstruct.
	shared bool
	// foreign counts the live blocks outside the home range (shared ==
	// foreign > 0); live is always home-live + foreign.
	foreign int32
	// deadCounted tracks whether this extent's slot is currently counted
	// in Mapping.deadSpace, replacing the old inference from live-count
	// transitions (which dedup's refcount increments would break).
	deadCounted bool

	// sum is the content fingerprint of the stored run; valid only when
	// hasSum (dedup enabled and the extent went through the write path).
	sum    dedup.Sum
	hasSum bool

	// pins counts the verified reads whose check of the extent's payload
	// snapshot has not settled (storeEngine.pin); the snapshot's buffer
	// is recycled only once the extent has died and pins is 0.
	pins int32
}

// Compressed reports whether the extent stores transformed data.
func (e *Extent) Compressed() bool { return e.Tag != compress.TagNone }

// Live returns the number of logical blocks still referencing the extent.
func (e *Extent) Live() int { return int(e.live) }

// Mapping is the EDC mapping table: logical 4 KB block -> extent.
// Overwrites decrement the old extent's live count; a fully dead extent
// releases its device slot through the free callback.
type Mapping struct {
	table []*Extent // one entry per logical block
	alloc *Allocator
	// onFree, if set, is told when an extent's slot is released
	// (the engine trims the device range).
	onFree func(*Extent)

	liveBlocks int64
	extents    int64
	deadSpace  int64 // slot bytes held by partially-dead extents

	// deferFrees, set when dedup is enabled, makes extent release
	// enqueue onto dying instead of freeing inline. Each mapping
	// mutation's caller collects the batch with takeDying and flushes it
	// (journal unref + slot free + engine callback) only once its own
	// mutation is durable — so an unref record never precedes the
	// journal record of the write that caused it.
	deferFrees bool
	dying      []*Extent
}

// NewMapping creates a table for a volume of volumeBytes, backed by the
// given slot allocator.
func NewMapping(volumeBytes int64, alloc *Allocator, onFree func(*Extent)) *Mapping {
	nBlocks := (volumeBytes + BlockSize - 1) / BlockSize
	return &Mapping{
		table:  make([]*Extent, nBlocks),
		alloc:  alloc,
		onFree: onFree,
	}
}

// VolumeBlocks returns the logical volume size in blocks.
func (m *Mapping) VolumeBlocks() int64 { return int64(len(m.table)) }

// LiveBlocks returns how many logical blocks are currently mapped.
func (m *Mapping) LiveBlocks() int64 { return m.liveBlocks }

// Extents returns the number of live extents.
func (m *Mapping) Extents() int64 { return m.extents }

// checkRange validates a block-aligned byte range.
func (m *Mapping) checkRange(off, size int64) error {
	if off < 0 || size <= 0 || off%BlockSize != 0 || size%BlockSize != 0 {
		return fmt.Errorf("core: unaligned range [%d,+%d)", off, size)
	}
	if (off+size)/BlockSize > int64(len(m.table)) {
		return fmt.Errorf("core: range [%d,+%d) beyond volume (%d blocks)", off, size, len(m.table))
	}
	return nil
}

// Insert maps the run [ext.Offset, +ext.OrigLen) to ext, unmapping any
// previous extents covering those blocks. The new extent's slot must
// already be allocated; fully-overwritten old extents have their slots
// freed here.
func (m *Mapping) Insert(ext *Extent) error {
	if err := m.checkRange(ext.Offset, ext.OrigLen); err != nil {
		return err
	}
	first := ext.Offset / BlockSize
	n := ext.OrigLen / BlockSize
	for b := first; b < first+n; b++ {
		m.unmapBlock(b)
		m.table[b] = ext
		m.liveBlocks++
	}
	ext.live = int32(n)
	m.extents++
	return nil
}

// unmapBlock detaches block b from its extent, releasing the extent when
// it loses its last block.
func (m *Mapping) unmapBlock(b int64) {
	old := m.table[b]
	if old == nil {
		return
	}
	m.table[b] = nil
	m.liveBlocks--
	old.live--
	if first := old.Offset / BlockSize; b < first || b >= first+old.OrigLen/BlockSize {
		old.foreign--
		if old.foreign == 0 {
			// Last foreign reference gone: the extent reverts to plain
			// home-range semantics, including dead-space accounting
			// (settled below) — matching what LoadSnapshot reconstructs.
			old.shared = false
		}
	}
	if old.live == 0 {
		m.extents--
		m.release(old)
		return
	}
	m.settleDead(old)
}

// settleDead reconciles e's participation in the dead-space gauge with
// its current reference state: shared extents are never counted (their
// live count is not comparable to their home block count); a live,
// unshared extent with unmapped home blocks pins its whole slot.
func (m *Mapping) settleDead(e *Extent) {
	want := !e.shared && e.live > 0 && e.live < int32(e.OrigLen/BlockSize)
	switch {
	case want && !e.deadCounted:
		m.deadSpace += e.SlotLen
		e.deadCounted = true
	case !want && e.deadCounted:
		m.deadSpace -= e.SlotLen
		e.deadCounted = false
	}
}

// release retires a fully-dereferenced extent: settle its dead-space
// accounting, then free its slot — either inline or, under deferFrees,
// onto the dying batch for the current mutation's caller to flush at
// its durable point.
func (m *Mapping) release(old *Extent) {
	if old.deadCounted {
		m.deadSpace -= old.SlotLen
		old.deadCounted = false
	}
	if m.deferFrees {
		m.dying = append(m.dying, old)
		return
	}
	m.alloc.Free(old.DevOff, old.SlotLen)
	if m.onFree != nil {
		m.onFree(old)
	}
}

// takeDying hands the caller the extents released by the mutation it
// just performed (empty unless deferFrees). The caller owns the batch:
// it must journal the unrefs and free the slots once its own mutation
// is durable.
func (m *Mapping) takeDying() []*Extent {
	d := m.dying
	m.dying = nil
	return d
}

// InsertRef maps the run [off, +size) onto the already-stored extent
// ext — the dedup-hit remap. The run must match ext's stored length
// exactly, and ext must still be live. Blocks already mapped to ext are
// left untouched (rewriting identical content in place is a no-op), so
// ext can never be released by its own remap.
func (m *Mapping) InsertRef(off, size int64, ext *Extent) error {
	if err := m.checkRange(off, size); err != nil {
		return err
	}
	if size != ext.OrigLen {
		return fmt.Errorf("core: dedup ref [%d,+%d) against extent of %d bytes", off, size, ext.OrigLen)
	}
	if ext.live <= 0 {
		return fmt.Errorf("core: dedup ref against dead extent at %d", ext.Offset)
	}
	first := off / BlockSize
	n := size / BlockSize
	homeFirst := ext.Offset / BlockSize
	homeEnd := homeFirst + ext.OrigLen/BlockSize
	for b := first; b < first+n; b++ {
		if m.table[b] == ext {
			continue
		}
		if b < homeFirst || b >= homeEnd {
			ext.shared = true
			ext.foreign++
		}
		m.unmapBlock(b)
		m.table[b] = ext
		ext.live++
		m.liveBlocks++
	}
	m.settleDead(ext)
	return nil
}

// Replace swaps old for repl in every block that still references old,
// freeing old's device slot — the remap half of an extent relocation.
// repl must describe the same logical run (Offset, OrigLen, Version)
// with its new slot already allocated; blocks of the run that were
// overwritten while the relocation was in flight stay with their newer
// extents, so repl inherits exactly old's references. Those sit in old's
// home range unless dedup mapped foreign LBAs onto it; only then is the
// whole table scanned (relocations are background-rate). Returns an
// error if old is no longer referenced anywhere (the caller should have
// aborted instead of double-freeing).
func (m *Mapping) Replace(old, repl *Extent) error {
	if old.live <= 0 {
		return fmt.Errorf("core: replace of dead extent at %d", old.Offset)
	}
	if repl.Offset != old.Offset || repl.OrigLen != old.OrigLen {
		return fmt.Errorf("core: replace changes run [%d,+%d) -> [%d,+%d)",
			old.Offset, old.OrigLen, repl.Offset, repl.OrigLen)
	}
	lo := old.Offset / BlockSize
	hi := lo + old.OrigLen/BlockSize
	if old.foreign > 0 {
		lo, hi = 0, int64(len(m.table))
	}
	var moved int32
	for b := lo; b < hi; b++ {
		if m.table[b] == old {
			m.table[b] = repl
			moved++
		}
	}
	if moved != old.live {
		return fmt.Errorf("core: extent at %d: live=%d but %d blocks reference it",
			old.Offset, old.live, moved)
	}
	repl.live = moved
	repl.Heat = old.Heat
	repl.shared, repl.foreign = old.shared, old.foreign
	old.live, old.foreign = 0, 0
	if old.deadCounted {
		// The slot was counted dead-space when its first block died;
		// the replacement slot inherits that state at its own size.
		m.deadSpace += repl.SlotLen - old.SlotLen
		old.deadCounted = false
		repl.deadCounted = true
	}
	m.release(old)
	return nil
}

// ReplaceAll is Replace, which follows foreign references by itself; the
// name remains because the perf harness calls it.
func (m *Mapping) ReplaceAll(old, repl *Extent) error { return m.Replace(old, repl) }

// eachExtent calls fn once per distinct mapped extent, in table order of
// first appearance — the deterministic walk recovery, the allocator
// rebuild and the end-of-run gauges share.
func (m *Mapping) eachExtent(fn func(*Extent)) {
	seen := make(map[*Extent]struct{}, m.extents)
	var prev *Extent
	for _, e := range m.table {
		if e == nil || e == prev {
			continue
		}
		prev = e
		if _, ok := seen[e]; !ok {
			seen[e] = struct{}{}
			fn(e)
		}
	}
}

// findExtent locates the live extent for the run starting at off whose
// slot sits at devOff — the lookup journal replay uses to resolve a
// relocate record's old placement. Returns nil if no such extent is
// still mapped.
func (m *Mapping) findExtent(off, origLen, devOff int64) *Extent {
	first := off / BlockSize
	n := origLen / BlockSize
	if first < 0 || n <= 0 || first+n > int64(len(m.table)) {
		return nil
	}
	// Any block of the run may have been overwritten since; the extent
	// is found through whichever of its blocks it still owns.
	for b := first; b < first+n; b++ {
		e := m.table[b]
		if e != nil && e.Offset == off && e.DevOff == devOff {
			return e
		}
	}
	return nil
}

// Trim unmaps a block-aligned range (host discard).
func (m *Mapping) Trim(off, size int64) error {
	if err := m.checkRange(off, size); err != nil {
		return err
	}
	for b := off / BlockSize; b < (off+size)/BlockSize; b++ {
		m.unmapBlock(b)
	}
	return nil
}

// Lookup returns the extent mapped at byte offset off (nil if unmapped).
func (m *Mapping) Lookup(off int64) *Extent {
	b := off / BlockSize
	if b < 0 || b >= int64(len(m.table)) {
		return nil
	}
	return m.table[b]
}

// ReadSegment is one piece of a read plan: either an extent to fetch and
// decode, or a hole (unmapped blocks, read as zeroes straight from the
// device address space).
type ReadSegment struct {
	Ext   *Extent // nil for holes
	Bytes int64   // logical bytes of this read satisfied by the segment
}

// ReadPlan decomposes a block-aligned read into the distinct extents (and
// holes) it touches. Adjacent blocks of the same extent collapse into a
// single segment, so each extent is fetched and decompressed once.
func (m *Mapping) ReadPlan(off, size int64) ([]ReadSegment, error) {
	return m.appendReadPlan(nil, off, size)
}

// appendReadPlan is ReadPlan appending to plan.
func (m *Mapping) appendReadPlan(plan []ReadSegment, off, size int64) ([]ReadSegment, error) {
	if err := m.checkRange(off, size); err != nil {
		return plan, err
	}
	first := off / BlockSize
	n := size / BlockSize
	for b := first; b < first+n; b++ {
		ext := m.table[b]
		if len(plan) > 0 {
			last := &plan[len(plan)-1]
			if last.Ext == ext {
				last.Bytes += BlockSize
				continue
			}
		}
		plan = append(plan, ReadSegment{Ext: ext, Bytes: BlockSize})
	}
	return plan, nil
}

// DeadSlotBytes reports slot bytes pinned by partially-overwritten
// extents (space the quantization cannot reclaim until the whole extent
// dies).
func (m *Mapping) DeadSlotBytes() int64 { return m.deadSpace }

// CheckInvariants recounts live references; tests call it after random
// workloads.
func (m *Mapping) CheckInvariants() error {
	counts := make(map[*Extent]int32)
	foreign := make(map[*Extent]int32)
	var live int64
	for b, e := range m.table {
		if e == nil {
			continue
		}
		counts[e]++
		live++
		if first := e.Offset / BlockSize; int64(b) < first || int64(b) >= first+e.OrigLen/BlockSize {
			foreign[e]++
		}
	}
	if live != m.liveBlocks {
		return fmt.Errorf("liveBlocks=%d, recount=%d", m.liveBlocks, live)
	}
	if int64(len(counts)) != m.extents {
		return fmt.Errorf("extents=%d, recount=%d", m.extents, len(counts))
	}
	var dead int64
	for e, c := range counts {
		if e.live != c {
			return fmt.Errorf("extent at %d: live=%d, recount=%d", e.Offset, e.live, c)
		}
		if !e.shared && e.live > int32(e.OrigLen/BlockSize) {
			return fmt.Errorf("extent at %d: live=%d exceeds blocks=%d", e.Offset, e.live, e.OrigLen/BlockSize)
		}
		if f := foreign[e]; e.foreign != f || e.shared != (f > 0) {
			return fmt.Errorf("extent at %d: foreign=%d shared=%v, recount=%d",
				e.Offset, e.foreign, e.shared, f)
		}
		if want := !e.shared && e.live < int32(e.OrigLen/BlockSize); e.deadCounted != want {
			return fmt.Errorf("extent at %d: deadCounted=%v, want %v (live=%d shared=%v)",
				e.Offset, e.deadCounted, want, e.live, e.shared)
		}
		if e.deadCounted {
			dead += e.SlotLen
		}
	}
	if dead != m.deadSpace {
		return fmt.Errorf("deadSpace=%d, recount=%d", m.deadSpace, dead)
	}
	return nil
}
