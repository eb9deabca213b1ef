package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
)

// ErrNoSpace reports allocator exhaustion: the compressed store no longer
// fits on the backing device.
var ErrNoSpace = errors.New("core: device space exhausted")

// Allocator manages byte extents of the backing device's logical address
// space for compressed slots. Because EDC quantizes slot sizes to
// quarters of the (4 KiB-aligned) run size (Sec. III-C), the set of
// distinct slot sizes is small, so segregated exact-size free lists
// recycle space without fragmentation; a split fallback handles mixed
// sizes.
type Allocator struct {
	capacity int64
	bump     int64
	free     map[int64][]int64 // slot size -> free offsets (LIFO)
	inUse    int64
	peakUse  int64
	allocs   int64
	splits   int64

	ranges []Range // Compact's scratch, kept between compactions
}

// NewAllocator manages [0, capacity) bytes.
func NewAllocator(capacity int64) *Allocator {
	return &Allocator{capacity: capacity, free: make(map[int64][]int64)}
}

// Capacity returns the managed space in bytes.
func (a *Allocator) Capacity() int64 { return a.capacity }

// InUse returns currently allocated bytes.
func (a *Allocator) InUse() int64 { return a.inUse }

// PeakUse returns the high-water mark of allocated bytes.
func (a *Allocator) PeakUse() int64 { return a.peakUse }

// Alloc returns the device offset of a slot of exactly `size` bytes.
func (a *Allocator) Alloc(size int64) (int64, error) {
	if size <= 0 {
		return 0, fmt.Errorf("core: Alloc(%d): size must be positive", size)
	}
	a.allocs++
	// 1. Exact-size free list.
	if lst := a.free[size]; len(lst) > 0 {
		off := lst[len(lst)-1]
		a.free[size] = lst[:len(lst)-1]
		a.account(size)
		return off, nil
	}
	// 2. Fresh space.
	if a.bump+size <= a.capacity {
		off := a.bump
		a.bump += size
		a.account(size)
		return off, nil
	}
	// 3. Split the smallest adequate free slot.
	bestSize := int64(-1)
	for s, lst := range a.free {
		if s >= size && len(lst) > 0 && (bestSize < 0 || s < bestSize) {
			bestSize = s
		}
	}
	if bestSize < 0 {
		return 0, ErrNoSpace
	}
	lst := a.free[bestSize]
	off := lst[len(lst)-1]
	a.free[bestSize] = lst[:len(lst)-1]
	if rem := bestSize - size; rem > 0 {
		a.free[rem] = append(a.free[rem], off+size)
	}
	a.splits++
	a.account(size)
	return off, nil
}

func (a *Allocator) account(size int64) {
	a.inUse += size
	if a.inUse > a.peakUse {
		a.peakUse = a.inUse
	}
}

// Free returns a slot to its size class.
func (a *Allocator) Free(off, size int64) {
	if size <= 0 {
		return
	}
	a.free[size] = append(a.free[size], off)
	a.inUse -= size
}

// FreeBytes returns bytes available (free lists + untouched space).
func (a *Allocator) FreeBytes() int64 {
	var freeList int64
	for s, lst := range a.free {
		freeList += s * int64(len(lst))
	}
	return freeList + (a.capacity - a.bump)
}

// classCount returns how many distinct slot sizes have free slots
// (diagnostics, and the maintenance tick's compaction trigger).
func (a *Allocator) classCount() int {
	n := 0
	for _, lst := range a.free {
		if len(lst) > 0 {
			n++
		}
	}
	return n
}

// Compact coalesces the free lists: adjacent free slots merge into
// larger ones, and a merged run that touches the bump frontier is
// returned to fresh space. Free slots never move live data, so
// compaction is pure metadata work — no device I/O — and it undoes the
// size-class fragmentation that quantized recycling accumulates.
// Returns how many adjacent slots were coalesced away and how many
// bytes rejoined the untouched region. Deterministic: the rebuilt free
// lists depend only on the set of free ranges, not map iteration order.
// The lists are refilled in place and emptied classes dropped, so a
// compaction allocates only when a list outgrows its old capacity.
func (a *Allocator) Compact() (coalesced int, reclaimed int64) {
	ranges := a.ranges[:0]
	for s, lst := range a.free {
		for _, off := range lst {
			ranges = append(ranges, Range{Off: off, Len: s})
		}
	}
	a.ranges = ranges
	if len(ranges) == 0 {
		return 0, 0
	}
	slices.SortFunc(ranges, func(x, y Range) int { return cmp.Compare(x.Off, y.Off) })
	merged := ranges[:1]
	for _, r := range ranges[1:] {
		last := &merged[len(merged)-1]
		if last.Off+last.Len == r.Off {
			last.Len += r.Len
			coalesced++
			continue
		}
		merged = append(merged, r)
	}
	if tail := &merged[len(merged)-1]; tail.Off+tail.Len == a.bump {
		a.bump = tail.Off
		reclaimed = tail.Len
		merged = merged[:len(merged)-1]
	}
	for s, lst := range a.free {
		a.free[s] = lst[:0]
	}
	for _, r := range merged {
		a.free[r.Len] = append(a.free[r.Len], r.Off)
	}
	for s, lst := range a.free {
		if len(lst) == 0 {
			delete(a.free, s)
		}
	}
	return coalesced, reclaimed
}

// Range is one reserved extent used when rebuilding from a snapshot.
type Range struct {
	Off, Len int64 // byte offset and length on the device
}

// Rebuild resets the allocator to exactly the given reserved ranges
// (mapping-snapshot restore): gaps between reservations become free
// slots, and fresh space resumes after the last reservation. Ranges must
// be in-capacity and non-overlapping.
func (a *Allocator) Rebuild(reserved []Range) error {
	sort.Slice(reserved, func(i, j int) bool { return reserved[i].Off < reserved[j].Off })
	a.free = make(map[int64][]int64)
	a.inUse = 0
	a.bump = 0
	for _, r := range reserved {
		if r.Len <= 0 || r.Off < 0 || r.Off+r.Len > a.capacity {
			return fmt.Errorf("core: rebuild range [%d,+%d) invalid", r.Off, r.Len)
		}
		if r.Off < a.bump {
			return fmt.Errorf("core: rebuild range [%d,+%d) overlaps", r.Off, r.Len)
		}
		if gap := r.Off - a.bump; gap > 0 {
			a.free[gap] = append(a.free[gap], a.bump)
		}
		a.inUse += r.Len
		a.bump = r.Off + r.Len
	}
	if a.inUse > a.peakUse {
		a.peakUse = a.inUse
	}
	return nil
}

// QuantizeSlot maps a compressed length to the paper's quantized slot
// size: the smallest of 25/50/75 % of origLen (each rounded up to a whole
// byte) that fits. It returns origLen (and false) when no such slot is
// smaller than the block itself — the compressed form needs more than
// 75 %, or origLen is too short for the rounded quarter to leave room —
// and the block should then be stored uncompressed (Sec. III-C).
func QuantizeSlot(origLen, compLen int64) (slot int64, compressed bool) {
	if origLen <= 0 {
		return 0, false
	}
	quarter := (origLen + 3) / 4
	for slot = quarter; slot < origLen; slot += quarter {
		if compLen <= slot {
			return slot, true
		}
	}
	return origLen, false
}
