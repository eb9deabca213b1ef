package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"strings"
	"testing"
	"time"

	"edc/internal/compress"
	"edc/internal/datagen"
	"edc/internal/dedup"
	"edc/internal/sim"
	"edc/internal/ssd"
	"edc/internal/trace"
	"edc/internal/workload"
)

// dedupTestExtent builds a 4-block stored extent at the given logical
// offset and slot placement, the shape every dedup test shares.
func dedupTestExtent(off, devOff int64) *Extent {
	return &Extent{
		Offset: off, OrigLen: 4 * BlockSize, CompLen: 9000, SlotLen: 12288,
		Tag: compress.TagLZF, Version: 1, DevOff: devOff,
	}
}

func TestJournalRefUnrefRoundTrip(t *testing.T) {
	var j Journal
	target := dedupTestExtent(0, 4096)
	dead := dedupTestExtent(8*BlockSize, 1<<18)
	j.Append(target)
	j.AppendRef(16*BlockSize, target.OrigLen, target)
	j.AppendUnref(dead)
	if j.Records() != 3 || j.Refs() != 1 || j.Unrefs() != 1 {
		t.Fatalf("records=%d refs=%d unrefs=%d, want 3/1/1", j.Records(), j.Refs(), j.Unrefs())
	}
	recs, err := DecodeJournal(j.Bytes())
	if err != nil || len(recs) != 3 {
		t.Fatalf("DecodeJournal = (%d recs, %v)", len(recs), err)
	}
	ref := recs[1]
	if !ref.Ref || ref.Relocate || ref.Unref {
		t.Fatalf("record 1 flags = %+v, want a ref record", ref)
	}
	if ref.Ext.Offset != 16*BlockSize || ref.Ext.OrigLen != target.OrigLen {
		t.Fatalf("ref run = [%d,+%d), want [%d,+%d)", ref.Ext.Offset, ref.Ext.OrigLen, 16*BlockSize, target.OrigLen)
	}
	if ref.TargetOff != target.Offset || ref.TargetDevOff != target.DevOff {
		t.Fatalf("ref target = (%d, %d), want (%d, %d)", ref.TargetOff, ref.TargetDevOff, target.Offset, target.DevOff)
	}
	un := recs[2]
	if !un.Unref || un.Ref || un.Relocate {
		t.Fatalf("record 2 flags = %+v, want an unref record", un)
	}
	if un.Ext.Offset != dead.Offset || un.Ext.OrigLen != dead.OrigLen {
		t.Fatalf("unref run = [%d,+%d), want [%d,+%d)", un.Ext.Offset, un.Ext.OrigLen, dead.Offset, dead.OrigLen)
	}
	if un.OldDevOff != dead.DevOff || un.OldSlotLen != dead.SlotLen {
		t.Fatalf("unref slot = (%d,+%d), want (%d,+%d)", un.OldDevOff, un.OldSlotLen, dead.DevOff, dead.SlotLen)
	}
	j.Reset()
	if j.Records() != 0 || j.Refs() != 0 || j.Unrefs() != 0 {
		t.Fatalf("post-Reset counters = %d/%d/%d, want zeros", j.Records(), j.Refs(), j.Unrefs())
	}
}

// A torn append of either v2 record kind drops the tail without
// invalidating the intact prefix — exactly like torn inserts.
func TestJournalRefUnrefTornTail(t *testing.T) {
	var j Journal
	target := dedupTestExtent(0, 4096)
	j.Append(target)
	j.AppendRef(16*BlockSize, target.OrigLen, target)
	j.AppendUnref(dedupTestExtent(8*BlockSize, 1<<18))
	img := j.Bytes()
	for cut, wantRecs := range map[int]int{
		len(img) - 7:                      2, // mid-unref
		len(img) - jnlUnrefRecordSize - 9: 1, // mid-ref
	} {
		records, torn, err := CheckJournal(img[:cut])
		if err != nil || !torn || records != wantRecs {
			t.Fatalf("cut %d: CheckJournal = (%d, torn=%v, %v), want (%d, true, nil)",
				cut, records, torn, err, wantRecs)
		}
	}
}

// Flipping any sealed byte of a v2 record must fail the CRC.
func TestJournalRefCRCCorruption(t *testing.T) {
	var j Journal
	target := dedupTestExtent(0, 4096)
	j.Append(target)
	j.AppendRef(16*BlockSize, target.OrigLen, target)
	img := append([]byte(nil), j.Bytes()...)
	img[jnlRecordSize+20] ^= 0x40 // inside the ref record's payload
	if _, err := DecodeJournal(img); !errors.Is(err, ErrBadJournal) {
		t.Fatalf("corrupt ref decode: err = %v, want ErrBadJournal", err)
	}
}

// A v2 record carrying an unknown version byte is refused even with a
// valid CRC: future format revisions must not replay silently.
func TestJournalRefUnrefBadVersion(t *testing.T) {
	var jr Journal
	jr.AppendRef(16*BlockSize, 4*BlockSize, dedupTestExtent(0, 4096))
	ref := append([]byte(nil), jr.Bytes()...)
	ref[2] = 9
	binary.LittleEndian.PutUint32(ref[jnlRefCRCOffset:], crc32.ChecksumIEEE(ref[:jnlRefCRCOffset]))
	if _, err := DecodeJournal(ref); !errors.Is(err, ErrBadJournal) || !strings.Contains(err.Error(), "ref version") {
		t.Fatalf("bad ref version: err = %v, want ErrBadJournal (ref version)", err)
	}

	var ju Journal
	ju.AppendUnref(dedupTestExtent(0, 4096))
	un := append([]byte(nil), ju.Bytes()...)
	un[2] = 9
	binary.LittleEndian.PutUint32(un[jnlUnrefCRCOffset:], crc32.ChecksumIEEE(un[:jnlUnrefCRCOffset]))
	if _, err := DecodeJournal(un); !errors.Is(err, ErrBadJournal) || !strings.Contains(err.Error(), "unref version") {
		t.Fatalf("bad unref version: err = %v, want ErrBadJournal (unref version)", err)
	}
}

// Replay applies a ref record as the write path did: the run remaps to
// the already-stored extent, which becomes shared.
func TestJournalReplayRef(t *testing.T) {
	var j Journal
	target := dedupTestExtent(0, 4096)
	j.Append(target)
	j.AppendRef(16*BlockSize, target.OrigLen, target)
	m := NewMapping(64*BlockSize, NewAllocator(1<<20), nil)
	n, err := ReplayJournal(m, j.Bytes())
	if err != nil || n != 2 {
		t.Fatalf("ReplayJournal = (%d, %v)", n, err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	home, foreign := m.Lookup(0), m.Lookup(16*BlockSize)
	if home == nil || home != foreign {
		t.Fatalf("home %p foreign %p, want both runs on one extent", home, foreign)
	}
	if !home.shared || home.Live() != 8 {
		t.Fatalf("shared=%v live=%d, want shared extent with 8 blocks", home.shared, home.Live())
	}
	if m.LiveBlocks() != 8 || m.Extents() != 1 {
		t.Fatalf("live = %d blocks in %d extents, want 8 in 1", m.LiveBlocks(), m.Extents())
	}
}

// A ref whose target was never inserted (or does not match the recorded
// identity) is corruption, not a silent no-op.
func TestJournalReplayRefTargetMissing(t *testing.T) {
	var j Journal
	j.AppendRef(16*BlockSize, 4*BlockSize, dedupTestExtent(0, 4096))
	m := NewMapping(64*BlockSize, NewAllocator(1<<20), nil)
	if _, err := ReplayJournal(m, j.Bytes()); !errors.Is(err, ErrBadJournal) {
		t.Fatalf("missing-target ref replay: err = %v, want ErrBadJournal", err)
	}

	// Same slot, different recorded identity: refused too.
	var j2 Journal
	target := dedupTestExtent(0, 4096)
	j2.Append(target)
	j2.AppendRef(16*BlockSize, target.OrigLen, &Extent{Offset: 8 * BlockSize, DevOff: target.DevOff})
	m2 := NewMapping(64*BlockSize, NewAllocator(1<<20), nil)
	if _, err := ReplayJournal(m2, j2.Bytes()); !errors.Is(err, ErrBadJournal) {
		t.Fatalf("identity-mismatch ref replay: err = %v, want ErrBadJournal", err)
	}
}

// The legal unref sequence: an overwrite drops the last reference, then
// the unref witnesses the release. Replay verifies rather than applies.
func TestJournalReplayUnref(t *testing.T) {
	var j Journal
	old := dedupTestExtent(0, 4096)
	repl := dedupTestExtent(0, 1<<18)
	repl.Version = 2
	j.Append(old)
	j.Append(repl) // full overwrite: old loses its last reference
	j.AppendUnref(old)
	m := NewMapping(64*BlockSize, NewAllocator(1<<20), nil)
	n, err := ReplayJournal(m, j.Bytes())
	if err != nil || n != 3 {
		t.Fatalf("ReplayJournal = (%d, %v)", n, err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := m.Lookup(0); got == nil || got.Version != 2 {
		t.Fatalf("post-replay extent = %+v, want the overwrite", got)
	}
}

// An unref of a slot whose extent is still referenced marks the journal
// corrupt: the write path only journals unrefs after the last drop.
func TestJournalReplayUnrefStillLive(t *testing.T) {
	var j Journal
	target := dedupTestExtent(0, 4096)
	j.Append(target)
	j.AppendUnref(target)
	m := NewMapping(64*BlockSize, NewAllocator(1<<20), nil)
	if _, err := ReplayJournal(m, j.Bytes()); !errors.Is(err, ErrBadJournal) ||
		!strings.Contains(err.Error(), "still live") {
		t.Fatalf("live-slot unref replay: err = %v, want ErrBadJournal (still live)", err)
	}
}

// The same slot witnessed as released twice is a double unref.
func TestJournalReplayDoubleUnref(t *testing.T) {
	var j Journal
	old := dedupTestExtent(0, 4096)
	repl := dedupTestExtent(0, 1<<18)
	repl.Version = 2
	j.Append(old)
	j.Append(repl)
	j.AppendUnref(old)
	j.AppendUnref(old)
	m := NewMapping(64*BlockSize, NewAllocator(1<<20), nil)
	n, err := ReplayJournal(m, j.Bytes())
	if !errors.Is(err, ErrBadJournal) || !strings.Contains(err.Error(), "double unref") {
		t.Fatalf("double-unref replay: err = %v, want ErrBadJournal (double unref)", err)
	}
	if n != 3 {
		t.Fatalf("replay accepted %d records before refusing, want 3", n)
	}
}

// A v2 global relocate replays through Replace: every referrer of the
// old slot — home range and dedup'd foreign runs alike — moves to the
// new placement in one record.
func TestJournalReplayGlobalRelocate(t *testing.T) {
	var j Journal
	old := dedupTestExtent(0, 4096)
	moved := dedupTestExtent(0, 1<<18)
	moved.Tag = compress.TagGZ
	j.Append(old)
	j.AppendRef(16*BlockSize, old.OrigLen, old)
	j.AppendRelocate(old, moved, true)
	m := NewMapping(64*BlockSize, NewAllocator(1<<20), nil)
	n, err := ReplayJournal(m, j.Bytes())
	if err != nil || n != 3 {
		t.Fatalf("ReplayJournal = (%d, %v)", n, err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	home, foreign := m.Lookup(0), m.Lookup(16*BlockSize)
	if home == nil || home != foreign || home.DevOff != moved.DevOff || home.Tag != compress.TagGZ {
		t.Fatalf("post-relocate home=%+v foreign=%+v, want both on the moved placement", home, foreign)
	}
	if !home.shared || home.Live() != 8 {
		t.Fatalf("shared=%v live=%d, want shared extent with 8 blocks", home.shared, home.Live())
	}
}

func TestInsertRefSharing(t *testing.T) {
	m, alloc, _ := newTestMapping(1 << 20)
	e := mkExtent(t, m, alloc, 0, 4*BlockSize, compress.TagLZF)

	// Size mismatch and dead targets are refused.
	if err := m.InsertRef(16*BlockSize, 8*BlockSize, e); err == nil {
		t.Fatal("size-mismatched ref should fail")
	}
	dead := &Extent{Offset: 8 * BlockSize, OrigLen: 4 * BlockSize, CompLen: 1, SlotLen: 4096}
	if err := m.InsertRef(16*BlockSize, 4*BlockSize, dead); err == nil {
		t.Fatal("ref against dead extent should fail")
	}

	// A self-ref (rewriting identical content in place) is a no-op.
	if err := m.InsertRef(0, 4*BlockSize, e); err != nil {
		t.Fatal(err)
	}
	if e.shared || e.Live() != 4 {
		t.Fatalf("after self-ref: shared=%v live=%d, want unshared 4", e.shared, e.Live())
	}

	// A foreign ref doubles the references and marks the extent shared.
	if err := m.InsertRef(16*BlockSize, 4*BlockSize, e); err != nil {
		t.Fatal(err)
	}
	if !e.shared || e.Live() != 8 || m.LiveBlocks() != 8 || m.Extents() != 1 {
		t.Fatalf("after foreign ref: shared=%v live=%d liveBlocks=%d extents=%d",
			e.shared, e.Live(), m.LiveBlocks(), m.Extents())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Overwriting the home range keeps the extent alive through the
	// foreign run; overwriting that too releases the slot.
	mkExtent(t, m, alloc, 0, 4*BlockSize, compress.TagGZ)
	if e.Live() != 4 {
		t.Fatalf("after home overwrite: live=%d, want 4 foreign blocks", e.Live())
	}
	freedBefore := alloc.InUse()
	mkExtent(t, m, alloc, 16*BlockSize, 4*BlockSize, compress.TagGZ)
	if e.Live() != 0 {
		t.Fatalf("after foreign overwrite: live=%d, want 0", e.Live())
	}
	if alloc.InUse() >= freedBefore+e.SlotLen {
		t.Fatalf("slot not freed on last unref: in-use %d -> %d", freedBefore, alloc.InUse())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Replace follows a shared extent's foreign referrers across the table
// (ReplaceAll is the same call under its old name); the refusal of a
// home-range-only move lives where it can still happen, in the replay of
// a v1 relocate record.
func TestReplaceAllMovesForeignReferrers(t *testing.T) {
	m, alloc, _ := newTestMapping(1 << 20)
	e := mkExtent(t, m, alloc, 0, 4*BlockSize, compress.TagLZF)
	if err := m.InsertRef(16*BlockSize, 4*BlockSize, e); err != nil {
		t.Fatal(err)
	}
	repl := &Extent{Offset: 0, OrigLen: 4 * BlockSize, CompLen: 3000, SlotLen: 4096, Tag: compress.TagGZ, Version: e.Version}
	devOff, err := alloc.Alloc(repl.SlotLen)
	if err != nil {
		t.Fatal(err)
	}
	repl.DevOff = devOff
	var j Journal
	j.AppendRelocate(e, repl, false)
	if _, err := ReplayJournal(m, j.Bytes()); err == nil || !strings.Contains(err.Error(), "shared") {
		t.Fatalf("v1 relocate replayed onto a shared extent: err = %v, want refusal", err)
	}
	if m.Lookup(0) != e || m.Lookup(16*BlockSize) != e {
		t.Fatal("refused v1 relocate moved a referrer")
	}
	if err := m.ReplaceAll(e, repl); err != nil {
		t.Fatal(err)
	}
	if m.Lookup(0) != repl || m.Lookup(16*BlockSize) != repl {
		t.Fatal("ReplaceAll left a referrer on the old extent")
	}
	if !repl.shared || repl.Live() != 8 || e.Live() != 0 {
		t.Fatalf("post-ReplaceAll: repl shared=%v live=%d, old live=%d", repl.shared, repl.Live(), e.Live())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// The refcount cross-check behind edcfsck: CheckInvariants recounts the
// table, so an extent whose stored refcount disagrees — or an unshared
// extent with more references than home blocks — fails.
func TestCheckInvariantsRefcountMismatch(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(m *Mapping, e *Extent)
		want    string
	}{
		{"inflated refcount", func(m *Mapping, e *Extent) { e.live++ }, "recount"},
		{"deflated refcount", func(m *Mapping, e *Extent) { e.live-- }, "recount"},
		{"shared flag lost", func(m *Mapping, e *Extent) { e.shared = false }, "exceeds blocks"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, alloc, _ := newTestMapping(1 << 20)
			e := mkExtent(t, m, alloc, 0, 4*BlockSize, compress.TagLZF)
			if err := m.InsertRef(16*BlockSize, 4*BlockSize, e); err != nil {
				t.Fatal(err)
			}
			if err := m.CheckInvariants(); err != nil {
				t.Fatalf("healthy mapping failed: %v", err)
			}
			tc.corrupt(m, e)
			err := m.CheckInvariants()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("corrupted mapping: err = %v, want %q", err, tc.want)
			}
		})
	}
}

// A snapshot of a mapping with foreign refs round-trips: shared flags,
// refcounts and dead-space accounting all survive.
func TestSnapshotDedupRoundTrip(t *testing.T) {
	m, alloc, _ := newTestMapping(1 << 20)
	e := mkExtent(t, m, alloc, 0, 4*BlockSize, compress.TagLZF)
	mkExtent(t, m, alloc, 32*BlockSize, 8*BlockSize, compress.TagGZ)
	if err := m.InsertRef(16*BlockSize, 4*BlockSize, e); err != nil {
		t.Fatal(err)
	}
	// Kill e's home range: it stays alive purely through the foreign run,
	// the state only a v2 snapshot can encode.
	mkExtent(t, m, alloc, 0, 4*BlockSize, compress.TagNone)

	var buf bytes.Buffer
	if err := m.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if v := buf.Bytes()[4]; v != 2 {
		t.Fatalf("snapshot version = %d, want 2 when foreign refs exist", v)
	}
	alloc2 := NewAllocator(2 << 20)
	m2, err := LoadSnapshot(bytes.NewReader(buf.Bytes()), alloc2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if m2.LiveBlocks() != m.LiveBlocks() || m2.Extents() != m.Extents() {
		t.Fatalf("reloaded %d blocks in %d extents, want %d in %d",
			m2.LiveBlocks(), m2.Extents(), m.LiveBlocks(), m.Extents())
	}
	got := m2.Lookup(16 * BlockSize)
	if got == nil || got.DevOff != e.DevOff || !got.shared || got.Live() != 4 {
		t.Fatalf("reloaded foreign run = %+v, want shared extent at slot %d with 4 refs", got, e.DevOff)
	}
	if m2.DeadSlotBytes() != m.DeadSlotBytes() {
		t.Fatalf("dead space %d, want %d", m2.DeadSlotBytes(), m.DeadSlotBytes())
	}
	if alloc2.InUse() != alloc.InUse() {
		t.Fatalf("allocator in-use %d, want %d", alloc2.InUse(), alloc.InUse())
	}
}

// Without foreign refs the snapshot stays version 1 — byte-compatible
// with every pre-dedup reader.
func TestSnapshotStaysV1WithoutRefs(t *testing.T) {
	m, alloc, _ := newTestMapping(1 << 20)
	e := mkExtent(t, m, alloc, 0, 4*BlockSize, compress.TagLZF)
	// A self-ref does not force v2: nothing maps outside a home range.
	if err := m.InsertRef(0, 4*BlockSize, e); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if v := buf.Bytes()[4]; v != 1 {
		t.Fatalf("snapshot version = %d, want 1 without foreign refs", v)
	}
	if _, err := LoadSnapshot(bytes.NewReader(buf.Bytes()), NewAllocator(2<<20), nil); err != nil {
		t.Fatal(err)
	}
}

// Corrupt refs sections must be refused field by field.
func TestSnapshotDedupCorruptRefs(t *testing.T) {
	m, alloc, _ := newTestMapping(1 << 20)
	e := mkExtent(t, m, alloc, 0, 4*BlockSize, compress.TagLZF)
	if err := m.InsertRef(16*BlockSize, 4*BlockSize, e); err != nil {
		t.Fatal(err)
	}
	// Punch a hole in the home range so one home block is unmapped: the
	// "inside home range" check only fires on bitmap holes (a mapped
	// home block trips the overlap check first).
	if err := m.Trim(BlockSize, BlockSize); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	// The refs section sits between the extent list and the CRC trailer:
	// count u32, then per ref block u64 | extent-index u32.
	refsOff := len(img) - 4 /*crc*/ - 4 /*count*/ - 4*(8+4)
	if binary.LittleEndian.Uint32(img[refsOff:]) != 4 {
		t.Fatalf("test offsets drifted: refs count = %d at %d, want 4",
			binary.LittleEndian.Uint32(img[refsOff:]), refsOff)
	}
	corrupt := func(mutate func(b []byte)) []byte {
		c := append([]byte(nil), img...)
		mutate(c)
		binary.LittleEndian.PutUint32(c[len(c)-4:], crc32.ChecksumIEEE(c[:len(c)-4]))
		return c
	}
	cases := []struct {
		name string
		img  []byte
		want string
	}{
		{"extent index out of range", corrupt(func(b []byte) {
			binary.LittleEndian.PutUint32(b[refsOff+4+8:], 99)
		}), "out of range"},
		{"ref inside home range", corrupt(func(b []byte) {
			binary.LittleEndian.PutUint64(b[refsOff+4:], 1) // block 1 is in e's home range
		}), "inside home range"},
		{"ref overlaps mapped block", corrupt(func(b []byte) {
			// Point two refs at the same foreign block.
			blk := binary.LittleEndian.Uint64(b[refsOff+4:])
			binary.LittleEndian.PutUint64(b[refsOff+4+12:], blk)
		}), "overlaps"},
		{"ref out of volume", corrupt(func(b []byte) {
			binary.LittleEndian.PutUint64(b[refsOff+4:], 1<<40)
		}), "out of volume"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := LoadSnapshot(bytes.NewReader(tc.img), NewAllocator(2<<20), nil)
			if !errors.Is(err, ErrBadSnapshot) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want ErrBadSnapshot (%s)", err, tc.want)
			}
		})
	}
	// Control: the uncorrupted image still loads.
	if _, err := LoadSnapshot(bytes.NewReader(img), NewAllocator(2<<20), nil); err != nil {
		t.Fatal(err)
	}
}

// Crash recovery with dedup on: the journal replays refs and verifies
// unrefs, RecoverDevice rebuilds the content index from the recovered
// table, and the resumed replay keeps deduplicating against pre-crash
// extents — with every read verified against regenerated content.
func TestPlayUntilRecoverDedup(t *testing.T) {
	const cut = 400 * time.Millisecond
	tr := seqTrace(600, 2*time.Millisecond)
	prof := datagen.Enterprise().WithDup(0.5, 4)
	opts := func() Options {
		return Options{
			Policy:      Native(),
			Data:        datagen.New(prof, 11),
			VerifyReads: true,
			Dedup:       &dedup.Config{},
		}
	}

	eng1, be1 := freshSSDRig(t)
	o := opts()
	dev1, err := NewDevice(eng1, be1, 256<<20, o)
	if err != nil {
		t.Fatal(err)
	}
	st1, cs, err := dev1.PlayUntil(tr, cut)
	if err != nil {
		t.Fatal(err)
	}
	if st1.DedupHits == 0 {
		t.Fatal("duplicate-heavy profile produced no dedup hits before the cut")
	}

	eng2, be2 := freshSSDRig(t)
	o2 := opts()
	dev2, err := RecoverDevice(eng2, be2, 256<<20, o2, cs)
	if err != nil {
		t.Fatal(err)
	}
	// The refcount cross-check a post-recovery fsck would run.
	if err := dev2.se.mapping.CheckInvariants(); err != nil {
		t.Fatalf("recovered mapping inconsistent: %v", err)
	}
	rest := &trace.Trace{Name: tr.Name}
	for _, r := range tr.Requests {
		if r.Arrival > cut {
			rest.Requests = append(rest.Requests, r)
		}
	}
	st2, err := dev2.Play(rest)
	if err != nil {
		t.Fatal(err)
	}
	if st2.DedupHits == 0 {
		t.Fatal("content index not rebuilt: no dedup hits after recovery")
	}
	if err := dev2.se.mapping.CheckInvariants(); err != nil {
		t.Fatalf("post-resume mapping inconsistent: %v", err)
	}
	total := st1.Resp.Count() + cs.Lost + st2.Resp.Count()
	if total != int64(len(tr.Requests)) {
		t.Fatalf("completed(%d) + lost(%d) + resumed(%d) = %d, want %d",
			st1.Resp.Count(), cs.Lost, st2.Resp.Count(), total, len(tr.Requests))
	}
}

// A recovered device must keep deferring frees: adoptMapping carries
// the dedup free policy onto the rebuilt table, so post-recovery
// overwrites journal unref records at their durable points (inline
// frees journal nothing, and would free slots before the causing
// record's durable point). Crash → recover → crash → recover: the
// second recovery replays the first recovery's journal, which is only
// well-formed if the ordering held.
func TestRecoveredMappingDefersFrees(t *testing.T) {
	const cut1 = 300 * time.Millisecond
	const cut2 = 800 * time.Millisecond
	tr := seqTrace(600, 2*time.Millisecond)
	prof := datagen.Enterprise().WithDup(0.5, 4)
	opts := func() Options {
		return Options{
			Policy:      Native(),
			Data:        datagen.New(prof, 11),
			VerifyReads: true,
			Dedup:       &dedup.Config{},
		}
	}
	slice := func(from, to time.Duration) *trace.Trace {
		s := &trace.Trace{Name: tr.Name}
		for _, r := range tr.Requests {
			if r.Arrival > from && (to == 0 || r.Arrival <= to) {
				s.Requests = append(s.Requests, r)
			}
		}
		return s
	}

	eng1, be1 := freshSSDRig(t)
	dev1, err := NewDevice(eng1, be1, 256<<20, opts())
	if err != nil {
		t.Fatal(err)
	}
	_, cs1, err := dev1.PlayUntil(tr, cut1)
	if err != nil {
		t.Fatal(err)
	}

	eng2, be2 := freshSSDRig(t)
	dev2, err := RecoverDevice(eng2, be2, 256<<20, opts(), cs1)
	if err != nil {
		t.Fatal(err)
	}
	if !dev2.se.mapping.deferFrees {
		t.Fatal("recovered mapping does not defer frees with dedup enabled")
	}
	_, cs2, err := dev2.PlayUntil(slice(cut1, 0), cut2)
	if err != nil {
		t.Fatal(err)
	}
	var unrefs int
	for _, rec := range mustDecode(t, cs2.Journal) {
		if rec.Unref {
			unrefs++
		}
	}
	if unrefs == 0 {
		t.Fatal("post-recovery journal has no unref records: releases bypassed the dying batch")
	}

	eng3, be3 := freshSSDRig(t)
	dev3, err := RecoverDevice(eng3, be3, 256<<20, opts(), cs2)
	if err != nil {
		t.Fatalf("second recovery failed: %v", err)
	}
	if err := dev3.se.mapping.CheckInvariants(); err != nil {
		t.Fatalf("twice-recovered mapping inconsistent: %v", err)
	}
	if _, err := dev3.Play(slice(cut2, 0)); err != nil {
		t.Fatal(err)
	}
	if err := dev3.se.mapping.CheckInvariants(); err != nil {
		t.Fatalf("post-resume mapping inconsistent: %v", err)
	}
}

// The shared flag tracks current foreign references exactly: when the
// last foreign block is unmapped the extent reverts to home-range
// semantics — dead-space accounting resumes — so the in-memory state
// matches what a snapshot round-trip reconstructs.
func TestSharedClearsOnLastForeignUnref(t *testing.T) {
	m, alloc, _ := newTestMapping(1 << 20)
	e := mkExtent(t, m, alloc, 0, 4*BlockSize, compress.TagLZF)
	if err := m.InsertRef(16*BlockSize, 4*BlockSize, e); err != nil {
		t.Fatal(err)
	}
	// Kill one home block: shared extents stay out of the dead-space
	// gauge.
	mkExtent(t, m, alloc, 0, BlockSize, compress.TagNone)
	if !e.shared || e.Live() != 7 || m.DeadSlotBytes() != 0 {
		t.Fatalf("shared=%v live=%d dead=%d, want shared 7-ref extent with no dead space",
			e.shared, e.Live(), m.DeadSlotBytes())
	}
	// Drop the foreign run: the extent is plain again, and its partially
	// dead slot re-enters the gauge.
	if err := m.Trim(16*BlockSize, 4*BlockSize); err != nil {
		t.Fatal(err)
	}
	if e.shared || e.Live() != 3 || m.DeadSlotBytes() != e.SlotLen {
		t.Fatalf("shared=%v live=%d dead=%d, want unshared extent pinning %d dead bytes",
			e.shared, e.Live(), m.DeadSlotBytes(), e.SlotLen)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// A snapshot round-trip is now the identity: no foreign refs means
	// version 1, and the reload agrees on liveness and dead space.
	var buf bytes.Buffer
	if err := m.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if v := buf.Bytes()[4]; v != 1 {
		t.Fatalf("snapshot version = %d, want 1 after last foreign unref", v)
	}
	m2, err := LoadSnapshot(bytes.NewReader(buf.Bytes()), NewAllocator(2<<20), nil)
	if err != nil {
		t.Fatal(err)
	}
	if m2.DeadSlotBytes() != m.DeadSlotBytes() || m2.LiveBlocks() != m.LiveBlocks() {
		t.Fatalf("reload dead=%d live=%d, want %d/%d",
			m2.DeadSlotBytes(), m2.LiveBlocks(), m.DeadSlotBytes(), m.LiveBlocks())
	}
}

// abandonDying is the terminal-failure path: the dying batch's slots
// are returned to the allocator and the engine drops its bookkeeping,
// but nothing is journaled — the record that dropped the references
// never became durable.
func TestAbandonDyingFreesWithoutJournal(t *testing.T) {
	rig := newTestRig(t, Options{Policy: Native(), Dedup: &dedup.Config{}})
	se, wp := rig.dev.se, rig.dev.wp
	jnl := &Journal{}
	wp.jnl = jnl
	e := mkExtent(t, se.mapping, se.alloc, 0, 4*BlockSize, compress.TagLZF)
	e.sum, e.hasSum = dedup.HashSum(se.dedupKey, []byte("x")), true
	se.dedupRegister(e)
	mkExtent(t, se.mapping, se.alloc, 0, 4*BlockSize, compress.TagGZ)
	dying := se.mapping.takeDying()
	if len(dying) != 1 || dying[0] != e {
		t.Fatalf("dying batch = %v, want [e]", dying)
	}
	before := se.alloc.InUse()
	wp.abandonDying(dying)
	if got := se.alloc.InUse(); got != before-e.SlotLen {
		t.Fatalf("in-use %d -> %d, want slot of %d bytes freed", before, got, e.SlotLen)
	}
	if jnl.Records() != 0 {
		t.Fatalf("abandonDying journaled %d records, want none", jnl.Records())
	}
	if se.dedup[e.sum] == e {
		t.Fatal("abandoned extent still in the content index")
	}
}

// With dedup off, the journal holds no v2 records: the format only
// grows when used.
func TestJournalUnchangedWithoutDedup(t *testing.T) {
	rig := newTestRig(t, Options{Policy: Native()})
	_, cs, err := rig.dev.PlayUntil(seqTrace(300, time.Millisecond), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range mustDecode(t, cs.Journal) {
		if rec.Ref || rec.Unref {
			t.Fatal("dedup-off journal contains v2 records")
		}
	}
}

// mustDecode decodes a journal image or fails the test.
func mustDecode(t *testing.T, img []byte) []JournalRec {
	t.Helper()
	recs, err := DecodeJournal(img)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// Deferred frees batch dying extents for the caller's durable point
// instead of freeing inline — the journal-ordering half of dedup.
func TestDeferredFreesBatchDying(t *testing.T) {
	m, alloc, freed := newTestMapping(1 << 20)
	m.deferFrees = true
	e1 := mkExtent(t, m, alloc, 0, 4*BlockSize, compress.TagLZF)
	if d := m.takeDying(); len(d) != 0 {
		t.Fatalf("insert produced %d dying extents, want 0", len(d))
	}
	mkExtent(t, m, alloc, 0, 4*BlockSize, compress.TagGZ)
	if len(*freed) != 0 {
		t.Fatalf("deferFrees leaked %d inline frees", len(*freed))
	}
	d := m.takeDying()
	if len(d) != 1 || d[0] != e1 {
		t.Fatalf("dying batch = %v, want [e1]", d)
	}
	if d2 := m.takeDying(); len(d2) != 0 {
		t.Fatalf("takeDying not drained: %d extents", len(d2))
	}
}

// Dedup with checkpoints on a write-heavy Fin1 trace whose payloads are
// half clones: a dedup hit's ref and an overwritten extent's unref land
// while the insert mapped before them still waits for its device write.
// The journal must list them in the mapping's order, or a checkpoint's
// replay gives blocks to the wrong extent and fails the run. After a
// clean run, recovery from the last snapshot plus the journal must map
// every block to the extent the live mapping holds.
func TestDedupSnapshotJournalOrder(t *testing.T) {
	const vol = 64 << 20
	tr, err := workload.Fin1(vol).GenerateN(3000, 7)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	d, err := ssd.New(ssd.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	dev, err := NewDevice(eng, NewSSDBackend(eng, d), vol, Options{
		Data:          datagen.New(datagen.Enterprise().WithDup(0.5, 8), 7),
		Dedup:         &dedup.Config{},
		SnapshotEvery: tr.Duration() / 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := dev.Play(tr)
	if err != nil {
		t.Fatal(err)
	}
	if st.DedupHits == 0 || st.DedupUnrefs == 0 {
		t.Fatalf("%d dedup hits, %d unrefs: the run exercises nothing", st.DedupHits, st.DedupUnrefs)
	}
	m, _, err := recoverShadow(dev.per.snapshot, dev.per.jnl.Bytes(), dev.se.alloc.Capacity())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	live := dev.se.mapping
	for b, e := range live.table {
		r := m.table[b]
		if (e == nil) != (r == nil) || e != nil &&
			(e.Offset != r.Offset || e.OrigLen != r.OrigLen || e.DevOff != r.DevOff ||
				e.SlotLen != r.SlotLen || e.CompLen != r.CompLen || e.Tag != r.Tag || e.Version != r.Version) {
			t.Fatalf("block %d: recovered %+v, live %+v", b, r, e)
		}
	}
}
