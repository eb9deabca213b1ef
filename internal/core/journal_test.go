package core

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"edc/internal/compress"
)

// jnlTestExtents returns a few valid extents with distinct field values.
func jnlTestExtents() []*Extent {
	return []*Extent{
		{Offset: 0, OrigLen: 4 * BlockSize, CompLen: 5000, SlotLen: 8192, Tag: compress.TagLZF, Version: 1, DevOff: 0},
		{Offset: 16 * BlockSize, OrigLen: 2 * BlockSize, CompLen: 8192, SlotLen: 8192, Tag: compress.TagNone, Version: 2, DevOff: 8192},
		{Offset: 4 * BlockSize, OrigLen: 8 * BlockSize, CompLen: 9000, SlotLen: 12288, Tag: compress.TagGZ, Version: 7, DevOff: 16384},
	}
}

func TestJournalRoundTrip(t *testing.T) {
	var j Journal
	want := jnlTestExtents()
	for _, e := range want {
		j.Append(e)
	}
	if j.Records() != len(want) {
		t.Fatalf("records = %d, want %d", j.Records(), len(want))
	}
	got, err := DecodeJournal(j.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i, e := range want {
		if got[i].Relocate {
			t.Fatalf("record %d decoded as relocate", i)
		}
		g := got[i].Ext
		if g.Offset != e.Offset || g.OrigLen != e.OrigLen || g.CompLen != e.CompLen ||
			g.SlotLen != e.SlotLen || g.Tag != e.Tag || g.Version != e.Version || g.DevOff != e.DevOff {
			t.Fatalf("record %d: got %+v, want %+v", i, g, e)
		}
	}
}

func TestJournalTornTail(t *testing.T) {
	var j Journal
	for _, e := range jnlTestExtents() {
		j.Append(e)
	}
	// Tear the final append mid-record: expected crash damage.
	torn := j.Bytes()[:len(j.Bytes())-17]
	got, err := DecodeJournal(torn)
	if err != nil {
		t.Fatalf("torn tail must be tolerated: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("decoded %d records, want 2 (torn third dropped)", len(got))
	}
	records, tornFlag, err := CheckJournal(torn)
	if err != nil || records != 2 || !tornFlag {
		t.Fatalf("CheckJournal = (%d, %v, %v), want (2, true, nil)", records, tornFlag, err)
	}
	if _, tornFlag, _ = CheckJournal(j.Bytes()); tornFlag {
		t.Fatal("intact journal reported as torn")
	}
}

func TestJournalCRCCorruption(t *testing.T) {
	var j Journal
	for _, e := range jnlTestExtents() {
		j.Append(e)
	}
	img := append([]byte(nil), j.Bytes()...)
	img[jnlRecordSize+12] ^= 0xff // flip a byte inside record 1
	if _, err := DecodeJournal(img); !errors.Is(err, ErrBadJournal) {
		t.Fatalf("corrupted record: err = %v, want ErrBadJournal", err)
	}
}

func TestJournalBadMagic(t *testing.T) {
	var j Journal
	j.Append(jnlTestExtents()[0])
	img := append([]byte(nil), j.Bytes()...)
	img[0] = 'X'
	if _, err := DecodeJournal(img); !errors.Is(err, ErrBadJournal) {
		t.Fatalf("bad magic: err = %v, want ErrBadJournal", err)
	}
}

func TestJournalSequenceBreak(t *testing.T) {
	var j Journal
	for _, e := range jnlTestExtents() {
		j.Append(e)
	}
	img := append([]byte(nil), j.Bytes()...)
	// Rewrite record 1's sequence number and re-seal its CRC, so only
	// the sequence check can catch the gap.
	rec := img[jnlRecordSize : 2*jnlRecordSize]
	binary.LittleEndian.PutUint64(rec[2:], 99)
	binary.LittleEndian.PutUint32(rec[jnlCRCOffset:], crc32.ChecksumIEEE(rec[:jnlCRCOffset]))
	if _, err := DecodeJournal(img); !errors.Is(err, ErrBadJournal) {
		t.Fatalf("sequence break: err = %v, want ErrBadJournal", err)
	}
}

func TestJournalResetContinuesSequence(t *testing.T) {
	var j Journal
	exts := jnlTestExtents()
	j.Append(exts[0])
	j.Append(exts[1])
	j.Reset()
	if j.Records() != 0 || len(j.Bytes()) != 0 {
		t.Fatalf("after Reset: records = %d, bytes = %d", j.Records(), len(j.Bytes()))
	}
	j.Append(exts[2])
	// Sequence numbering must continue across the checkpoint boundary.
	if seq := binary.LittleEndian.Uint64(j.Bytes()[2:]); seq != 2 {
		t.Fatalf("post-reset seq = %d, want 2", seq)
	}
	// The post-reset image decodes on its own (recovery baselines on the
	// first record's sequence number).
	got, err := DecodeJournal(j.Bytes())
	if err != nil || len(got) != 1 {
		t.Fatalf("post-reset decode = (%d, %v)", len(got), err)
	}
}

func TestJournalRelocateRoundTrip(t *testing.T) {
	var j Journal
	old := &Extent{Offset: 0, OrigLen: 4 * BlockSize, CompLen: 9000, SlotLen: 12288, Tag: compress.TagLZF, Version: 3, DevOff: 4096}
	repl := &Extent{Offset: 0, OrigLen: 4 * BlockSize, CompLen: 3000, SlotLen: 4096, Tag: compress.TagGZ, Version: 3, DevOff: 65536}
	j.Append(old)
	j.AppendRelocate(old, repl, false)
	if j.Records() != 2 || j.Relocations() != 1 {
		t.Fatalf("records = %d, relocations = %d, want 2, 1", j.Records(), j.Relocations())
	}
	got, err := DecodeJournal(j.Bytes())
	if err != nil || len(got) != 2 {
		t.Fatalf("decode = (%d, %v)", len(got), err)
	}
	r := got[1]
	if !r.Relocate || r.OldDevOff != old.DevOff || r.OldSlotLen != old.SlotLen {
		t.Fatalf("relocate record = %+v", r)
	}
	if e := r.Ext; e.Tag != repl.Tag || e.CompLen != repl.CompLen || e.SlotLen != repl.SlotLen ||
		e.DevOff != repl.DevOff || e.Version != repl.Version {
		t.Fatalf("relocated extent = %+v, want %+v", r.Ext, repl)
	}

	// A torn relocate append is expected crash damage.
	torn := j.Bytes()[:len(j.Bytes())-9]
	recs, err := DecodeJournal(torn)
	if err != nil || len(recs) != 1 {
		t.Fatalf("torn relocate decode = (%d, %v), want (1, nil)", len(recs), err)
	}
	n, tornFlag, err := CheckJournal(torn)
	if err != nil || n != 1 || !tornFlag {
		t.Fatalf("CheckJournal(torn relocate) = (%d, %v, %v)", n, tornFlag, err)
	}

	// An unknown relocate format version is corruption, not damage.
	img := append([]byte(nil), j.Bytes()...)
	img[jnlRecordSize+2] = 9 // version byte of the relocate record
	rec := img[jnlRecordSize:]
	binary.LittleEndian.PutUint32(rec[jnlRelocCRCOffset:], crc32.ChecksumIEEE(rec[:jnlRelocCRCOffset]))
	if _, err := DecodeJournal(img); !errors.Is(err, ErrBadJournal) {
		t.Fatalf("future relocate version: err = %v, want ErrBadJournal", err)
	}
}

func TestJournalReplayRelocate(t *testing.T) {
	var j Journal
	old := &Extent{Offset: 0, OrigLen: 4 * BlockSize, CompLen: 9000, SlotLen: 12288, Tag: compress.TagLZF, Version: 1, DevOff: 0}
	repl := &Extent{Offset: 0, OrigLen: 4 * BlockSize, CompLen: 3000, SlotLen: 4096, Tag: compress.TagGZ, Version: 1, DevOff: 32768}
	j.Append(old)
	j.AppendRelocate(old, repl, false)
	alloc := NewAllocator(1 << 20)
	m := NewMapping(64*BlockSize, alloc, nil)
	n, err := ReplayJournal(m, j.Bytes())
	if err != nil || n != 2 {
		t.Fatalf("ReplayJournal = (%d, %v)", n, err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := m.Lookup(0); got == nil || got.DevOff != repl.DevOff || got.Tag != compress.TagGZ {
		t.Fatalf("post-replay extent = %+v, want relocated placement", got)
	}
	if m.LiveBlocks() != 4 || m.Extents() != 1 {
		t.Fatalf("live = %d blocks in %d extents, want 4 in 1", m.LiveBlocks(), m.Extents())
	}
}

// A relocate whose old placement is not mapped (already freed by an
// earlier record, or plain missing) must be refused, never
// double-freed.
func TestJournalReplayRelocateDoubleFree(t *testing.T) {
	build := func() ([]byte, *Extent) {
		var j Journal
		old := &Extent{Offset: 0, OrigLen: 4 * BlockSize, CompLen: 9000, SlotLen: 12288, Tag: compress.TagLZF, Version: 1, DevOff: 0}
		repl := &Extent{Offset: 0, OrigLen: 4 * BlockSize, CompLen: 3000, SlotLen: 4096, Tag: compress.TagGZ, Version: 1, DevOff: 32768}
		j.Append(old)
		j.AppendRelocate(old, repl, false)
		j.AppendRelocate(old, repl, false) // second free of the same slot
		return j.Bytes(), old
	}
	img, _ := build()
	alloc := NewAllocator(1 << 20)
	m := NewMapping(64*BlockSize, alloc, nil)
	n, err := ReplayJournal(m, img)
	if !errors.Is(err, ErrBadJournal) {
		t.Fatalf("double-free replay: err = %v, want ErrBadJournal", err)
	}
	if n != 2 {
		t.Fatalf("replay applied %d records before refusing, want 2", n)
	}
	// Relocate of a never-inserted run is refused too.
	var j2 Journal
	j2.AppendRelocate(
		&Extent{Offset: 8 * BlockSize, OrigLen: 4 * BlockSize, CompLen: 9000, SlotLen: 12288, Tag: compress.TagLZF, Version: 1, DevOff: 4096},
		&Extent{Offset: 8 * BlockSize, OrigLen: 4 * BlockSize, CompLen: 3000, SlotLen: 4096, Tag: compress.TagGZ, Version: 1, DevOff: 65536}, false)
	m2 := NewMapping(64*BlockSize, NewAllocator(1<<20), nil)
	if _, err := ReplayJournal(m2, j2.Bytes()); !errors.Is(err, ErrBadJournal) {
		t.Fatalf("unmapped relocate replay: err = %v, want ErrBadJournal", err)
	}
}

func TestJournalReplay(t *testing.T) {
	var j Journal
	// Two versions of the same logical range: replay must apply them in
	// append order so the overwrite wins.
	j.Append(&Extent{Offset: 0, OrigLen: 4 * BlockSize, CompLen: 5000, SlotLen: 8192, Tag: compress.TagLZF, Version: 1, DevOff: 0})
	j.Append(&Extent{Offset: 0, OrigLen: 4 * BlockSize, CompLen: 6000, SlotLen: 8192, Tag: compress.TagGZ, Version: 2, DevOff: 8192})
	alloc := NewAllocator(1 << 20)
	m := NewMapping(64*BlockSize, alloc, nil)
	n, err := ReplayJournal(m, j.Bytes())
	if err != nil || n != 2 {
		t.Fatalf("ReplayJournal = (%d, %v)", n, err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if m.LiveBlocks() != 4 || m.Extents() != 1 {
		t.Fatalf("live = %d blocks in %d extents, want 4 in 1", m.LiveBlocks(), m.Extents())
	}
}
