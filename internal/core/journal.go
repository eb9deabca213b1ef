package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"edc/internal/compress"
)

// Mapping journal
//
// The snapshot (persist.go) captures the whole table at a checkpoint; a
// production EDC cannot afford one per write. Between checkpoints every
// completed device write appends one fixed-size record to this
// append-only journal, making the write's mapping durable at the moment
// its data is. Crash recovery replays the journal over the last
// snapshot (RecoverMapping, recovery.go).
//
// The format is versioned by record magic. An insert record is the
// original (PR 4) layout, unchanged byte for byte so pre-maintenance
// journal artifacts still recover:
//
//	insert: magic "EJ" | seq u64 | offset u64 | origLen u32 |
//	        compLen u32 | slotLen u32 | tag u8 | version u32 |
//	        devOff u64 | CRC32 (IEEE) of the preceding bytes
//
// Background maintenance appends a relocate record when it rewrites a
// stored extent into a new slot; it carries an explicit format-version
// byte after the magic plus the old placement being freed:
//
//	relocate: magic "ER" | ver u8 (=1) | seq u64 | oldDevOff u64 |
//	          oldSlotLen u32 | offset u64 | origLen u32 | compLen u32 |
//	          slotLen u32 | tag u8 | version u32 | devOff u64 | CRC32
//
// Content-addressed dedup (PR 8) adds the v2 record family. A ref
// record makes a dedup hit durable — a run of LBAs now references an
// extent stored elsewhere, identified by its logical run and device
// slot. An unref record witnesses the deferred release of a slot whose
// last reference was dropped by a preceding insert/ref/relocate; replay
// verifies it against the reconstructed mapping rather than applying it
// (the release is implied by the record that dropped the reference):
//
//	ref:   magic "ED" | ver u8 (=2) | seq u64 | offset u64 |
//	       origLen u32 | targetOff u64 | targetDevOff u64 | CRC32
//	unref: magic "EU" | ver u8 (=2) | seq u64 | offset u64 |
//	       origLen u32 | devOff u64 | slotLen u32 | CRC32
//
// A relocate of a dedup-shared extent must move every referring block,
// wherever it is mapped; such relocations are appended with version
// byte 2 in the same 60-byte "ER" layout, telling replay to resolve the
// old placement by device slot and follow its references across the
// whole table instead of just the home range.
//
// Insert records are 47 bytes, relocate records 60, ref 43, unref 39,
// all little-endian, sharing one consecutive sequence-number space. A
// crash can tear the final append: a short trailing record is expected
// damage and is dropped; a CRC, magic, or sequence violation anywhere
// else is corruption. Journals written before dedup existed contain
// only v0/v1 records and replay byte-for-byte as before.

const (
	jnlMagic      = "EJ"
	jnlRecordSize = 47
	jnlCRCOffset  = jnlRecordSize - 4

	jnlRelocMagic      = "ER"
	jnlRelocVersion    = 1
	jnlRelocRecordSize = 60
	jnlRelocCRCOffset  = jnlRelocRecordSize - 4

	// jnlV2 is the format-version byte shared by the dedup-era records:
	// ref, unref, and whole-table relocate.
	jnlV2 = 2

	jnlRefMagic      = "ED"
	jnlRefRecordSize = 43
	jnlRefCRCOffset  = jnlRefRecordSize - 4

	jnlUnrefMagic      = "EU"
	jnlUnrefRecordSize = 39
	jnlUnrefCRCOffset  = jnlUnrefRecordSize - 4
)

// ErrBadJournal reports a corrupt journal (failed CRC, bad magic, or a
// sequence break — anything beyond a torn final record).
var ErrBadJournal = errors.New("core: bad mapping journal")

// Journal accumulates fixed-size mapping records in an in-memory
// buffer (the simulated durable log). The zero value is ready to use.
type Journal struct {
	buf    []byte
	seq    uint64
	n      int
	nReloc int
	nRef   int
	nUnref int
}

// Append records that ext's device write completed (its durable point).
func (j *Journal) Append(e *Extent) {
	var rec [jnlRecordSize]byte
	copy(rec[0:2], jnlMagic)
	binary.LittleEndian.PutUint64(rec[2:], j.seq)
	putJnlExtent(rec[10:], e)
	j.seal(rec[:])
}

// AppendRelocate records that maintenance rewrote old's run into the
// already-written extent e, freeing old's slot. Appended only after
// e's device write completed, so replay order matches durability order.
// global selects the dedup-era v2 version byte on the same layout: the
// old placement may be referenced from outside its home range.
func (j *Journal) AppendRelocate(old, e *Extent, global bool) {
	var rec [jnlRelocRecordSize]byte
	copy(rec[0:2], jnlRelocMagic)
	rec[2] = jnlRelocVersion
	if global {
		rec[2] = jnlV2
	}
	binary.LittleEndian.PutUint64(rec[3:], j.seq)
	binary.LittleEndian.PutUint64(rec[11:], uint64(old.DevOff))
	binary.LittleEndian.PutUint32(rec[19:], uint32(old.SlotLen))
	putJnlExtent(rec[23:], e)
	j.seal(rec[:])
	j.nReloc++
}

// AppendRef records a dedup hit: the run [off, +size) now references
// the stored extent target. Appended at the hit's effect point — the
// remap is metadata-only, so it is durable immediately.
func (j *Journal) AppendRef(off, size int64, target *Extent) {
	var rec [jnlRefRecordSize]byte
	copy(rec[0:2], jnlRefMagic)
	rec[2] = jnlV2
	binary.LittleEndian.PutUint64(rec[3:], j.seq)
	binary.LittleEndian.PutUint64(rec[11:], uint64(off))
	binary.LittleEndian.PutUint32(rec[19:], uint32(size))
	binary.LittleEndian.PutUint64(rec[23:], uint64(target.Offset))
	binary.LittleEndian.PutUint64(rec[31:], uint64(target.DevOff))
	j.seal(rec[:])
	j.nRef++
}

// AppendUnref witnesses the release of e's slot after its last
// reference was dropped. The preceding record in the journal already
// implies the release; replay uses unref records to cross-check its
// reconstructed refcounts (a live slot being unreferenced, or the same
// slot unreferenced twice, is corruption).
func (j *Journal) AppendUnref(e *Extent) {
	var rec [jnlUnrefRecordSize]byte
	copy(rec[0:2], jnlUnrefMagic)
	rec[2] = jnlV2
	binary.LittleEndian.PutUint64(rec[3:], j.seq)
	binary.LittleEndian.PutUint64(rec[11:], uint64(e.Offset))
	binary.LittleEndian.PutUint32(rec[19:], uint32(e.OrigLen))
	binary.LittleEndian.PutUint64(rec[23:], uint64(e.DevOff))
	binary.LittleEndian.PutUint32(rec[31:], uint32(e.SlotLen))
	j.seal(rec[:])
	j.nUnref++
}

// seal checksums a filled record, appends it and advances the sequence.
func (j *Journal) seal(rec []byte) {
	body := len(rec) - 4
	binary.LittleEndian.PutUint32(rec[body:], crc32.ChecksumIEEE(rec[:body]))
	j.buf = append(j.buf, rec...)
	j.seq++
	j.n++
}

// putJnlExtent writes the shared 33-byte extent body (offset, lengths,
// tag, version, devOff) both record kinds carry.
func putJnlExtent(b []byte, e *Extent) {
	binary.LittleEndian.PutUint64(b[0:], uint64(e.Offset))
	binary.LittleEndian.PutUint32(b[8:], uint32(e.OrigLen))
	binary.LittleEndian.PutUint32(b[12:], uint32(e.CompLen))
	binary.LittleEndian.PutUint32(b[16:], uint32(e.SlotLen))
	b[20] = byte(e.Tag)
	binary.LittleEndian.PutUint32(b[21:], e.Version)
	binary.LittleEndian.PutUint64(b[25:], uint64(e.DevOff))
}

// getJnlExtent decodes the shared extent body written by putJnlExtent.
func getJnlExtent(b []byte) *Extent {
	return &Extent{
		Offset:  int64(binary.LittleEndian.Uint64(b[0:])),
		OrigLen: int64(binary.LittleEndian.Uint32(b[8:])),
		CompLen: int64(binary.LittleEndian.Uint32(b[12:])),
		SlotLen: int64(binary.LittleEndian.Uint32(b[16:])),
		Tag:     compress.Tag(b[20]),
		Version: binary.LittleEndian.Uint32(b[21:]),
		DevOff:  int64(binary.LittleEndian.Uint64(b[25:])),
	}
}

// Bytes returns the journal contents (not a copy: snapshot it before
// mutating the journal further).
func (j *Journal) Bytes() []byte { return j.buf }

// Records returns the number of appended records since the last Reset.
func (j *Journal) Records() int { return j.n }

// Relocations returns how many of the appended records are relocates.
func (j *Journal) Relocations() int { return j.nReloc }

// Refs returns how many of the appended records are dedup refs.
func (j *Journal) Refs() int { return j.nRef }

// Unrefs returns how many of the appended records are slot unrefs.
func (j *Journal) Unrefs() int { return j.nUnref }

// Reset empties the journal after a checkpoint folded its records into
// the snapshot. Sequence numbering continues, so a recovery spanning a
// checkpoint boundary cannot silently mix epochs.
func (j *Journal) Reset() {
	j.buf = j.buf[:0]
	j.n = 0
	j.nReloc = 0
	j.nRef = 0
	j.nUnref = 0
}

// JournalRec is one decoded journal record: a plain extent insert, a
// maintenance relocation (Relocate) that remaps Ext's run to Ext's
// placement and frees the old slot [OldDevOff, +OldSlotLen), a dedup
// ref (Ref) mapping Ext's run onto the extent stored at TargetDevOff,
// or a slot unref witness (Unref) reusing OldDevOff/OldSlotLen for the
// released slot.
type JournalRec struct {
	// Ext is the extent the record makes durable. Ref and unref records
	// carry only the run identity (Offset, OrigLen).
	Ext *Extent
	// Relocate distinguishes a relocate record from an insert.
	Relocate bool
	// Global marks a v2 relocate: replay must remap every block
	// referencing the old placement, not just its home range.
	Global bool
	// Ref marks a dedup-hit record.
	Ref bool
	// Unref marks a slot-release witness record.
	Unref bool
	// OldDevOff is the device offset of the slot the record freed
	// (relocate and unref records).
	OldDevOff int64
	// OldSlotLen is the size of the freed slot (relocate and unref
	// records).
	OldSlotLen int64
	// TargetOff is the logical offset of the referenced extent's home
	// run (ref records only).
	TargetOff int64
	// TargetDevOff is the device slot of the referenced extent (ref
	// records only).
	TargetDevOff int64
}

// DecodeJournal parses a journal image into its records, in append
// order. A short final record (torn tail: the crash interrupted the
// last append) is dropped silently; any other malformation is
// ErrBadJournal.
func DecodeJournal(data []byte) ([]JournalRec, error) {
	recs, _, err := decodeJournal(data)
	return recs, err
}

// decodeJournal is DecodeJournal plus the undecoded tail length, so
// CheckJournal can report torn appends across both record sizes.
func decodeJournal(data []byte) (recs []JournalRec, tail int, err error) {
	var wantSeq uint64
	for i := 0; ; i++ {
		if len(data) < 2 {
			// Too short even for a magic: a torn final append.
			return recs, len(data), nil
		}
		var rec JournalRec
		var body, whole []byte
		var seq uint64
		switch string(data[0:2]) {
		case jnlMagic:
			if len(data) < jnlRecordSize {
				return recs, len(data), nil // torn insert append
			}
			whole = data[:jnlRecordSize]
			if crc32.ChecksumIEEE(whole[:jnlCRCOffset]) != binary.LittleEndian.Uint32(whole[jnlCRCOffset:]) {
				return nil, 0, fmt.Errorf("%w: record %d checksum", ErrBadJournal, i)
			}
			seq = binary.LittleEndian.Uint64(whole[2:])
			body = whole[10:]
		case jnlRelocMagic:
			if len(data) < jnlRelocRecordSize {
				return recs, len(data), nil // torn relocate append
			}
			whole = data[:jnlRelocRecordSize]
			if whole[2] != jnlRelocVersion && whole[2] != jnlV2 {
				return nil, 0, fmt.Errorf("%w: record %d relocate version %d", ErrBadJournal, i, whole[2])
			}
			if crc32.ChecksumIEEE(whole[:jnlRelocCRCOffset]) != binary.LittleEndian.Uint32(whole[jnlRelocCRCOffset:]) {
				return nil, 0, fmt.Errorf("%w: record %d checksum", ErrBadJournal, i)
			}
			seq = binary.LittleEndian.Uint64(whole[3:])
			rec.Relocate = true
			rec.Global = whole[2] == jnlV2
			rec.OldDevOff = int64(binary.LittleEndian.Uint64(whole[11:]))
			rec.OldSlotLen = int64(binary.LittleEndian.Uint32(whole[19:]))
			body = whole[23:]
		case jnlRefMagic:
			if len(data) < jnlRefRecordSize {
				return recs, len(data), nil // torn ref append
			}
			whole = data[:jnlRefRecordSize]
			if whole[2] != jnlV2 {
				return nil, 0, fmt.Errorf("%w: record %d ref version %d", ErrBadJournal, i, whole[2])
			}
			if crc32.ChecksumIEEE(whole[:jnlRefCRCOffset]) != binary.LittleEndian.Uint32(whole[jnlRefCRCOffset:]) {
				return nil, 0, fmt.Errorf("%w: record %d checksum", ErrBadJournal, i)
			}
			seq = binary.LittleEndian.Uint64(whole[3:])
			rec.Ref = true
			rec.Ext = &Extent{
				Offset:  int64(binary.LittleEndian.Uint64(whole[11:])),
				OrigLen: int64(binary.LittleEndian.Uint32(whole[19:])),
			}
			rec.TargetOff = int64(binary.LittleEndian.Uint64(whole[23:]))
			rec.TargetDevOff = int64(binary.LittleEndian.Uint64(whole[31:]))
		case jnlUnrefMagic:
			if len(data) < jnlUnrefRecordSize {
				return recs, len(data), nil // torn unref append
			}
			whole = data[:jnlUnrefRecordSize]
			if whole[2] != jnlV2 {
				return nil, 0, fmt.Errorf("%w: record %d unref version %d", ErrBadJournal, i, whole[2])
			}
			if crc32.ChecksumIEEE(whole[:jnlUnrefCRCOffset]) != binary.LittleEndian.Uint32(whole[jnlUnrefCRCOffset:]) {
				return nil, 0, fmt.Errorf("%w: record %d checksum", ErrBadJournal, i)
			}
			seq = binary.LittleEndian.Uint64(whole[3:])
			rec.Unref = true
			rec.Ext = &Extent{
				Offset:  int64(binary.LittleEndian.Uint64(whole[11:])),
				OrigLen: int64(binary.LittleEndian.Uint32(whole[19:])),
			}
			rec.OldDevOff = int64(binary.LittleEndian.Uint64(whole[23:]))
			rec.OldSlotLen = int64(binary.LittleEndian.Uint32(whole[31:]))
		default:
			return nil, 0, fmt.Errorf("%w: record %d magic", ErrBadJournal, i)
		}
		data = data[len(whole):]
		if i == 0 {
			wantSeq = seq
		}
		if seq != wantSeq {
			return nil, 0, fmt.Errorf("%w: record %d sequence %d, want %d", ErrBadJournal, i, seq, wantSeq)
		}
		wantSeq++
		if body != nil {
			e := getJnlExtent(body)
			if e.OrigLen <= 0 || e.OrigLen%BlockSize != 0 || e.Offset < 0 || e.Offset%BlockSize != 0 ||
				e.SlotLen <= 0 || e.CompLen <= 0 || e.Tag > compress.MaxTag {
				return nil, 0, fmt.Errorf("%w: record %d invalid extent", ErrBadJournal, i)
			}
			rec.Ext = e
		} else {
			// Ref/unref records carry only a run identity plus a slot.
			e := rec.Ext
			if e.OrigLen <= 0 || e.OrigLen%BlockSize != 0 || e.Offset < 0 || e.Offset%BlockSize != 0 {
				return nil, 0, fmt.Errorf("%w: record %d invalid run", ErrBadJournal, i)
			}
			if rec.Ref && (rec.TargetOff < 0 || rec.TargetOff%BlockSize != 0 || rec.TargetDevOff < 0) {
				return nil, 0, fmt.Errorf("%w: record %d invalid ref target", ErrBadJournal, i)
			}
			if rec.Unref && (rec.OldDevOff < 0 || rec.OldSlotLen <= 0) {
				return nil, 0, fmt.Errorf("%w: record %d invalid old slot", ErrBadJournal, i)
			}
		}
		if rec.Relocate && (rec.OldDevOff < 0 || rec.OldSlotLen <= 0) {
			return nil, 0, fmt.Errorf("%w: record %d invalid old slot", ErrBadJournal, i)
		}
		recs = append(recs, rec)
	}
}

// CheckJournal validates a journal image for edcfsck: the number of
// intact records, whether the tail was torn, and any corruption found.
func CheckJournal(data []byte) (records int, torn bool, err error) {
	recs, tail, err := decodeJournal(data)
	if err != nil {
		return 0, false, err
	}
	return len(recs), tail != 0, nil
}

// ReplayJournal applies a journal image onto m in append order (inserts
// unmap the blocks they cover exactly as the live write path did;
// relocates remap the surviving blocks of their run and free the old
// slot; refs remap their run onto the referenced extent) and returns
// the number of records applied. Unref records are verified, not
// applied: the release they witness is implied by the reference-
// dropping record before them, so a slot that is still live — or
// already witnessed as released — marks the journal corrupt. A relocate
// or ref whose old/target placement is not mapped is likewise refused
// rather than double-freed.
func ReplayJournal(m *Mapping, data []byte) (int, error) {
	recs, err := DecodeJournal(data)
	if err != nil {
		return 0, err
	}
	// devIdx resolves device offsets to the extents replay has seen
	// there (live or dead); released tracks slots whose unref has been
	// witnessed. Both are built lazily at the first v2 record, so v0/v1
	// journals replay on the historical path with no index at all.
	var devIdx map[int64]*Extent
	var released map[int64]bool
	index := func(e *Extent) {
		if devIdx != nil {
			devIdx[e.DevOff] = e
			delete(released, e.DevOff)
		}
	}
	ensureIdx := func() {
		if devIdx != nil {
			return
		}
		devIdx = make(map[int64]*Extent)
		released = make(map[int64]bool)
		m.eachExtent(func(e *Extent) { devIdx[e.DevOff] = e })
	}
	for i, rec := range recs {
		switch {
		case rec.Ref:
			ensureIdx()
			tgt := devIdx[rec.TargetDevOff]
			if tgt == nil || tgt.live <= 0 || tgt.Offset != rec.TargetOff || tgt.OrigLen != rec.Ext.OrigLen {
				return i, fmt.Errorf("%w: ref record %d: target slot %d for run at %d not mapped",
					ErrBadJournal, i, rec.TargetDevOff, rec.TargetOff)
			}
			if err := m.InsertRef(rec.Ext.Offset, rec.Ext.OrigLen, tgt); err != nil {
				return i, fmt.Errorf("core: journal replay record %d: %w", i, err)
			}
		case rec.Unref:
			ensureIdx()
			if e := devIdx[rec.OldDevOff]; e != nil && e.live > 0 {
				return i, fmt.Errorf("%w: unref record %d: slot %d for run at %d still live",
					ErrBadJournal, i, rec.OldDevOff, rec.Ext.Offset)
			}
			if released[rec.OldDevOff] {
				return i, fmt.Errorf("%w: unref record %d: slot %d already released (double unref?)",
					ErrBadJournal, i, rec.OldDevOff)
			}
			released[rec.OldDevOff] = true
		case rec.Relocate:
			// A v2 record names the old placement by device slot: its
			// references may sit anywhere. A v1 record promises they all sit
			// in the home range, so no writer appends one for a shared extent.
			var old *Extent
			if rec.Global {
				ensureIdx()
				if e := devIdx[rec.OldDevOff]; e != nil && e.live > 0 && e.Offset == rec.Ext.Offset && e.OrigLen == rec.Ext.OrigLen {
					old = e
				}
			} else {
				old = m.findExtent(rec.Ext.Offset, rec.Ext.OrigLen, rec.OldDevOff)
			}
			if old == nil {
				return i, fmt.Errorf("%w: relocate record %d: old slot %d for run at %d not mapped (double free?)",
					ErrBadJournal, i, rec.OldDevOff, rec.Ext.Offset)
			}
			if old.SlotLen != rec.OldSlotLen {
				return i, fmt.Errorf("%w: relocate record %d: old slot size %d, mapping has %d",
					ErrBadJournal, i, rec.OldSlotLen, old.SlotLen)
			}
			if !rec.Global && old.shared {
				return i, fmt.Errorf("core: journal replay record %d: v1 relocate of shared extent at %d", i, old.Offset)
			}
			if err := m.Replace(old, rec.Ext); err != nil {
				return i, fmt.Errorf("core: journal replay record %d: %w", i, err)
			}
			index(rec.Ext)
		default:
			if err := m.Insert(rec.Ext); err != nil {
				return i, fmt.Errorf("core: journal replay record %d: %w", i, err)
			}
			index(rec.Ext)
		}
	}
	return len(recs), nil
}
