package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"edc/internal/compress"
)

// The images under testdata/ were written by the commit before the store
// step was unified (PR 17's tree), from exactly the sequences below with
// its AppendRelocate/AppendRelocateAll pair. They pin the on-disk
// formats: a refactor of the append or snapshot code that moves one byte
// fails here, and no -update flag exists on purpose — a new image is a
// format change and needs a new file and a version bump.

func goldenExtent(offBlocks, blocks, compLen, slotLen int64, tag compress.Tag, ver uint32, devOff int64) *Extent {
	return &Extent{Offset: offBlocks * BlockSize, OrigLen: blocks * BlockSize,
		CompLen: compLen, SlotLen: slotLen, Tag: tag, Version: ver, DevOff: devOff}
}

// goldenJournal appends one record of every kind: insert, home-only (v1)
// relocate, ref, global (v2) relocate, two overwriting inserts and the
// unref the second one causes.
func goldenJournal() *Journal {
	a := goldenExtent(0, 4, 9000, 12288, compress.TagLZF, 1, 0)
	b := goldenExtent(8, 4, 5000, 8192, compress.TagLZF, 2, 12288)
	a2 := goldenExtent(0, 4, 3000, 4096, compress.TagGZ, 1, 20480)
	b2 := goldenExtent(8, 4, 2500, 4096, compress.TagGZ, 2, 24576)
	c := goldenExtent(16, 4, 16384, 16384, compress.TagNone, 3, 28672)
	d := goldenExtent(0, 4, 7000, 8192, compress.TagBWZ, 4, 45056)
	var j Journal
	j.Append(a)
	j.Append(b)
	j.AppendRelocate(a, a2, false)
	j.AppendRef(16*BlockSize, 4*BlockSize, b)
	j.AppendRelocate(b, b2, true)
	j.Append(c)
	j.Append(d)
	j.AppendUnref(a2)
	return &j
}

// goldenMapping holds a partially overwritten extent and, with foreign
// set, a dedup reference from outside an extent's home range (which turns
// the snapshot into a version 2 image).
func goldenMapping(t *testing.T, foreign bool) *Mapping {
	t.Helper()
	m := NewMapping(64*BlockSize, NewAllocator(1<<20), nil)
	a := goldenExtent(0, 4, 9000, 12288, compress.TagLZF, 1, 0)
	e := goldenExtent(2, 4, 5000, 8192, compress.TagGZ, 2, 12288)
	f := goldenExtent(32, 2, 8192, 8192, compress.TagNone, 3, 20480)
	for _, x := range []*Extent{a, e, f} {
		if err := m.Insert(x); err != nil {
			t.Fatal(err)
		}
	}
	if foreign {
		if err := m.InsertRef(40*BlockSize, e.OrigLen, e); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return m
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: image differs from the parent commit's (%d bytes, want %d)", name, len(got), len(want))
	}
}

func TestJournalImageGolden(t *testing.T) {
	j := goldenJournal()
	checkGolden(t, "journal_v0v1v2.golden", j.Bytes())
	// The image is also a valid history: it replays onto an empty table.
	m := NewMapping(64*BlockSize, NewAllocator(1<<20), nil)
	if n, err := ReplayJournal(m, j.Bytes()); err != nil || n != j.Records() {
		t.Fatalf("ReplayJournal = (%d, %v), want %d records", n, err, j.Records())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotImageGolden(t *testing.T) {
	for _, tc := range []struct {
		name    string
		foreign bool
	}{
		{"snapshot_v1.golden", false},
		{"snapshot_v2.golden", true},
	} {
		var buf bytes.Buffer
		if err := goldenMapping(t, tc.foreign).SaveSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, tc.name, buf.Bytes())
		m, err := LoadSnapshot(bytes.NewReader(buf.Bytes()), NewAllocator(1<<20), nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("%s reloaded: %v", tc.name, err)
		}
	}
}
