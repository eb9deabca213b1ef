package core

import (
	"fmt"
	"math/rand"
	"testing"

	"edc/internal/compress"
)

// refReplace and refReplaceAll are the pair Mapping.Replace was before it
// learned to follow foreign references by itself, kept verbatim as the
// reference the property test below compares against (as gz/ref_test.go
// does for the match finder). The maintainer called refReplaceAll under
// dedup and refReplace otherwise.

func refReplace(m *Mapping, old, repl *Extent) error {
	if old.live <= 0 {
		return fmt.Errorf("core: replace of dead extent at %d", old.Offset)
	}
	if old.shared {
		return fmt.Errorf("core: replace of shared extent at %d", old.Offset)
	}
	if repl.Offset != old.Offset || repl.OrigLen != old.OrigLen {
		return fmt.Errorf("core: replace changes run [%d,+%d) -> [%d,+%d)",
			old.Offset, old.OrigLen, repl.Offset, repl.OrigLen)
	}
	first := old.Offset / BlockSize
	n := old.OrigLen / BlockSize
	var moved int32
	for b := first; b < first+n; b++ {
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
	old.live = 0
	if old.deadCounted {
		m.deadSpace += repl.SlotLen - old.SlotLen
		old.deadCounted = false
		repl.deadCounted = true
	}
	m.release(old)
	return nil
}

func refReplaceAll(m *Mapping, old, repl *Extent) error {
	if old.live <= 0 {
		return fmt.Errorf("core: replace of dead extent at %d", old.Offset)
	}
	if repl.Offset != old.Offset || repl.OrigLen != old.OrigLen {
		return fmt.Errorf("core: replace changes run [%d,+%d) -> [%d,+%d)",
			old.Offset, old.OrigLen, repl.Offset, repl.OrigLen)
	}
	var moved int32
	for b, e := range m.table {
		if e == old {
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
	repl.shared = old.shared
	repl.foreign = old.foreign
	old.live = 0
	old.foreign = 0
	if old.deadCounted {
		m.deadSpace += repl.SlotLen - old.SlotLen
		old.deadCounted = false
		repl.deadCounted = true
	}
	m.release(old)
	return nil
}

// replaceWorld is one of two mappings driven in lockstep: extents are
// created in the same order on both, so index i names the same logical
// extent in each.
type replaceWorld struct {
	m    *Mapping
	exts []*Extent
}

func (w *replaceWorld) add(e *Extent) *Extent {
	w.exts = append(w.exts, e)
	return e
}

// image renders everything Replace may touch, with extents named by
// their creation index so two worlds compare by value.
func (w *replaceWorld) image() string {
	id := make(map[*Extent]int, len(w.exts))
	for i, e := range w.exts {
		id[e] = i
	}
	s := fmt.Sprintf("live=%d extents=%d dead=%d dying=", w.m.liveBlocks, w.m.extents, w.m.deadSpace)
	for _, e := range w.m.dying {
		s += fmt.Sprintf("%d,", id[e])
	}
	s += " |"
	for _, e := range w.m.table {
		if e == nil {
			s += " ."
		} else {
			s += fmt.Sprintf(" %d", id[e])
		}
	}
	for i, e := range w.exts {
		s += fmt.Sprintf(" |%d: live=%d foreign=%d shared=%v deadCounted=%v heat=%v", i, e.live, e.foreign, e.shared, e.deadCounted, e.Heat)
	}
	return s
}

// TestReplaceMatchesReferencePair drives random mappings — with and
// without dedup references, inline and deferred frees — and requires the
// unified Replace to leave exactly what the old Replace/ReplaceAll pair
// left: table, live/foreign/shared, dead-space gauge, dying batch, error.
func TestReplaceMatchesReferencePair(t *testing.T) {
	const blocks = 48
	for seed := int64(0); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dedup := seed%2 == 1
		var got, want replaceWorld
		for _, w := range []*replaceWorld{&got, &want} {
			w.m = NewMapping(blocks*BlockSize, NewAllocator(1<<30), nil)
			w.m.deferFrees = dedup
		}
		devOff := int64(0)
		newExtent := func(off, n int64) (a, b *Extent) {
			slot := (1 + rng.Int63n(4)) * n * BlockSize / 4
			mk := func() *Extent {
				return &Extent{Offset: off * BlockSize, OrigLen: n * BlockSize, CompLen: slot, SlotLen: slot,
					Tag: compress.TagLZF, DevOff: devOff, Version: uint32(len(got.exts))}
			}
			devOff += n * BlockSize
			return got.add(mk()), want.add(mk())
		}
		for step := 0; step < 60; step++ {
			switch op := rng.Intn(10); {
			case op < 5: // overwrite a run
				n := 1 + rng.Int63n(6)
				a, b := newExtent(rng.Int63n(blocks-n+1), n)
				if err := got.m.Insert(a); err != nil {
					t.Fatal(err)
				}
				if err := want.m.Insert(b); err != nil {
					t.Fatal(err)
				}
			case op < 7 && dedup && len(got.exts) > 0: // dedup hit: map another run onto a live extent
				i := rng.Intn(len(got.exts))
				if got.exts[i].live <= 0 {
					continue
				}
				n := got.exts[i].OrigLen / BlockSize
				off := rng.Int63n(blocks-n+1) * BlockSize
				errA := got.m.InsertRef(off, n*BlockSize, got.exts[i])
				errB := want.m.InsertRef(off, n*BlockSize, want.exts[i])
				if (errA == nil) != (errB == nil) {
					t.Fatalf("seed %d: InsertRef diverged: %v vs %v", seed, errA, errB)
				}
			case len(got.exts) > 0: // relocate, dead and mismatched targets included
				i := rng.Intn(len(got.exts))
				oldA, oldB := got.exts[i], want.exts[i]
				off, n := oldA.Offset/BlockSize, oldA.OrigLen/BlockSize
				if rng.Intn(12) == 0 {
					n++ // a replacement for a different run must be refused
				}
				replA, replB := newExtent(off, n)
				errA := got.m.Replace(oldA, replA)
				var errB error
				if dedup && (oldB.shared || rng.Intn(2) == 0) {
					errB = refReplaceAll(want.m, oldB, replB)
				} else {
					errB = refReplace(want.m, oldB, replB)
				}
				if fmt.Sprint(errA) != fmt.Sprint(errB) {
					t.Fatalf("seed %d step %d: Replace = %v, reference = %v", seed, step, errA, errB)
				}
			}
			if g, w := got.image(), want.image(); g != w {
				t.Fatalf("seed %d step %d: mappings diverged\n got %s\nwant %s", seed, step, g, w)
			}
			got.m.takeDying()
			want.m.takeDying()
			if err := got.m.CheckInvariants(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		}
	}
}
