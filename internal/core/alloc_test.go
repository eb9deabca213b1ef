package core

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestQuantizeSlot(t *testing.T) {
	cases := []struct {
		orig, comp int64
		wantSlot   int64
		wantOK     bool
	}{
		{4096, 500, 1024, true},
		{4096, 1024, 1024, true},
		{4096, 1025, 2048, true},
		{4096, 2048, 2048, true},
		{4096, 3000, 3072, true},
		{4096, 3072, 3072, true},
		{4096, 3073, 4096, false}, // >75%: store uncompressed
		{4096, 5000, 4096, false},
		{0, 10, 0, false},
		{16384, 4096, 4096, true},
		// Lengths that are not a multiple of 4: the rounded-up quarters
		// reach or pass the block, and such a slot is not a compressed one.
		{5, 6, 5, false}, // was (6, true): TestQuantizeSlotProperty input 0x4, 0xb8414652
		{2, 3, 2, false},
		{5, 4, 4, true},
		{1, 1, 1, false},
	}
	for _, c := range cases {
		slot, ok := QuantizeSlot(c.orig, c.comp)
		if slot != c.wantSlot || ok != c.wantOK {
			t.Errorf("QuantizeSlot(%d,%d) = (%d,%v); want (%d,%v)",
				c.orig, c.comp, slot, ok, c.wantSlot, c.wantOK)
		}
	}
}

func TestQuantizeSlotProperty(t *testing.T) {
	f := func(orig uint16, comp uint32) bool {
		o := int64(orig) + 1
		c := int64(comp % uint32(2*o))
		slot, ok := QuantizeSlot(o, c)
		if ok {
			// Slot holds the payload and is smaller than the original.
			return slot >= c && slot < o && slot*4 >= o // at least 25%
		}
		return slot == o
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestAllocatorBumpAndReuse(t *testing.T) {
	a := NewAllocator(1 << 20)
	off1, err := a.Alloc(4096)
	if err != nil || off1 != 0 {
		t.Fatalf("first alloc = %d, %v", off1, err)
	}
	off2, _ := a.Alloc(4096)
	if off2 != 4096 {
		t.Fatalf("second alloc = %d", off2)
	}
	a.Free(off1, 4096)
	off3, _ := a.Alloc(4096)
	if off3 != off1 {
		t.Fatalf("freed slot not reused: %d", off3)
	}
	if a.InUse() != 8192 {
		t.Fatalf("inUse = %d", a.InUse())
	}
}

func TestAllocatorSplit(t *testing.T) {
	a := NewAllocator(8192)
	off, _ := a.Alloc(8192) // consume everything
	a.Free(off, 8192)
	// Only an 8K free slot exists; a 2K alloc must split it.
	o1, err := a.Alloc(2048)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := a.Alloc(6144)
	if err != nil {
		t.Fatalf("remainder not reusable: %v", err)
	}
	if o1 == o2 {
		t.Fatal("overlapping allocations")
	}
}

func TestAllocatorExhaustion(t *testing.T) {
	a := NewAllocator(4096)
	if _, err := a.Alloc(4096); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(1); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("err = %v; want ErrNoSpace", err)
	}
}

func TestAllocatorRejectsBadSize(t *testing.T) {
	a := NewAllocator(4096)
	if _, err := a.Alloc(0); err == nil {
		t.Fatal("zero-size alloc should fail")
	}
	if _, err := a.Alloc(-5); err == nil {
		t.Fatal("negative alloc should fail")
	}
}

func TestAllocatorPeak(t *testing.T) {
	a := NewAllocator(1 << 20)
	o1, _ := a.Alloc(1000)
	o2, _ := a.Alloc(1000)
	a.Free(o1, 1000)
	a.Free(o2, 1000)
	if a.PeakUse() != 2000 {
		t.Fatalf("peak = %d", a.PeakUse())
	}
	if a.InUse() != 0 {
		t.Fatalf("inUse = %d", a.InUse())
	}
}

// Property: allocations never overlap and never exceed capacity.
func TestAllocatorNoOverlap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := NewAllocator(1 << 18)
		type slot struct{ off, size int64 }
		var live []slot
		for op := 0; op < 500; op++ {
			if rng.Intn(3) > 0 || len(live) == 0 {
				size := int64(rng.Intn(8)+1) * 1024
				off, err := a.Alloc(size)
				if errors.Is(err, ErrNoSpace) {
					continue
				}
				if err != nil || off < 0 || off+size > a.Capacity() {
					return false
				}
				for _, s := range live {
					if off < s.off+s.size && s.off < off+size {
						return false // overlap
					}
				}
				live = append(live, slot{off, size})
			} else {
				i := rng.Intn(len(live))
				a.Free(live[i].off, live[i].size)
				live = append(live[:i], live[i+1:]...)
			}
		}
		var sum int64
		for _, s := range live {
			sum += s.size
		}
		return sum == a.InUse()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestFreeBytesAccounting(t *testing.T) {
	a := NewAllocator(10240)
	if a.FreeBytes() != 10240 {
		t.Fatalf("initial free = %d", a.FreeBytes())
	}
	off, _ := a.Alloc(4096)
	if a.FreeBytes() != 10240-4096 {
		t.Fatalf("free after alloc = %d", a.FreeBytes())
	}
	a.Free(off, 4096)
	if a.FreeBytes() != 10240 {
		t.Fatalf("free after free = %d", a.FreeBytes())
	}
	if n := a.classCount(); n != 1 {
		t.Fatalf("%d size classes, want 1", n)
	}
}
