package ssd

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

// smallConfig returns a tiny device for fast GC-heavy tests.
func smallConfig() Config {
	c := DefaultConfig()
	c.Blocks = 64
	c.PagesPerBlock = 16
	return c
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.PageSize = 0 },
		func(c *Config) { c.PagesPerBlock = -1 },
		func(c *Config) { c.Blocks = 2 },
		func(c *Config) { c.OverProvision = 0.9 },
		func(c *Config) { c.TransferBW = 0 },
		func(c *Config) { c.GCLowWater = 0 },
		func(c *Config) { c.GCHighWater = c.GCLowWater },
		// Page numbers are int32: Blocks*PagesPerBlock must not wrap.
		func(c *Config) { c.Blocks = 1 << 26 },
		func(c *Config) { c.Blocks = 1 << 25 },
		func(c *Config) { c.Blocks = math.MaxInt32/c.PagesPerBlock + 1 },
		func(c *Config) { c.PagesPerBlock = 1 << 30 },
		func(c *Config) { c.Blocks, c.PagesPerBlock = math.MaxInt, math.MaxInt },
	}
	for i, mutate := range cases {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
	largest := DefaultConfig()
	largest.Blocks = math.MaxInt32 / largest.PagesPerBlock
	if err := largest.Validate(); err != nil {
		t.Fatalf("largest int32 geometry rejected: %v", err)
	}
}

func TestCapacity(t *testing.T) {
	d, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	total := int64(64 * 16)
	want := int64(float64(total) * 0.93)
	if d.LogicalPages() != want {
		t.Fatalf("logical pages = %d; want %d", d.LogicalPages(), want)
	}
	if d.LogicalBytes() != want*4096 {
		t.Fatalf("logical bytes = %d", d.LogicalBytes())
	}
}

func TestReadWriteBounds(t *testing.T) {
	d, _ := New(smallConfig())
	if _, err := d.ReadTime(-1, 4096); err == nil {
		t.Fatal("expected error for negative lpn")
	}
	if _, err := d.ReadTime(d.LogicalPages(), 4096); err == nil {
		t.Fatal("expected error past capacity")
	}
	if _, err := d.WriteTime(d.LogicalPages()-1, 2*4096); err == nil {
		t.Fatal("expected error for write spilling past capacity")
	}
	if err := d.Trim(d.LogicalPages(), 1); err == nil {
		t.Fatal("expected error for trim past capacity")
	}
	if dt, err := d.ReadTime(0, 0); err != nil || dt != 0 {
		t.Fatalf("zero-byte read = %v, %v", dt, err)
	}
}

func TestLatencyLinearInSize(t *testing.T) {
	// Fig. 1: response time grows ~linearly with request size.
	d, _ := New(DefaultConfig())
	sizes := []int64{4096, 8192, 16384, 32768, 65536, 131072}
	var times []time.Duration
	for _, s := range sizes {
		dt, err := d.ReadTime(0, s)
		if err != nil {
			t.Fatal(err)
		}
		times = append(times, dt)
	}
	for i := 1; i < len(times); i++ {
		if times[i] <= times[i-1] {
			t.Fatalf("latency not increasing: %v then %v", times[i-1], times[i])
		}
	}
	// Doubling size from 16K to 32K should roughly double total time
	// (per-page read dominates); allow generous tolerance.
	r := float64(times[3]) / float64(times[2])
	if r < 1.7 || r > 2.3 {
		t.Fatalf("32K/16K latency ratio = %.2f; want ~2", r)
	}
}

func TestWriteSlowerThanRead(t *testing.T) {
	d, _ := New(DefaultConfig())
	rt, _ := d.ReadTime(0, 4096)
	wt, _ := d.WriteTime(0, 4096)
	if wt <= rt {
		t.Fatalf("write %v not slower than read %v", wt, rt)
	}
}

func TestOverwriteInvalidatesOldPage(t *testing.T) {
	d, _ := New(smallConfig())
	if _, err := d.WriteTime(5, 4096); err != nil {
		t.Fatal(err)
	}
	if _, err := d.WriteTime(5, 4096); err != nil {
		t.Fatal(err)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if d.Stats().HostPagesWritten != 2 {
		t.Fatalf("host pages written = %d", d.Stats().HostPagesWritten)
	}
}

func TestGCTriggersUnderPressure(t *testing.T) {
	d, _ := New(smallConfig())
	// Overwrite a small working set many times: forces GC.
	n := d.LogicalPages() / 4
	for round := 0; round < 20; round++ {
		for l := int64(0); l < n; l += 4 {
			if _, err := d.WriteTime(l, 4*4096); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := d.Stats()
	if st.Erases == 0 {
		t.Fatal("expected erases after sustained overwrites")
	}
	if st.GCRuns == 0 {
		t.Fatal("expected GC runs")
	}
	if st.WriteAmplification() < 1.0 {
		t.Fatalf("write amplification = %.2f; want >= 1", st.WriteAmplification())
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMoreBytesWrittenMoreErases(t *testing.T) {
	// The endurance argument for compression: writing more total data to
	// the same device forces more erase cycles.
	d1, _ := New(smallConfig())
	d2, _ := New(smallConfig())
	for round := 0; round < 10; round++ {
		for l := int64(0); l < d1.LogicalPages()/2; l++ {
			if _, err := d1.WriteTime(l, 4096); err != nil {
				t.Fatal(err)
			}
		}
	}
	for round := 0; round < 20; round++ {
		for l := int64(0); l < d2.LogicalPages()/2; l++ {
			if _, err := d2.WriteTime(l, 4096); err != nil {
				t.Fatal(err)
			}
		}
	}
	if d2.Stats().Erases <= d1.Stats().Erases {
		t.Fatalf("2x data produced erases %d <= %d", d2.Stats().Erases, d1.Stats().Erases)
	}
}

func TestTrimFreesSpace(t *testing.T) {
	d, _ := New(smallConfig())
	for l := int64(0); l < 32; l++ {
		if _, err := d.WriteTime(l, 4096); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Trim(0, 32); err != nil {
		t.Fatal(err)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// All pages unmapped: reads still succeed (zero-fill semantics).
	if _, err := d.ReadTime(0, 4096); err != nil {
		t.Fatal(err)
	}
}

func TestInvariantsUnderRandomWorkload(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d, _ := New(smallConfig())
		for op := 0; op < 3000; op++ {
			l := rng.Int63n(d.LogicalPages())
			maxPages := d.LogicalPages() - l
			if maxPages > 8 {
				maxPages = 8
			}
			n := rng.Int63n(maxPages) + 1
			switch rng.Intn(4) {
			case 0:
				if _, err := d.ReadTime(l, n*4096); err != nil {
					return false
				}
			case 3:
				if err := d.Trim(l, n); err != nil {
					return false
				}
			default:
				if _, err := d.WriteTime(l, n*4096); err != nil {
					return false
				}
			}
		}
		return d.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsAccounting(t *testing.T) {
	d, _ := New(smallConfig())
	if _, err := d.WriteTime(0, 3*4096); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadTime(0, 2*4096); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.HostPagesWritten != 3 || st.HostPagesRead != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.WriteAmplification() != 1.0 {
		t.Fatalf("WA = %v; want 1.0 before GC", st.WriteAmplification())
	}
	var zero Stats
	if zero.WriteAmplification() != 0 {
		t.Fatal("WA of empty stats should be 0")
	}
}

func TestPartialPageWriteRoundsUp(t *testing.T) {
	d, _ := New(smallConfig())
	if _, err := d.WriteTime(0, 100); err != nil { // 100 bytes -> 1 page
		t.Fatal(err)
	}
	if d.Stats().HostPagesWritten != 1 {
		t.Fatalf("pages = %d; want 1", d.Stats().HostPagesWritten)
	}
}

func TestWearSpreadsAcrossBlocks(t *testing.T) {
	// Sustained overwrites of a hot set should not concentrate erases on
	// a handful of blocks: the tie-break spreads wear.
	d, _ := New(smallConfig())
	for round := 0; round < 60; round++ {
		for l := int64(0); l < d.LogicalPages()/3; l++ {
			if _, err := d.WriteTime(l, 4096); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := d.Stats()
	if st.Erases == 0 {
		t.Skip("workload did not trigger GC")
	}
	maxE := int64(d.MaxErases())
	avgE := st.Erases / int64(len(d.blocks))
	if avgE > 0 && maxE > 8*avgE {
		t.Fatalf("wear skew: max erases %d vs avg %d", maxE, avgE)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWrite4K(b *testing.B) {
	d, _ := New(DefaultConfig())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l := int64(i) % (d.LogicalPages() - 1)
		if _, err := d.WriteTime(l, 4096); err != nil {
			b.Fatal(err)
		}
	}
}

// allocated counts the chunks the map has allocated.
func (m *pageMap) allocated() int {
	n := 0
	for _, c := range m.chunks {
		if c != nil {
			n++
		}
	}
	return n
}

func TestNewAllocatesLittle(t *testing.T) {
	const runs = 8
	keep := make([]*SSD, runs)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range keep {
		d, err := New(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		keep[i] = d
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 256<<10 {
		t.Fatalf("New(DefaultConfig()) allocated %d B; want at most %d", per, 256<<10)
	}
}

func TestPageMapsGrowWithPagesWritten(t *testing.T) {
	d, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if d.l2p.allocated() != 0 || d.p2l.allocated() != 0 {
		t.Fatalf("new device holds %d+%d chunks", d.l2p.allocated(), d.p2l.allocated())
	}
	// Reads and trims of untouched pages allocate nothing.
	if _, err := d.ReadTime(0, 64*4096); err != nil {
		t.Fatal(err)
	}
	if err := d.Trim(0, d.LogicalPages()); err != nil {
		t.Fatal(err)
	}
	if d.l2p.allocated() != 0 || d.p2l.allocated() != 0 {
		t.Fatalf("read+trim allocated %d+%d chunks", d.l2p.allocated(), d.p2l.allocated())
	}
	// Distinct pages from an offset that is not chunk-aligned, in writes
	// of 1..16 pages: no GC runs, so k pages touch k physical pages.
	rng := rand.New(rand.NewSource(1))
	start := int64(chunkLen/2 + 3)
	k := int64(0)
	for k < 5*chunkLen {
		n := rng.Int63n(16) + 1
		if _, err := d.WriteTime(start+k, n*4096); err != nil {
			t.Fatal(err)
		}
		k += n
		limit := int((k+chunkLen-1)/chunkLen) + 1
		if l, p := d.l2p.allocated(), d.p2l.allocated(); l > limit || p > limit {
			t.Fatalf("after %d pages: %d l2p and %d p2l chunks; want at most %d", k, l, p, limit)
		}
	}
	if err := d.Trim(0, d.LogicalPages()); err != nil {
		t.Fatal(err)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestMatchesDenseReference drives the chunked FTL and the dense one kept
// in ref_test.go through the same seeded, GC-heavy mix of writes,
// overwrites, trims and reads on a geometry whose page maps span several
// chunks, and requires identical service times, statistics, wear and
// per-page mappings throughout.
func TestMatchesDenseReference(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Blocks = 40
	cfg.PagesPerBlock = 256 // 10 240 physical pages: three chunks per map
	for seed := int64(1); seed <= 3; seed++ {
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRef(cfg)
		rng := rand.New(rand.NewSource(seed))
		logical := d.LogicalPages()
		// A hot set straddling the first chunk boundary takes most
		// writes, so GC finds victims with few valid pages to move.
		hotLo, hotHi := int64(chunkLen-1500), int64(chunkLen+1500)
		for op := 0; op < 20000; op++ {
			n := rng.Int63n(16) + 1
			var l int64
			if rng.Intn(10) < 7 {
				l = hotLo + rng.Int63n(hotHi-hotLo)
			} else {
				l = rng.Int63n(logical - n + 1)
			}
			switch r := rng.Intn(20); {
			case r < 4:
				got, gerr := d.ReadTime(l, n*4096)
				want, werr := ref.ReadTime(l, n*4096)
				if got != want || (gerr == nil) != (werr == nil) {
					t.Fatalf("seed %d op %d: ReadTime(%d, %d) = %v, %v; reference %v, %v", seed, op, l, n, got, gerr, want, werr)
				}
			case r < 6:
				n *= 8 // long trims reach untouched pages too
				if l+n > logical {
					n = logical - l
				}
				gerr, werr := d.Trim(l, n), ref.Trim(l, n)
				if (gerr == nil) != (werr == nil) {
					t.Fatalf("seed %d op %d: Trim(%d, %d) = %v; reference %v", seed, op, l, n, gerr, werr)
				}
			default:
				bytes := n*4096 - int64(rng.Intn(4096)) // partial last page
				got, gerr := d.WriteTime(l, bytes)
				want, werr := ref.WriteTime(l, bytes)
				if got != want || (gerr == nil) != (werr == nil) {
					t.Fatalf("seed %d op %d: WriteTime(%d, %d) = %v, %v; reference %v, %v", seed, op, l, n, got, gerr, want, werr)
				}
			}
			if op%1000 == 999 {
				sameAsRef(t, d, ref)
			}
		}
		sameAsRef(t, d, ref)
		if st := d.Stats(); st.GCPagesMoved == 0 || st.Erases < 100 {
			t.Fatalf("seed %d: workload too light for GC: %+v", seed, st)
		}
	}
}

// sameAsRef fails unless d and ref agree on every counter, every block
// and every page mapping, and both pass their invariant checks.
func sameAsRef(t *testing.T, d *SSD, ref *refSSD) {
	t.Helper()
	if d.Stats() != ref.stats {
		t.Fatalf("stats %+v; reference %+v", d.Stats(), ref.stats)
	}
	if d.MaxErases() != ref.MaxErases() {
		t.Fatalf("max erases %d; reference %d", d.MaxErases(), ref.MaxErases())
	}
	if d.active != ref.active || d.freeBlocks != ref.freeBlocks {
		t.Fatalf("active %d free %d; reference %d %d", d.active, d.freeBlocks, ref.active, ref.freeBlocks)
	}
	for i := range ref.blocks {
		if d.blocks[i] != ref.blocks[i] {
			t.Fatalf("block %d = %+v; reference %+v", i, d.blocks[i], ref.blocks[i])
		}
	}
	for l, want := range ref.l2p {
		if got := d.l2p.get(int32(l)); got != want {
			t.Fatalf("l2p[%d] = %d; reference %d", l, got, want)
		}
	}
	for p, want := range ref.p2l {
		if got := d.p2l.get(int32(p)); got != want {
			t.Fatalf("p2l[%d] = %d; reference %d", p, got, want)
		}
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := ref.CheckInvariants(); err != nil {
		t.Fatalf("reference: %v", err)
	}
}

func BenchmarkNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := New(DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}
