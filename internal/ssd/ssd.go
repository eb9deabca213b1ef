// Package ssd is an event-free analytical simulator of a flash-based SSD:
// page-level FTL with out-of-place updates, greedy garbage collection,
// erase-count (endurance) accounting, and a latency model in which the
// response time of an operation grows linearly with its size — the
// property the paper measures on a real Intel X25-E in Fig. 1 and on
// which EDC's "smaller writes are faster writes" argument rests.
//
// The simulator models timing and endurance only; payload bytes live in
// the block layer above. All operations return the time they would take;
// the caller (a sim.Station per device) serializes them in virtual time.
package ssd

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Config describes the simulated device geometry and timing.
type Config struct {
	PageSize      int     // bytes per flash page
	PagesPerBlock int     // pages per erase block
	Blocks        int     // total physical erase blocks
	OverProvision float64 // fraction of physical space hidden from the host

	ReadPageLatency time.Duration // per-page array read
	ProgramLatency  time.Duration // per-page program
	EraseLatency    time.Duration // per-block erase
	TransferBW      int64         // host interface bandwidth, bytes/second

	GCLowWater  float64 // free-block fraction that triggers foreground GC
	GCHighWater float64 // GC reclaims until this free fraction is reached
}

// DefaultConfig models an Intel X25-E-class SLC SATA device with a 2 GiB
// address space; the model's memory follows the pages written, not this
// capacity (see pageMap). The timing constants preserve the X25-E's
// externally visible characteristics (~75 µs read / ~85 µs buffered
// write per 4 KiB, ~250 MB/s interface); the deeper write penalty of
// flash shows up through garbage collection (page relocations and
// multi-millisecond erases), as in real devices.
func DefaultConfig() Config {
	return Config{
		PageSize:        4096,
		PagesPerBlock:   64,
		Blocks:          8192, // 2 GiB raw
		OverProvision:   0.07,
		ReadPageLatency: 60 * time.Microsecond,
		ProgramLatency:  90 * time.Microsecond,
		EraseLatency:    2000 * time.Microsecond,
		TransferBW:      250 << 20,
		GCLowWater:      0.05,
		GCHighWater:     0.10,
	}
}

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	switch {
	case c.PageSize <= 0:
		return errors.New("ssd: PageSize must be positive")
	case c.PagesPerBlock <= 0:
		return errors.New("ssd: PagesPerBlock must be positive")
	case c.Blocks < 4:
		return errors.New("ssd: need at least 4 blocks")
	case c.Blocks > math.MaxInt32/c.PagesPerBlock:
		return errors.New("ssd: Blocks*PagesPerBlock overflows int32 page numbers")
	case c.OverProvision < 0 || c.OverProvision >= 0.5:
		return errors.New("ssd: OverProvision out of range [0, 0.5)")
	case c.TransferBW <= 0:
		return errors.New("ssd: TransferBW must be positive")
	case c.GCLowWater <= 0 || c.GCHighWater <= c.GCLowWater || c.GCHighWater >= 1:
		return errors.New("ssd: watermarks must satisfy 0 < low < high < 1")
	}
	return nil
}

// Stats counts device activity since creation.
type Stats struct {
	HostPagesRead     int64
	HostPagesWritten  int64
	FlashPagesWritten int64 // host writes + GC relocations
	GCPagesMoved      int64
	Erases            int64
	GCRuns            int64
	GCTime            time.Duration
}

// WriteAmplification returns flash writes divided by host writes (1.0
// when no GC relocation has occurred; 0 when nothing was written).
func (s Stats) WriteAmplification() float64 {
	if s.HostPagesWritten == 0 {
		return 0
	}
	return float64(s.FlashPagesWritten) / float64(s.HostPagesWritten)
}

const (
	ppnInvalid = int32(-1)

	chunkShift = 12 // 4 096 entries, 16 KiB per page-map chunk
	chunkLen   = 1 << chunkShift
)

// pageMap maps page numbers to page numbers in chunks allocated on first
// write, so its memory follows the pages written rather than the device
// capacity. An untouched entry reads ppnInvalid, and storing ppnInvalid
// into an untouched chunk allocates nothing.
type pageMap struct {
	chunks []*[chunkLen]int32
}

func newPageMap(n int32) pageMap {
	return pageMap{chunks: make([]*[chunkLen]int32, (int(n)+chunkLen-1)>>chunkShift)}
}

func (m *pageMap) get(i int32) int32 {
	c := m.chunks[i>>chunkShift]
	if c == nil {
		return ppnInvalid
	}
	return c[i&(chunkLen-1)]
}

func (m *pageMap) set(i, v int32) {
	c := m.chunks[i>>chunkShift]
	if c == nil {
		if v == ppnInvalid {
			return
		}
		c = new([chunkLen]int32)
		for j := range c {
			c[j] = ppnInvalid
		}
		m.chunks[i>>chunkShift] = c
	}
	c[i&(chunkLen-1)] = v
}

type blockState struct {
	valid  int32 // valid pages in this block
	next   int32 // next free page index, == PagesPerBlock when full
	erases int32
}

// SSD is the simulated device. It is not safe for concurrent use; the
// simulation kernel is single-threaded by construction.
type SSD struct {
	cfg Config

	logicalPages int32
	totalPages   int32

	l2p pageMap // logical page -> physical page (ppnInvalid if unmapped)
	p2l pageMap // physical page -> logical page (ppnInvalid if free/stale)

	blocks     []blockState
	active     int32 // block currently receiving writes
	freeBlocks int32

	stats Stats
}

// New creates a device with all pages free. It allocates the block array
// and the page maps' chunk directories; chunks come with the first write.
func New(cfg Config) (*SSD, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	total := int32(cfg.Blocks * cfg.PagesPerBlock)
	logical := int32(float64(total) * (1 - cfg.OverProvision))
	d := &SSD{
		cfg:          cfg,
		logicalPages: logical,
		totalPages:   total,
		l2p:          newPageMap(logical),
		p2l:          newPageMap(total),
		blocks:       make([]blockState, cfg.Blocks),
		freeBlocks:   int32(cfg.Blocks),
	}
	d.active = 0
	d.freeBlocks-- // active block is allocated
	return d, nil
}

// Config returns the device configuration.
func (d *SSD) Config() Config { return d.cfg }

// LogicalPages returns the host-visible capacity in pages.
func (d *SSD) LogicalPages() int64 { return int64(d.logicalPages) }

// LogicalBytes returns the host-visible capacity in bytes.
func (d *SSD) LogicalBytes() int64 {
	return int64(d.logicalPages) * int64(d.cfg.PageSize)
}

// Stats returns a snapshot of the activity counters.
func (d *SSD) Stats() Stats { return d.stats }

// transferTime is the size-proportional interface cost (Fig. 1).
func (d *SSD) transferTime(bytes int64) time.Duration {
	return time.Duration(bytes * int64(time.Second) / d.cfg.TransferBW)
}

// pagesFor returns how many pages an operation of `bytes` touches.
func (d *SSD) pagesFor(bytes int64) int64 {
	ps := int64(d.cfg.PageSize)
	return (bytes + ps - 1) / ps
}

// ReadTime returns the service time for reading `bytes` at logical page
// lpn without mutating state beyond statistics.
//
// Unmapped pages cost the same as mapped ones: the controller still
// performs the array access (returning zeroes).
func (d *SSD) ReadTime(lpn int64, bytes int64) (time.Duration, error) {
	if bytes <= 0 {
		return 0, nil
	}
	n := d.pagesFor(bytes)
	if lpn < 0 || lpn+n > int64(d.logicalPages) {
		return 0, fmt.Errorf("ssd: read [%d,+%d) beyond %d logical pages", lpn, n, d.logicalPages)
	}
	d.stats.HostPagesRead += n
	return time.Duration(n)*d.cfg.ReadPageLatency + d.transferTime(bytes), nil
}

// WriteTime performs a host write of `bytes` at logical page lpn and
// returns its service time, including any foreground garbage collection
// it triggered.
func (d *SSD) WriteTime(lpn int64, bytes int64) (time.Duration, error) {
	if bytes <= 0 {
		return 0, nil
	}
	n := d.pagesFor(bytes)
	if lpn < 0 || lpn+n > int64(d.logicalPages) {
		return 0, fmt.Errorf("ssd: write [%d,+%d) beyond %d logical pages", lpn, n, d.logicalPages)
	}
	var gcTime time.Duration
	for i := int64(0); i < n; i++ {
		gcTime += d.writePage(int32(lpn + i))
	}
	d.stats.HostPagesWritten += n
	d.stats.FlashPagesWritten += n
	return time.Duration(n)*d.cfg.ProgramLatency + d.transferTime(bytes) + gcTime, nil
}

// Trim invalidates the mapping for n pages starting at lpn (discard).
func (d *SSD) Trim(lpn int64, n int64) error {
	if lpn < 0 || lpn+n > int64(d.logicalPages) {
		return fmt.Errorf("ssd: trim [%d,+%d) beyond %d logical pages", lpn, n, d.logicalPages)
	}
	for i := int64(0); i < n; i++ {
		d.invalidate(int32(lpn + i))
	}
	return nil
}

// invalidate drops the current mapping of logical page l, if any.
func (d *SSD) invalidate(l int32) {
	ppn := d.l2p.get(l)
	if ppn == ppnInvalid {
		return
	}
	b := ppn / int32(d.cfg.PagesPerBlock)
	d.blocks[b].valid--
	d.p2l.set(ppn, ppnInvalid)
	d.l2p.set(l, ppnInvalid)
}

// writePage maps logical page l to a fresh physical page, returning any
// GC time incurred while allocating.
func (d *SSD) writePage(l int32) time.Duration {
	d.invalidate(l)
	gcTime := d.ensureSpace()
	ppn := d.allocPage()
	d.l2p.set(l, ppn)
	d.p2l.set(ppn, l)
	b := ppn / int32(d.cfg.PagesPerBlock)
	d.blocks[b].valid++
	return gcTime
}

// allocPage takes the next page of the active block, opening a new block
// when the active one fills. ensureSpace must have been called.
func (d *SSD) allocPage() int32 {
	ab := &d.blocks[d.active]
	if ab.next >= int32(d.cfg.PagesPerBlock) {
		d.active = d.findFreeBlock()
		d.freeBlocks--
		ab = &d.blocks[d.active]
	}
	ppn := d.active*int32(d.cfg.PagesPerBlock) + ab.next
	ab.next++
	return ppn
}

// findFreeBlock returns a fully-erased block.
func (d *SSD) findFreeBlock() int32 {
	for i := range d.blocks {
		if d.blocks[i].next == 0 && d.blocks[i].valid == 0 {
			return int32(i)
		}
	}
	panic("ssd: no free block (GC invariant violated)")
}

// ensureSpace runs foreground GC when free blocks drop below the low
// watermark, reclaiming until the high watermark. Returns the time spent.
func (d *SSD) ensureSpace() time.Duration {
	low := int32(float64(d.cfg.Blocks) * d.cfg.GCLowWater)
	if low < 1 {
		low = 1
	}
	if d.freeBlocks > low {
		return 0
	}
	high := int32(float64(d.cfg.Blocks) * d.cfg.GCHighWater)
	if high <= low {
		high = low + 1
	}
	var t time.Duration
	d.stats.GCRuns++
	for d.freeBlocks < high {
		victim := d.pickVictim()
		if victim < 0 {
			break // nothing reclaimable
		}
		t += d.collect(victim)
	}
	d.stats.GCTime += t
	return t
}

// pickVictim selects the full block with the fewest valid pages (greedy
// GC), breaking ties toward the block with the fewest erases so wear
// spreads instead of cycling the same blocks. Returns -1 when no full
// block exists.
func (d *SSD) pickVictim() int32 {
	best := int32(-1)
	bestValid := int32(d.cfg.PagesPerBlock) + 1
	bestErases := int32(1<<31 - 1)
	for i := range d.blocks {
		b := &d.blocks[i]
		if int32(i) == d.active || b.next < int32(d.cfg.PagesPerBlock) {
			continue // only full blocks are victims
		}
		if b.valid < bestValid || (b.valid == bestValid && b.erases < bestErases) {
			bestValid = b.valid
			bestErases = b.erases
			best = int32(i)
		}
	}
	if bestValid >= int32(d.cfg.PagesPerBlock) {
		return -1 // all candidates fully valid: erasing gains nothing
	}
	return best
}

// collect relocates the victim's valid pages and erases it.
func (d *SSD) collect(victim int32) time.Duration {
	ppb := int32(d.cfg.PagesPerBlock)
	start := victim * ppb
	var moved int64
	for p := start; p < start+ppb; p++ {
		l := d.p2l.get(p)
		if l == ppnInvalid {
			continue
		}
		// Relocate: read + program into the active block.
		d.p2l.set(p, ppnInvalid)
		d.blocks[victim].valid--
		ppn := d.allocPage()
		d.l2p.set(l, ppn)
		d.p2l.set(ppn, l)
		d.blocks[ppn/ppb].valid++
		moved++
	}
	d.blocks[victim] = blockState{erases: d.blocks[victim].erases + 1}
	d.freeBlocks++
	d.stats.Erases++
	d.stats.GCPagesMoved += moved
	d.stats.FlashPagesWritten += moved
	return time.Duration(moved)*(d.cfg.ReadPageLatency+d.cfg.ProgramLatency) + d.cfg.EraseLatency
}

// CheckInvariants validates internal FTL consistency; tests call it after
// workloads. It returns nil when the state is consistent. It walks the
// page maps' allocated chunks only.
func (d *SSD) CheckInvariants() error {
	ppb := int32(d.cfg.PagesPerBlock)
	validPerBlock := make([]int32, d.cfg.Blocks)
	mapped := 0
	for ci, c := range d.l2p.chunks {
		for j := 0; c != nil && j < chunkLen; j++ {
			l, ppn := int32(ci<<chunkShift+j), c[j]
			if ppn == ppnInvalid {
				continue
			}
			if l >= d.logicalPages || ppn < 0 || ppn >= d.totalPages {
				return fmt.Errorf("l2p[%d]=%d out of range", l, ppn)
			}
			if d.p2l.get(ppn) != l {
				return fmt.Errorf("l2p[%d]=%d but p2l[%d]=%d", l, ppn, ppn, d.p2l.get(ppn))
			}
			validPerBlock[ppn/ppb]++
			mapped++
		}
	}
	back := 0
	for ci, c := range d.p2l.chunks {
		for j := 0; c != nil && j < chunkLen; j++ {
			p, l := int32(ci<<chunkShift+j), c[j]
			if l == ppnInvalid {
				continue
			}
			if p >= d.totalPages || l < 0 || l >= d.logicalPages {
				return fmt.Errorf("p2l[%d]=%d out of range", p, l)
			}
			if d.l2p.get(l) != p {
				return fmt.Errorf("p2l[%d]=%d but l2p[%d]=%d", p, l, l, d.l2p.get(l))
			}
			back++
		}
	}
	if mapped != back {
		return fmt.Errorf("mapping asymmetry: %d forward vs %d backward", mapped, back)
	}
	free := int32(0)
	for i := range d.blocks {
		if d.blocks[i].valid != validPerBlock[i] {
			return fmt.Errorf("block %d valid=%d, recount=%d", i, d.blocks[i].valid, validPerBlock[i])
		}
		if d.blocks[i].next == 0 && d.blocks[i].valid == 0 && int32(i) != d.active {
			free++
		}
		if d.blocks[i].next > ppb || d.blocks[i].valid > d.blocks[i].next {
			return fmt.Errorf("block %d inconsistent: next=%d valid=%d", i, d.blocks[i].next, d.blocks[i].valid)
		}
	}
	if free != d.freeBlocks {
		return fmt.Errorf("freeBlocks=%d, recount=%d", d.freeBlocks, free)
	}
	return nil
}

// MaxErases returns the highest per-block erase count (wear skew probe).
func (d *SSD) MaxErases() int32 {
	var m int32
	for i := range d.blocks {
		if d.blocks[i].erases > m {
			m = d.blocks[i].erases
		}
	}
	return m
}
