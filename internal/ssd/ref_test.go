package ssd

import (
	"fmt"
	"time"
)

// refSSD is the FTL as it was before the page maps were chunked: dense
// l2p/p2l arrays sized to the device and filled with ppnInvalid at
// construction. TestMatchesDenseReference drives it in lockstep with SSD.
type refSSD struct {
	cfg Config

	logicalPages int32
	totalPages   int32

	l2p []int32
	p2l []int32

	blocks     []blockState
	active     int32
	freeBlocks int32

	stats Stats
}

func newRef(cfg Config) *refSSD {
	total := int32(cfg.Blocks * cfg.PagesPerBlock)
	logical := int32(float64(total) * (1 - cfg.OverProvision))
	d := &refSSD{
		cfg:          cfg,
		logicalPages: logical,
		totalPages:   total,
		l2p:          make([]int32, logical),
		p2l:          make([]int32, total),
		blocks:       make([]blockState, cfg.Blocks),
		freeBlocks:   int32(cfg.Blocks),
	}
	for i := range d.l2p {
		d.l2p[i] = ppnInvalid
	}
	for i := range d.p2l {
		d.p2l[i] = ppnInvalid
	}
	d.freeBlocks--
	return d
}

func (d *refSSD) transferTime(bytes int64) time.Duration {
	return time.Duration(bytes * int64(time.Second) / d.cfg.TransferBW)
}

func (d *refSSD) pagesFor(bytes int64) int64 {
	ps := int64(d.cfg.PageSize)
	return (bytes + ps - 1) / ps
}

func (d *refSSD) ReadTime(lpn int64, bytes int64) (time.Duration, error) {
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

func (d *refSSD) WriteTime(lpn int64, bytes int64) (time.Duration, error) {
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

func (d *refSSD) Trim(lpn int64, n int64) error {
	if lpn < 0 || lpn+n > int64(d.logicalPages) {
		return fmt.Errorf("ssd: trim [%d,+%d) beyond %d logical pages", lpn, n, d.logicalPages)
	}
	for i := int64(0); i < n; i++ {
		d.invalidate(int32(lpn + i))
	}
	return nil
}

func (d *refSSD) invalidate(l int32) {
	ppn := d.l2p[l]
	if ppn == ppnInvalid {
		return
	}
	d.blocks[ppn/int32(d.cfg.PagesPerBlock)].valid--
	d.p2l[ppn] = ppnInvalid
	d.l2p[l] = ppnInvalid
}

func (d *refSSD) writePage(l int32) time.Duration {
	d.invalidate(l)
	gcTime := d.ensureSpace()
	ppn := d.allocPage()
	d.l2p[l] = ppn
	d.p2l[ppn] = l
	d.blocks[ppn/int32(d.cfg.PagesPerBlock)].valid++
	return gcTime
}

func (d *refSSD) allocPage() int32 {
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

func (d *refSSD) findFreeBlock() int32 {
	for i := range d.blocks {
		if d.blocks[i].next == 0 && d.blocks[i].valid == 0 {
			return int32(i)
		}
	}
	panic("ssd: no free block (GC invariant violated)")
}

func (d *refSSD) ensureSpace() time.Duration {
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
			break
		}
		t += d.collect(victim)
	}
	d.stats.GCTime += t
	return t
}

func (d *refSSD) pickVictim() int32 {
	best := int32(-1)
	bestValid := int32(d.cfg.PagesPerBlock) + 1
	bestErases := int32(1<<31 - 1)
	for i := range d.blocks {
		b := &d.blocks[i]
		if int32(i) == d.active || b.next < int32(d.cfg.PagesPerBlock) {
			continue
		}
		if b.valid < bestValid || (b.valid == bestValid && b.erases < bestErases) {
			bestValid = b.valid
			bestErases = b.erases
			best = int32(i)
		}
	}
	if bestValid >= int32(d.cfg.PagesPerBlock) {
		return -1
	}
	return best
}

func (d *refSSD) collect(victim int32) time.Duration {
	ppb := int32(d.cfg.PagesPerBlock)
	start := victim * ppb
	var moved int64
	for p := start; p < start+ppb; p++ {
		l := d.p2l[p]
		if l == ppnInvalid {
			continue
		}
		d.p2l[p] = ppnInvalid
		d.blocks[victim].valid--
		ppn := d.allocPage()
		d.l2p[l] = ppn
		d.p2l[ppn] = l
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

func (d *refSSD) CheckInvariants() error {
	ppb := int32(d.cfg.PagesPerBlock)
	validPerBlock := make([]int32, d.cfg.Blocks)
	mapped := 0
	for l, ppn := range d.l2p {
		if ppn == ppnInvalid {
			continue
		}
		if ppn < 0 || ppn >= d.totalPages {
			return fmt.Errorf("l2p[%d]=%d out of range", l, ppn)
		}
		if d.p2l[ppn] != int32(l) {
			return fmt.Errorf("l2p[%d]=%d but p2l[%d]=%d", l, ppn, ppn, d.p2l[ppn])
		}
		validPerBlock[ppn/ppb]++
		mapped++
	}
	back := 0
	for p, l := range d.p2l {
		if l == ppnInvalid {
			continue
		}
		if d.l2p[l] != int32(p) {
			return fmt.Errorf("p2l[%d]=%d but l2p[%d]=%d", p, l, l, d.l2p[l])
		}
		back++
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

func (d *refSSD) MaxErases() int32 {
	var m int32
	for i := range d.blocks {
		if d.blocks[i].erases > m {
			m = d.blocks[i].erases
		}
	}
	return m
}
