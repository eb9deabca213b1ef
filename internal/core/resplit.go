package core

import (
	"fmt"

	"edc/internal/maint"
)

// Heat-balanced shard repartitioning. A statically partitioned serve
// volume wastes cores when the workload skews: one shard's event loop
// saturates while the others idle, and the shared codec pool can only
// help with compression work, not with the serialized mapping/allocator
// work on the hot shard's loop. Resplitting attacks the loop itself —
// when one shard's admitted-op share stays above its fair share for
// several evaluation windows, its LBA range is split at a quiesced,
// heat-balanced boundary into two shards with independent event loops.
//
// The protocol (see DESIGN.md §16 for the full story):
//
//  1. Trigger: each shard counts admitted ops; every WindowOps of its
//     own ops it compares its delta against the fleet's. Exceeding
//     Factor times the post-split fair share for Streak consecutive
//     windows arms a split.
//  2. Quiesce: the shard requests the router's write lock from a helper
//     goroutine while its event loop keeps draining its own mailbox —
//     a submitter holding the read lock may be blocked on exactly this
//     mailbox, so parking without draining would deadlock. Once the
//     lock is held the residual mailbox is drained, the engine runs
//     pending work dry (the SD flush timer is a normal event, so the
//     staging buffer empties too), and the split proceeds only if
//     nothing is left in flight.
//  3. Split: a heat-weighted scan picks the boundary that halves the
//     shard's access weight without straddling any extent's home range;
//     a new pipeline is stamped from the setup factories, the tail's
//     block mappings are cloned into it (slots reallocated on the new
//     backend), the source tail is trimmed (freeing its slots), and the
//     router's bounds/shards tables are spliced under the held lock.
//
// Incompatible lists the features resplitting is refused with. It is
// driven by real-time traffic imbalance, so runs with it enabled are not
// byte-deterministic across machines; it is off by default and every
// determinism gate runs without it.

// ResplitConfig tunes heat-balanced shard repartitioning in serve mode;
// a nil config disables it, and zero thresholds apply the defaults noted
// per field.
type ResplitConfig struct {
	// MaxShards caps the total shard count; splits stop once reached
	// (0: twice the initial shard count).
	MaxShards int
	// Factor is how many times the post-split fair share (total window
	// ops divided by shards+1) a shard's window delta must reach to be
	// considered hot (0: 2.0).
	Factor float64
	// WindowOps is how many of its own admitted ops a shard waits
	// between trigger evaluations (0: 4096).
	WindowOps int64
	// Streak is how many consecutive hot windows arm a split (0: 3).
	Streak int
}

// normalized returns a copy with the documented defaults applied against
// the initial shard count; nil stays nil.
func (cfg *ResplitConfig) normalized(initialShards int) *ResplitConfig {
	if cfg == nil {
		return nil
	}
	c := *cfg
	if c.MaxShards <= 0 {
		c.MaxShards = 2 * initialShards
	}
	if c.Factor <= 0 {
		c.Factor = 2.0
	}
	if c.WindowOps <= 0 {
		c.WindowOps = 4096
	}
	if c.Streak <= 0 {
		c.Streak = 3
	}
	return &c
}

// maybeResplit evaluates the repartitioning trigger on this shard's
// event-loop goroutine: every WindowOps of its own admitted ops, the
// shard compares its window delta against the fleet total; sustaining
// Factor times the post-split fair share for Streak windows starts a
// split attempt.
func (ss *serveShard) maybeResplit() {
	sv := ss.sv
	if sv.rcfg == nil || ss.splitting {
		return
	}
	self := ss.ops.Load()
	if self-ss.evalSelf < sv.rcfg.WindowOps {
		return
	}
	// Only try the router lock: another shard's split may be waiting for
	// the write lock behind a submitter that holds the read lock while
	// blocked on this shard's full mailbox, so this loop must keep
	// draining rather than wait. The evaluation retries next batch.
	if !sv.mu.TryRLock() {
		return
	}
	n := len(sv.shards)
	var total int64
	for _, s := range sv.shards {
		total += s.ops.Load()
	}
	sv.mu.RUnlock()
	dSelf := self - ss.evalSelf
	dTotal := total - ss.evalTotal
	ss.evalSelf, ss.evalTotal = self, total
	if n >= sv.rcfg.MaxShards || dTotal <= 0 {
		ss.streak = 0
		return
	}
	// Fair share is measured post-split (total over shards+1): a shard
	// is hot when splitting it would still leave both halves with work,
	// which also lets a single-shard system split at Factor 2.0.
	fair := float64(dTotal) / float64(n+1)
	if float64(dSelf) < sv.rcfg.Factor*fair {
		ss.streak = 0
		return
	}
	ss.streak++
	if ss.streak < sv.rcfg.Streak {
		return
	}
	ss.streak = 0
	ss.trySplit()
}

// trySplit quiesces this shard and, holding the router's write lock,
// splits its LBA range. Runs on the shard's event-loop goroutine.
func (ss *serveShard) trySplit() {
	sv := ss.sv
	ss.splitting = true
	defer func() { ss.splitting = false }()
	lockc := make(chan struct{})
	go func() {
		sv.mu.Lock()
		close(lockc)
	}()
	// Keep draining our own mailbox while the helper waits for the
	// write lock: a submitter holding the read lock may be blocked
	// mailing to this very shard, and the write lock is not granted
	// until every reader releases.
	stop := ss.stop
wait:
	for {
		select {
		case <-lockc:
			break wait
		case req := <-ss.mail:
			ss.ingest(req)
		case <-stop:
			// Stop is racing us; disable this case (a closed channel
			// fires forever) and keep waiting for the lock — the closed
			// flag check below aborts the split, and the run loop sees
			// the stop again afterwards.
			stop = nil
		}
	}
	defer sv.mu.Unlock()
	if sv.closed {
		return
	}
	// Quiesce: drain residual mail, then run the engine dry of real
	// events. The SD flush timer is a normal event, so RunPending
	// empties the staging buffer; maintenance timers are housekeeping
	// and stay parked. Split only if truly nothing is left in flight.
	for {
		select {
		case req := <-ss.mail:
			ss.ingest(req)
			continue
		default:
		}
		break
	}
	ss.dev.armTimers()
	ss.dev.eng.RunPending()
	ss.publish()
	if ss.dev.fs.failed() || len(ss.pending) > 0 {
		return
	}
	sv.splitShard(ss)
}

// splitShard splits ss's LBA range at a heat-balanced boundary. Called
// with the router's write lock held and ss fully quiesced.
func (sv *Server) splitShard(ss *serveShard) {
	idx := -1
	for i, s := range sv.shards {
		if s == ss {
			idx = i
			break
		}
	}
	if idx < 0 {
		return
	}
	d := ss.dev
	width := sv.part.width(idx)
	widthBlocks := width / BlockSize
	if widthBlocks < 2 {
		return
	}
	splitBlock := chooseSplitBlock(d, widthBlocks)
	if splitBlock <= 0 || splitBlock >= widthBlocks {
		return
	}
	localSplit := splitBlock * BlockSize
	ns, kid, err := sv.buildShard(len(sv.kids), width-localSplit)
	if err != nil {
		return
	}
	// Align the new engine's clock with the source shard's so heat
	// epochs and maintenance deadlines agree across the split.
	ns.dev.eng.RunUntil(d.eng.Now())
	nse := ns.dev.se
	var movedSlot int64
	clone := func(e *Extent) (*Extent, error) {
		if e.pending || e.shared {
			return nil, fmt.Errorf("core: extent at %d not movable (pending=%v shared=%v)", e.Offset, e.pending, e.shared)
		}
		ne := &Extent{
			Offset:  e.Offset - localSplit,
			OrigLen: e.OrigLen,
			CompLen: e.CompLen,
			SlotLen: e.SlotLen,
			Tag:     e.Tag,
			Version: e.Version,
			Heat:    e.Heat,
		}
		if err := nse.allocSlot(ne); err != nil {
			return nil, err
		}
		movedSlot += ne.SlotLen
		return ne, nil
	}
	moved, err := d.se.mapping.SplitTail(localSplit, nse.mapping, clone)
	if err != nil {
		// The new shard never went live: abandon it (its partially
		// built mapping, slots, and collector are unreachable) and keep
		// serving the unsplit range.
		return
	}
	// Retire the migrated tail from the source shard, freeing its slots
	// on the old backend, and restart its persisted state from what is
	// left. A failure here means the two shards disagree about who owns
	// the tail — fatal for the source.
	err = d.se.mapping.Trim(localSplit, width-localSplit)
	if err == nil {
		err = d.per.rebase()
	}
	if err != nil {
		d.fs.fail(err)
		return
	}
	// The source's lookahead ring was predicted over the unsplit range.
	d.wp.la.cancelFrom(0, d.se)
	d.wp.la = nil
	// Splice the router: the new shard serves the tail of ss's range.
	bounds := append(sv.part.bounds, 0)
	copy(bounds[idx+2:], bounds[idx+1:])
	bounds[idx+1] = bounds[idx] + localSplit
	sv.part.bounds = bounds
	sv.shards = append(sv.shards, nil)
	copy(sv.shards[idx+2:], sv.shards[idx+1:])
	sv.shards[idx+1] = ns
	sv.kids = append(sv.kids, kid)
	d.stats.Resplits++
	d.obs.Resplit(d.eng.Now(), localSplit, moved, movedSlot,
		d.se.mapping.LiveBlocks(), nse.mapping.LiveBlocks())
	// Reset this shard's trigger marks against the new fleet total; the
	// new shard starts its own window from zero.
	ss.evalSelf = ss.ops.Load()
	ss.evalTotal = 0
	for _, s := range sv.shards {
		ss.evalTotal += s.ops.Load()
	}
	go ns.run()
}

// chooseSplitBlock picks the boundary (in blocks, shard-local) that
// halves the shard's heat-weighted access mass without straddling any
// extent's home range. Weight per block is the mapped extent's current
// heat plus one (so cold data still counts by occupancy); unmapped
// blocks weigh nothing. Returns 0 when no valid boundary exists.
func chooseSplitBlock(d *Device, widthBlocks int64) int64 {
	m := d.se.mapping
	epoch := maint.Epoch(d.se.now(), d.se.epochLen)
	weight := func(b int64) int64 {
		e := m.table[b]
		if e == nil {
			return 0
		}
		return int64(e.Heat.Hits(epoch)) + 1
	}
	// minHome[b] = the lowest home-start block among extents mapped at
	// or beyond b: boundary b is safe iff minHome[b] >= b, i.e. no
	// extent mapped in the tail has live blocks (which are always
	// within its home range) on the left side.
	minHome := make([]int64, widthBlocks+1)
	minHome[widthBlocks] = widthBlocks
	for b := widthBlocks - 1; b >= 0; b-- {
		minHome[b] = minHome[b+1]
		if e := m.table[b]; e != nil {
			if h := e.Offset / BlockSize; h < minHome[b] {
				minHome[b] = h
			}
		}
	}
	var total int64
	for b := int64(0); b < widthBlocks; b++ {
		total += weight(b)
	}
	if total == 0 {
		return 0
	}
	var acc int64
	for b := int64(1); b < widthBlocks; b++ {
		acc += weight(b - 1)
		if 2*acc >= total && minHome[b] >= b {
			return b
		}
	}
	return 0
}
