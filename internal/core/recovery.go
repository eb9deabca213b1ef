package core

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"time"

	"edc/internal/compress"
	"edc/internal/dedup"
	"edc/internal/obs"
	"edc/internal/sim"
	"edc/internal/trace"
)

// Crash recovery
//
// A power cut stops the replay mid-flight: requests in the pipeline are
// lost, but every write whose device I/O completed is durable — its
// mapping record is in the journal (journal.go), and older state is in
// the last snapshot (persist.go). Recovery rebuilds the mapping by
// replaying the journal over the snapshot, rebuilds the allocator from
// the surviving extents, and resumes the replay from the cut.
//
// The simulated "disk" for the metadata is a pair of in-memory byte
// images owned by the persister; edcfsck -kind snapshot/journal checks
// the same images a recovery consumes.

// persister owns a device's crash-consistency state: the latest mapping
// snapshot and the journal of writes completed since. The device's
// checkpoint timer periodically folds the journal into a fresh snapshot.
type persister struct {
	dev      *Device
	snapshot []byte
	jnl      *Journal
}

// armPersistence turns on snapshotting + journaling at open when the
// run needs them: a checkpoint interval, a planned power cut in the
// fault plan, or force (PlayUntil). The initial snapshot captures the
// mapping as it stands — empty on a fresh device, recovered state after
// a crash — and the journal starts empty.
func (d *Device) armPersistence(force bool) error {
	if d.per != nil {
		return nil
	}
	if !force && d.snapEvery <= 0 && (d.faults == nil || d.faults.PowerCutAt <= 0) {
		return nil
	}
	d.per = &persister{dev: d, jnl: &Journal{}}
	d.wp.jnl = d.per.jnl
	if d.snapEvery > 0 {
		d.ckpt = sim.NewTimer(d.eng, d.snapEvery, d.per.tick)
	}
	var buf bytes.Buffer
	if err := d.se.mapping.SaveSnapshot(&buf); err != nil {
		return err
	}
	d.per.snapshot = buf.Bytes()
	return nil
}

// tick is the checkpoint timer's tick: one checkpoint, unless the run
// has failed. A failed run, or a failed checkpoint, stops the timer.
func (p *persister) tick() bool {
	if p.dev.fs.failed() {
		return false
	}
	if err := p.checkpoint(); err != nil {
		p.dev.fs.fail(err)
		return false
	}
	return true
}

// checkpoint folds the journal into the previous snapshot and resets
// the journal. The fold runs the recovery path on a shadow mapping —
// never the live one, whose in-flight writes are not yet durable — so a
// checkpoint is exactly as trustworthy as a recovery from it.
func (p *persister) checkpoint() error {
	m, _, err := recoverShadow(p.snapshot, p.jnl.Bytes(), p.dev.se.alloc.Capacity())
	if err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	var buf bytes.Buffer
	if err := m.SaveSnapshot(&buf); err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	p.snapshot = buf.Bytes()
	p.jnl.Reset()
	return nil
}

// recoverShadow rebuilds a mapping from a snapshot image plus a journal
// image over a scratch allocator of the given capacity. The scratch
// allocator absorbs the replay's frees and is discarded; callers
// rebuild their real allocator from the surviving extents (liveRanges).
func recoverShadow(snapshot, journal []byte, capacity int64) (*Mapping, int, error) {
	scratch := NewAllocator(capacity)
	m, err := LoadSnapshot(bytes.NewReader(snapshot), scratch, nil)
	if err != nil {
		return nil, 0, err
	}
	records, err := ReplayJournal(m, journal)
	if err != nil {
		return nil, 0, err
	}
	return m, records, nil
}

// RecoverMapping rebuilds a mapping from snapshot + journal images onto
// alloc (rebuilt to hold exactly the surviving extents' slots). It
// returns the mapping and the number of journal records applied; this
// is the function edcfsck and the recovery tests exercise directly.
func RecoverMapping(snapshot, journal []byte, alloc *Allocator) (*Mapping, int, error) {
	m, records, err := recoverShadow(snapshot, journal, alloc.Capacity())
	if err != nil {
		return nil, 0, err
	}
	if err := alloc.Rebuild(liveRanges(m)); err != nil {
		return nil, 0, err
	}
	m.alloc = alloc
	return m, records, nil
}

// liveRanges collects the device ranges of m's live extents, sorted by
// offset (the reserved set for Allocator.Rebuild). Slots abandoned to
// bad media by write re-allocation are not live and so return to the
// free pool — the simulated device has no persistent bad-block list.
func liveRanges(m *Mapping) []Range {
	rs := make([]Range, 0, m.extents)
	m.eachExtent(func(e *Extent) { rs = append(rs, Range{Off: e.DevOff, Len: e.SlotLen}) })
	sort.Slice(rs, func(i, j int) bool { return rs[i].Off < rs[j].Off })
	return rs
}

// CrashState is everything that survives a power cut: the persisted
// metadata images and the accounting of what was lost.
type CrashState struct {
	// Snapshot is the last checkpointed mapping snapshot.
	Snapshot []byte
	// Journal is the journal image at the cut (possibly mid-append in a
	// real system; here appends are atomic, so only whole records).
	Journal []byte
	// CutAt is the virtual time power was lost.
	CutAt time.Duration
	// Lost counts host requests in flight (admitted or queued) at the
	// cut; they never complete and are not in the response histograms.
	Lost int64
}

// PlayUntil replays t until virtual time cut, then simulates a power
// cut: the event loop stops, in-flight requests are lost, and the
// returned CrashState carries the persisted metadata a RecoverDevice
// resumes from. The partial RunStats covers completed requests only.
func (d *Device) PlayUntil(t *trace.Trace, cut time.Duration) (*RunStats, *CrashState, error) {
	if cut <= 0 {
		return nil, nil, errors.New("core: power cut time must be positive")
	}
	// Journal from time zero even without a checkpoint interval or a
	// planned cut in the fault plan: recovery needs a durable log.
	if err := d.open(true); err != nil {
		return nil, nil, err
	}
	d.stats.Trace = t.Name
	d.fe.start(t)
	d.eng.RunUntil(cut)
	lost := d.fe.inFlight + int64(d.fe.deferredLen())
	d.stats.CrashLost = lost
	d.close()
	cs := &CrashState{
		Snapshot: append([]byte(nil), d.per.snapshot...),
		Journal:  append([]byte(nil), d.per.jnl.Bytes()...),
		CutAt:    cut,
		Lost:     lost,
	}
	return d.stats, cs, d.fs.err
}

// RecoverDevice builds a fresh device over be and restores the mapping
// state from cs, as a restarted host would: snapshot + journal replay,
// allocator rebuild, version-counter resume, and (in verify mode)
// payload regeneration for surviving compressed extents. The caller
// then Plays the remainder of the trace on the returned device.
func RecoverDevice(eng *sim.Engine, be *Backend, volumeBytes int64, opts Options, cs *CrashState) (*Device, error) {
	d, err := NewDevice(eng, be, volumeBytes, opts)
	if err != nil {
		return nil, err
	}
	m, records, err := RecoverMapping(cs.Snapshot, cs.Journal, d.se.alloc)
	if err != nil {
		return nil, err
	}
	d.se.adoptMapping(m)

	// Resume the run version counter above every surviving extent, so
	// regenerated content for post-recovery writes never collides with
	// pre-crash versions of the same blocks.
	var maxVer uint32
	var content, payload []byte // scratch, reused across extents
	m.eachExtent(func(e *Extent) {
		if e.Version >= maxVer {
			maxVer = e.Version + 1
		}
		// Verify mode snapshots compressed extents only (keepPayload).
		snapshot := d.se.payloads != nil && e.Tag != compress.TagNone
		if err != nil || (d.se.dedup == nil && !snapshot) {
			return
		}
		// Regenerate the stored bytes (content is a pure function of
		// offset/length/version, so they match what the pre-crash device
		// stored).
		content = d.wp.data.AppendBlock(content[:0], e.Offset, int(e.OrigLen), e.Version)
		if d.se.dedup != nil {
			// Rebuild the content index: fingerprint every surviving
			// extent and register it, first-wins in table order —
			// deterministic, like the live path's registration at each
			// extent's durable point.
			e.sum = dedup.HashSum(dedup.DefaultKey, content)
			e.hasSum = true
			d.se.dedupRegister(e)
		}
		if !snapshot {
			return
		}
		var codec compress.Codec
		if codec, err = d.rp.reg.ByTag(e.Tag); err != nil {
			return
		}
		payload = codec.AppendCompress(payload[:0], content)
		d.se.keepPayload(e, payload)
	})
	if err != nil {
		return nil, err
	}
	d.wp.version = maxVer
	d.stats.Recoveries = 1
	d.obs.Recover(eng.Now(), obs.RecoverCrash, 0, m.LiveBlocks()*BlockSize, records)
	return d, nil
}
