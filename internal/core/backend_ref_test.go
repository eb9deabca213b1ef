package core

// The three backends Backend replaced, kept verbatim (identifiers
// prefixed ref) as the reference TestBackendMatchesReference holds the
// merged type to: equal completion times, errors, fault accounting,
// observability events and statistics.

import (
	"fmt"
	"time"

	"edc/internal/fault"
	"edc/internal/hdd"
	"edc/internal/obs"
	"edc/internal/rais"
	"edc/internal/sim"
	"edc/internal/ssd"
)

// refBackend abstracts the flash storage under EDC: a single SSD or a RAIS
// array. Operations are asynchronous in virtual time: done fires when the
// device(s) complete the transfer, including any queueing behind earlier
// operations. done receives the operation outcome — nil, or a
// *fault.Error when an attached fault plan failed the operation (the
// device still occupied its queue for the attempt). Backends without an
// injected plan always complete with nil.
type refBackend interface {
	// LogicalBytes is the host-visible capacity EDC may allocate from.
	LogicalBytes() int64
	// PageSize is the device page granularity in bytes.
	PageSize() int
	// Read fetches bytes at devOff.
	Read(devOff, bytes int64, done func(err error))
	// Write stores bytes at devOff.
	Write(devOff, bytes int64, done func(err error))
	// Trim discards whole pages covered by [devOff, devOff+bytes).
	Trim(devOff, bytes int64)
	// DeviceStats snapshots per-member device counters.
	DeviceStats() []ssd.Stats
	// QueueStats snapshots per-member device queue counters.
	QueueStats() []sim.Stats
	// Describe returns a short human-readable backend description.
	Describe() string
}

// refFaultInjectable is implemented by backends that can consult a fault
// plan on every operation. NewDevice calls InjectFaults when
// Options.Faults is active; col and st receive the backend-level fault
// observations (injected faults, degraded-read reconstructions).
type refFaultInjectable interface {
	// InjectFaults attaches the plan's per-device decision streams.
	InjectFaults(p *fault.Plan, col *obs.Collector, st *RunStats)
}

// span converts a byte extent to a (lpn, pages) pair clamped to
// maxPages. The page count depends only on the transfer size — EDC packs
// compressed slots into pages (paper Fig. 5), so an n-byte object
// occupies ceil(n/pageSize) pages regardless of its byte offset within
// the packed log.
func refSpan(devOff, bytes int64, pageSize int, maxPages int64) (lpn, pages int64) {
	if bytes <= 0 {
		return 0, 0
	}
	ps := int64(pageSize)
	start := devOff / ps
	n := (bytes + ps - 1) / ps
	if start+n > maxPages {
		start = maxPages - n
		if start < 0 {
			start = 0
			n = maxPages
		}
	}
	return start, n
}

// trimSpan returns the whole pages fully inside [devOff, devOff+bytes).
func refTrimSpan(devOff, bytes int64, pageSize int, maxPages int64) (lpn, pages int64) {
	ps := int64(pageSize)
	start := (devOff + ps - 1) / ps
	end := (devOff + bytes) / ps
	if end > maxPages {
		end = maxPages
	}
	if start >= end {
		return 0, 0
	}
	return start, end - start
}

// refSingleSSD is a refBackend over one simulated device with a FIFO queue.
type refSingleSSD struct {
	dev *ssd.SSD
	st  *sim.Station
	eng *sim.Engine

	inj    *fault.Injector
	fobs   *obs.Collector
	fstats *RunStats
}

// newRefSingleSSD wires dev to a station on eng.
func newRefSingleSSD(eng *sim.Engine, dev *ssd.SSD) *refSingleSSD {
	return &refSingleSSD{dev: dev, st: sim.NewStation(eng, "ssd0"), eng: eng}
}

// InjectFaults implements refFaultInjectable.
func (b *refSingleSSD) InjectFaults(p *fault.Plan, col *obs.Collector, st *RunStats) {
	b.inj = p.Injector(0)
	b.fobs = col
	b.fstats = st
}

// decide consults the injector for one operation (nil injector: clean).
func (b *refSingleSSD) decide(write bool, lpn, bytes int64) (*fault.Error, time.Duration) {
	if b.inj == nil {
		return nil, 0
	}
	out := b.inj.Op(b.eng.Now(), write, lpn)
	if out.Err != nil {
		b.fstats.Faults++
		b.fobs.Fault(b.eng.Now(), out.Err.Op, 0, lpn*int64(b.PageSize()), bytes, out.Err.Transient)
	}
	return out.Err, out.Extra
}

// LogicalBytes implements refBackend.
func (b *refSingleSSD) LogicalBytes() int64 { return b.dev.LogicalBytes() }

// PageSize implements refBackend.
func (b *refSingleSSD) PageSize() int { return b.dev.Config().PageSize }

// Read implements refBackend.
func (b *refSingleSSD) Read(devOff, bytes int64, done func(err error)) {
	lpn, pages := refSpan(devOff, bytes, b.PageSize(), b.dev.LogicalPages())
	svc, err := b.dev.ReadTime(lpn, pages*int64(b.PageSize()))
	if err != nil {
		panic(fmt.Sprintf("core: backend read: %v", err))
	}
	ferr, fextra := b.decide(false, lpn, bytes)
	b.st.Submit(sim.Job{Service: svc + fextra, Done: func(_, _ time.Duration) { done(ferr.AsError()) }})
}

// Write implements refBackend.
func (b *refSingleSSD) Write(devOff, bytes int64, done func(err error)) {
	lpn, pages := refSpan(devOff, bytes, b.PageSize(), b.dev.LogicalPages())
	svc, err := b.dev.WriteTime(lpn, pages*int64(b.PageSize()))
	if err != nil {
		panic(fmt.Sprintf("core: backend write: %v", err))
	}
	ferr, fextra := b.decide(true, lpn, bytes)
	b.st.Submit(sim.Job{Service: svc + fextra, Done: func(_, _ time.Duration) { done(ferr.AsError()) }})
}

// Trim implements refBackend.
func (b *refSingleSSD) Trim(devOff, bytes int64) {
	lpn, pages := refTrimSpan(devOff, bytes, b.PageSize(), b.dev.LogicalPages())
	if pages == 0 {
		return
	}
	if err := b.dev.Trim(lpn, pages); err != nil {
		panic(fmt.Sprintf("core: backend trim: %v", err))
	}
}

// DeviceStats implements refBackend.
func (b *refSingleSSD) DeviceStats() []ssd.Stats { return []ssd.Stats{b.dev.Stats()} }

// QueueStats implements refBackend.
func (b *refSingleSSD) QueueStats() []sim.Stats { return []sim.Stats{b.st.Stats()} }

// Describe implements refBackend.
func (b *refSingleSSD) Describe() string {
	return fmt.Sprintf("single SSD (%d MiB logical)", b.dev.LogicalBytes()>>20)
}

// refRAISBackend is a refBackend over a rais.Array, with one queue per member
// device. Sub-operations on different members proceed in parallel; RAIS5
// read-modify-write runs its read phase before its write phase. With a
// fault plan injected, a hard read failure on a RAIS5 member triggers a
// degraded read: the missing stripe unit is reconstructed from the
// surviving members and the operation completes successfully (the
// paper's Fig. 11 array exists exactly for this).
type refRAISBackend struct {
	arr *rais.Array
	sts []*sim.Station
	eng *sim.Engine

	injs   []*fault.Injector
	fobs   *obs.Collector
	fstats *RunStats
}

var (
	_ refBackend         = (*refSingleSSD)(nil)
	_ refBackend         = (*refRAISBackend)(nil)
	_ refFaultInjectable = (*refSingleSSD)(nil)
	_ refFaultInjectable = (*refRAISBackend)(nil)
	_ refFaultInjectable = (*refHDDBackend)(nil)
)

// newRefRAISBackend wires each member device to its own station.
func newRefRAISBackend(eng *sim.Engine, arr *rais.Array) *refRAISBackend {
	sts := make([]*sim.Station, len(arr.Devices()))
	for i := range sts {
		sts[i] = sim.NewStation(eng, fmt.Sprintf("ssd%d", i))
	}
	return &refRAISBackend{arr: arr, sts: sts, eng: eng}
}

// InjectFaults implements refFaultInjectable: each member device gets its
// own decorrelated decision stream.
func (b *refRAISBackend) InjectFaults(p *fault.Plan, col *obs.Collector, st *RunStats) {
	b.injs = make([]*fault.Injector, len(b.sts))
	for i := range b.injs {
		b.injs[i] = p.Injector(i)
	}
	b.fobs = col
	b.fstats = st
}

// LogicalBytes implements refBackend.
func (b *refRAISBackend) LogicalBytes() int64 { return b.arr.LogicalBytes() }

// PageSize implements refBackend.
func (b *refRAISBackend) PageSize() int { return b.arr.PageSize() }

// issue submits sub-ops to member stations, calling next when all
// complete. Fault outcomes are decided at submit time in
// sub-op order, so the decision stream is deterministic; next receives
// the first (by completion) sub-op error, with RAIS5 hard read failures
// absorbed by degraded reads.
func (b *refRAISBackend) issue(ops []rais.SubOp, next func(err error)) {
	if len(ops) == 0 {
		next(nil)
		return
	}
	remaining := len(ops)
	var firstErr error
	devs := b.arr.Devices()
	sub := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
		remaining--
		if remaining == 0 {
			next(firstErr)
		}
	}
	for _, op := range ops {
		var svc time.Duration
		var err error
		if op.Write {
			svc, err = devs[op.Dev].WriteTime(op.LPN, op.Bytes)
		} else {
			svc, err = devs[op.Dev].ReadTime(op.LPN, op.Bytes)
		}
		if err != nil {
			panic(fmt.Sprintf("core: rais sub-op: %v", err))
		}
		var ferr *fault.Error
		if b.injs != nil {
			out := b.injs[op.Dev].Op(b.eng.Now(), op.Write, op.LPN)
			svc += out.Extra
			if out.Err != nil {
				ferr = out.Err
				b.fstats.Faults++
				b.fobs.Fault(b.eng.Now(), ferr.Op, op.Dev, op.LPN*int64(b.PageSize()), op.Bytes, ferr.Transient)
			}
		}
		if ferr != nil && !op.Write && !ferr.Transient && b.arr.Level() == rais.RAIS5 {
			// The member failed the read for good; after the attempt's
			// service time, rebuild its stripe unit from the survivors.
			op := op
			b.sts[op.Dev].Submit(sim.Job{Service: svc, Done: func(_, _ time.Duration) {
				b.degradedRead(op, sub)
			}})
			continue
		}
		e := ferr.AsError()
		b.sts[op.Dev].Submit(sim.Job{Service: svc, Done: func(_, _ time.Duration) { sub(e) }})
	}
}

// degradedRead reconstructs one failed member's stripe unit by reading
// the same device pages from every surviving member (the left-symmetric
// layout keeps a stripe's units at identical device-page indices).
// Reconstruction reads bypass fault injection: the model injects one
// failure per stripe, matching RAIS5's single-failure tolerance.
func (b *refRAISBackend) degradedRead(op rais.SubOp, done func(err error)) {
	start := b.eng.Now()
	b.fstats.DegradedReads++
	b.fobs.DegradedRead(start, op.Dev, op.LPN*int64(b.PageSize()), op.Bytes)
	devs := b.arr.Devices()
	remaining := len(devs) - 1
	for i := range devs {
		if i == op.Dev {
			continue
		}
		svc, err := devs[i].ReadTime(op.LPN, op.Bytes)
		if err != nil {
			panic(fmt.Sprintf("core: rais degraded read: %v", err))
		}
		b.sts[i].Submit(sim.Job{Service: svc, Done: func(_, _ time.Duration) {
			remaining--
			if remaining == 0 {
				b.fstats.DegradedReadTime += b.eng.Now() - start
				done(nil)
			}
		}})
	}
}

// Read implements refBackend.
func (b *refRAISBackend) Read(devOff, bytes int64, done func(err error)) {
	lpn, pages := refSpan(devOff, bytes, b.PageSize(), b.arr.LogicalPages())
	if pages == 0 {
		done(nil)
		return
	}
	ops, err := b.arr.MapRead(lpn, pages)
	if err != nil {
		panic(fmt.Sprintf("core: rais read map: %v", err))
	}
	b.issue(ops, done)
}

// Write implements refBackend.
func (b *refRAISBackend) Write(devOff, bytes int64, done func(err error)) {
	lpn, pages := refSpan(devOff, bytes, b.PageSize(), b.arr.LogicalPages())
	if pages == 0 {
		done(nil)
		return
	}
	ops, err := b.arr.MapWrite(lpn, pages)
	if err != nil {
		panic(fmt.Sprintf("core: rais write map: %v", err))
	}
	// Split read-modify-write into its two phases: parity/old-data reads
	// complete before any write is issued. A failed read phase aborts the
	// write phase and reports the read error.
	var reads, writes []rais.SubOp
	for _, op := range ops {
		if op.Write {
			writes = append(writes, op)
		} else {
			reads = append(reads, op)
		}
	}
	b.issue(reads, func(err error) {
		if err != nil {
			done(err)
			return
		}
		b.issue(writes, done)
	})
}

// Trim implements refBackend.
func (b *refRAISBackend) Trim(devOff, bytes int64) {
	lpn, pages := refTrimSpan(devOff, bytes, b.PageSize(), b.arr.LogicalPages())
	if pages == 0 {
		return
	}
	ops, err := b.arr.MapRead(lpn, pages) // data placement, no parity
	if err != nil {
		return
	}
	ps := int64(b.PageSize())
	for _, op := range ops {
		if err := b.arr.Devices()[op.Dev].Trim(op.LPN, op.Bytes/ps); err != nil {
			panic(fmt.Sprintf("core: rais trim: %v", err))
		}
	}
}

// DeviceStats implements refBackend.
func (b *refRAISBackend) DeviceStats() []ssd.Stats {
	out := make([]ssd.Stats, 0, len(b.arr.Devices()))
	for _, d := range b.arr.Devices() {
		out = append(out, d.Stats())
	}
	return out
}

// QueueStats implements refBackend.
func (b *refRAISBackend) QueueStats() []sim.Stats {
	out := make([]sim.Stats, 0, len(b.sts))
	for _, s := range b.sts {
		out = append(out, s.Stats())
	}
	return out
}

// Describe implements refBackend.
func (b *refRAISBackend) Describe() string {
	return fmt.Sprintf("%s x%d (%d MiB logical)", b.arr.Level(), len(b.sts), b.arr.LogicalBytes()>>20)
}

// refHDDBackend adapts the analytical disk model to the refBackend interface
// (the paper's future work: evaluating EDC on HDD-based systems). Disks
// have no FTL, so DeviceStats reports an empty slice; use DiskStats for
// the disk-specific counters.
type refHDDBackend struct {
	dev *hdd.HDD
	st  *sim.Station
	eng *sim.Engine

	inj    *fault.Injector
	fobs   *obs.Collector
	fstats *RunStats
}

var _ refBackend = (*refHDDBackend)(nil)

// newRefHDDBackend wires the disk to a station on eng.
func newRefHDDBackend(eng *sim.Engine, dev *hdd.HDD) *refHDDBackend {
	return &refHDDBackend{dev: dev, st: sim.NewStation(eng, "hdd0"), eng: eng}
}

// InjectFaults implements refFaultInjectable.
func (b *refHDDBackend) InjectFaults(p *fault.Plan, col *obs.Collector, st *RunStats) {
	b.inj = p.Injector(0)
	b.fobs = col
	b.fstats = st
}

// decide consults the injector for one operation (nil injector: clean).
func (b *refHDDBackend) decide(write bool, off, bytes int64) (*fault.Error, time.Duration) {
	if b.inj == nil {
		return nil, 0
	}
	out := b.inj.Op(b.eng.Now(), write, off/int64(b.PageSize()))
	if out.Err != nil {
		b.fstats.Faults++
		b.fobs.Fault(b.eng.Now(), out.Err.Op, 0, off, bytes, out.Err.Transient)
	}
	return out.Err, out.Extra
}

// LogicalBytes implements refBackend.
func (b *refHDDBackend) LogicalBytes() int64 { return b.dev.LogicalBytes() }

// PageSize implements refBackend.
func (b *refHDDBackend) PageSize() int { return b.dev.Config().BlockSize }

// Read implements refBackend.
func (b *refHDDBackend) Read(devOff, bytes int64, done func(err error)) {
	off, n := b.clamp(devOff, bytes)
	svc, err := b.dev.ReadTime(off, n)
	if err != nil {
		panic(fmt.Sprintf("core: hdd read: %v", err))
	}
	ferr, fextra := b.decide(false, off, n)
	b.st.Submit(sim.Job{Service: svc + fextra, Done: func(_, _ time.Duration) { done(ferr.AsError()) }})
}

// Write implements refBackend.
func (b *refHDDBackend) Write(devOff, bytes int64, done func(err error)) {
	off, n := b.clamp(devOff, bytes)
	svc, err := b.dev.WriteTime(off, n)
	if err != nil {
		panic(fmt.Sprintf("core: hdd write: %v", err))
	}
	ferr, fextra := b.decide(true, off, n)
	b.st.Submit(sim.Job{Service: svc + fextra, Done: func(_, _ time.Duration) { done(ferr.AsError()) }})
}

// clamp bounds an access to the disk capacity.
func (b *refHDDBackend) clamp(devOff, bytes int64) (int64, int64) {
	cap := b.dev.LogicalBytes()
	if bytes <= 0 {
		return 0, 0
	}
	if devOff < 0 {
		devOff = 0
	}
	if devOff+bytes > cap {
		devOff = cap - bytes
		if devOff < 0 {
			devOff = 0
			bytes = cap
		}
	}
	return devOff, bytes
}

// Trim implements refBackend: disks have no discard semantics to model.
func (b *refHDDBackend) Trim(devOff, bytes int64) {}

// DeviceStats implements refBackend (no flash counters on a disk).
func (b *refHDDBackend) DeviceStats() []ssd.Stats { return nil }

// DiskStats returns the disk-specific counters.
func (b *refHDDBackend) DiskStats() hdd.Stats { return b.dev.Stats() }

// QueueStats implements refBackend.
func (b *refHDDBackend) QueueStats() []sim.Stats { return []sim.Stats{b.st.Stats()} }

// Describe implements refBackend.
func (b *refHDDBackend) Describe() string {
	return fmt.Sprintf("single HDD (%d MiB, %d RPM)", b.dev.LogicalBytes()>>20, b.dev.Config().RPM)
}
