package core

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

// Backend is the storage under EDC: member devices, each with its own
// FIFO queue and fault stream, behind a layout that maps a byte range of
// the host-visible space onto member sub-operations. A single SSD or a
// disk is one member under the identity layout (the disk's also clamps
// the range to its capacity); a RAIS0/RAIS5 array's layout is
// rais.Array's MapRead/MapWrite, and RAIS5 read-modify-write runs its
// read phase before its write phase.
//
// Operations are asynchronous in virtual time: done fires when the
// members complete the transfer, including any queueing behind earlier
// operations. done receives the operation outcome — nil, or a
// *fault.Error when an attached fault plan failed the operation (the
// member still occupied its queue for the attempt). A hard read failure
// on a RAIS5 member is absorbed by a degraded read: the missing stripe
// unit is reconstructed from the surviving members and the operation
// completes successfully (the paper's Fig. 11 array exists exactly for
// this). Without a plan every operation completes with nil.
type Backend struct {
	eng     *sim.Engine
	members []member
	arr     *rais.Array // the array layout; nil: identity over members[0]
	ps      int64       // page size in bytes
	size    int64       // host-visible capacity in bytes
	pages   int64       // whole pages in size

	fobs   *obs.Collector
	fstats *RunStats

	free []*memberOp // recycled member-operation records
}

// memberOp is one member operation in its queue: the outcome to report
// and the callback to report it to. fire, its completion, is bound once
// per record, and the record is recycled before the callback runs.
type memberOp struct {
	b    *Backend
	done func(err error)
	ferr *fault.Error
	fire func(_, _ time.Duration)
}

// finish recycles the record and reports the outcome.
func (op *memberOp) finish(_, _ time.Duration) {
	done, err := op.done, op.ferr.AsError()
	op.done, op.ferr = nil, nil
	op.b.free = append(op.b.free, op)
	done(err)
}

// member is one device under a Backend — an SSD or a disk; exactly one
// of ssd and hdd is set — with its queue and, once NewDevice attaches a
// fault plan, its decision stream.
type member struct {
	ssd *ssd.SSD
	hdd *hdd.HDD
	ps  int64 // page (SSD) or block (disk) size: the unit of fault LBAs
	st  *sim.Station
	inj *fault.Injector
}

// NewSSDBackend wires one SSD to a queue on eng.
func NewSSDBackend(eng *sim.Engine, d *ssd.SSD) *Backend {
	return newBackend(eng, nil, d.LogicalBytes(), member{ssd: d, ps: int64(d.Config().PageSize), st: sim.NewStation(eng, "ssd0")})
}

// NewArrayBackend wires each member SSD of arr to its own queue on eng;
// sub-operations on different members proceed in parallel.
func NewArrayBackend(eng *sim.Engine, arr *rais.Array) *Backend {
	ms := make([]member, len(arr.Devices()))
	for i, d := range arr.Devices() {
		ms[i] = member{ssd: d, ps: int64(arr.PageSize()), st: sim.NewStation(eng, fmt.Sprintf("ssd%d", i))}
	}
	return newBackend(eng, arr, arr.LogicalBytes(), ms...)
}

// NewDiskBackend wires the analytical disk model to a queue on eng (the
// paper's future work: EDC on HDD-based systems).
func NewDiskBackend(eng *sim.Engine, d *hdd.HDD) *Backend {
	return newBackend(eng, nil, d.LogicalBytes(), member{hdd: d, ps: int64(d.Config().BlockSize), st: sim.NewStation(eng, "hdd0")})
}

// newBackend assembles a backend of size host-visible bytes over ms,
// whose page size it takes from the first member.
func newBackend(eng *sim.Engine, arr *rais.Array, size int64, ms ...member) *Backend {
	ps := ms[0].ps
	return &Backend{eng: eng, members: ms, arr: arr, ps: ps, size: size, pages: size / ps}
}

// injectFaults attaches the plan: each member gets its own decorrelated
// decision stream, and col and st receive the injected faults and
// degraded-read reconstructions.
func (b *Backend) injectFaults(p *fault.Plan, col *obs.Collector, st *RunStats) {
	for i := range b.members {
		b.members[i].inj = p.Injector(i)
	}
	b.fobs, b.fstats = col, st
}

// LogicalBytes is the host-visible capacity EDC may allocate from.
func (b *Backend) LogicalBytes() int64 { return b.size }

// PageSize is the device page granularity in bytes.
func (b *Backend) PageSize() int { return int(b.ps) }

// Read fetches bytes at devOff.
func (b *Backend) Read(devOff, bytes int64, done func(err error)) {
	b.issue(false, devOff, bytes, done)
}

// Write stores bytes at devOff.
func (b *Backend) Write(devOff, bytes int64, done func(err error)) {
	b.issue(true, devOff, bytes, done)
}

// issue maps one operation through the layout and submits its
// sub-operations.
func (b *Backend) issue(write bool, devOff, bytes int64, done func(err error)) {
	if b.arr == nil {
		off, n := b.place(devOff, bytes)
		b.submit(0, write, off, n, done)
		return
	}
	lpn, pages := span(devOff, bytes, b.ps, b.pages)
	if pages == 0 {
		done(nil)
		return
	}
	var ops []rais.SubOp
	var err error
	if write {
		ops, err = b.arr.MapWrite(lpn, pages)
	} else {
		ops, err = b.arr.MapRead(lpn, pages)
	}
	if err != nil {
		panic(fmt.Sprintf("core: backend layout: %v", err))
	}
	if write && hasReads(ops) {
		// Read-modify-write: the old data and parity reads complete before
		// any write is issued; a failed read phase aborts the write phase
		// and reports the read error.
		b.fanOut(ops, false, func(err error) {
			if err != nil {
				done(err)
				return
			}
			b.fanOut(ops, true, done)
		})
		return
	}
	b.fanOut(ops, write, done)
}

// place is the identity layout: an SSD keeps the transfer size and
// starts it at the page span chooses, a disk clamps the byte range to
// its capacity.
func (b *Backend) place(devOff, bytes int64) (off, n int64) {
	if b.members[0].hdd != nil {
		return clamp(devOff, bytes, b.size)
	}
	lpn, _ := span(devOff, bytes, b.ps, b.pages)
	return lpn * b.ps, bytes
}

// hasReads reports whether a mapped write has a read phase.
func hasReads(ops []rais.SubOp) bool {
	for _, op := range ops {
		if !op.Write {
			return true
		}
	}
	return false
}

// fanOut submits the sub-ops whose direction is write, in order, and
// calls next when all complete with the first (by completion) sub-op
// error.
func (b *Backend) fanOut(ops []rais.SubOp, write bool, next func(err error)) {
	remaining := 0
	for _, op := range ops {
		if op.Write == write {
			remaining++
		}
	}
	sub := next
	switch {
	case remaining == 0:
		next(nil)
		return
	case remaining > 1:
		var firstErr error
		sub = func(err error) {
			if err != nil && firstErr == nil {
				firstErr = err
			}
			remaining--
			if remaining == 0 {
				next(firstErr)
			}
		}
	}
	for _, op := range ops {
		if op.Write == write {
			b.submit(op.Dev, write, op.LPN*b.ps, op.Bytes, sub)
		}
	}
}

// submit is the one path to a member: service time, then the fault
// decision (taken at submit time, so the stream is deterministic), then
// the queued job. A hard read failure on a RAIS5 member becomes a
// degraded read once the failed attempt's service time has passed.
func (b *Backend) submit(i int, write bool, off, bytes int64, done func(err error)) {
	m := &b.members[i]
	svc, err := m.service(write, off, bytes)
	if err != nil {
		panic(fmt.Sprintf("core: backend member %d: %v", i, err))
	}
	var ferr *fault.Error
	if m.inj != nil {
		out := m.inj.Op(b.eng.Now(), write, off/m.ps)
		svc += out.Extra
		if out.Err != nil {
			ferr = out.Err
			b.fstats.Faults++
			b.fobs.Fault(b.eng.Now(), ferr.Op, i, off, bytes, ferr.Transient)
		}
	}
	if ferr != nil && !write && !ferr.Transient && b.arr != nil && b.arr.Level() == rais.RAIS5 {
		m.st.Submit(sim.Job{Service: svc, Done: func(_, _ time.Duration) {
			b.degradedRead(i, off, bytes, done)
		}})
		return
	}
	var op *memberOp
	if n := len(b.free); n > 0 {
		op = b.free[n-1]
		b.free = b.free[:n-1]
	} else {
		op = &memberOp{b: b}
		op.fire = op.finish
	}
	op.done, op.ferr = done, ferr
	m.st.Submit(sim.Job{Service: svc, Done: op.fire})
}

// degradedRead reconstructs member failed's stripe unit by reading the
// same device pages from every surviving member (the left-symmetric
// layout keeps a stripe's units at identical device-page indices).
// Reconstruction reads bypass fault injection: the model injects one
// failure per stripe, matching RAIS5's single-failure tolerance.
func (b *Backend) degradedRead(failed int, off, bytes int64, done func(err error)) {
	start := b.eng.Now()
	b.fstats.DegradedReads++
	b.fobs.DegradedRead(start, failed, off, bytes)
	remaining := len(b.members) - 1
	for i := range b.members {
		if i == failed {
			continue
		}
		m := &b.members[i]
		svc, err := m.service(false, off, bytes)
		if err != nil {
			panic(fmt.Sprintf("core: backend degraded read: %v", err))
		}
		m.st.Submit(sim.Job{Service: svc, Done: func(_, _ time.Duration) {
			remaining--
			if remaining == 0 {
				b.fstats.DegradedReadTime += b.eng.Now() - start
				done(nil)
			}
		}})
	}
}

// Trim discards whole pages covered by [devOff, devOff+bytes).
func (b *Backend) Trim(devOff, bytes int64) {
	lpn, pages := trimSpan(devOff, bytes, b.ps, b.pages)
	if pages == 0 {
		return
	}
	if b.arr == nil {
		b.members[0].trim(lpn*b.ps, pages*b.ps)
		return
	}
	ops, err := b.arr.MapRead(lpn, pages) // data placement, no parity
	if err != nil {
		return
	}
	for _, op := range ops {
		b.members[op.Dev].trim(op.LPN*b.ps, op.Bytes)
	}
}

// DeviceStats snapshots the SSD members' flash counters (a disk has
// none).
func (b *Backend) DeviceStats() []ssd.Stats {
	var out []ssd.Stats
	for _, m := range b.members {
		if m.ssd != nil {
			out = append(out, m.ssd.Stats())
		}
	}
	return out
}

// QueueStats snapshots per-member queue counters.
func (b *Backend) QueueStats() []sim.Stats {
	out := make([]sim.Stats, 0, len(b.members))
	for _, m := range b.members {
		out = append(out, m.st.Stats())
	}
	return out
}

// Describe returns a short human-readable backend description.
func (b *Backend) Describe() string {
	if b.arr != nil {
		return fmt.Sprintf("%s x%d (%d MiB logical)", b.arr.Level(), len(b.members), b.size>>20)
	}
	if m := &b.members[0]; m.hdd != nil {
		return fmt.Sprintf("single HDD (%d MiB, %d RPM)", b.size>>20, m.hdd.Config().RPM)
	}
	return fmt.Sprintf("single SSD (%d MiB logical)", b.size>>20)
}

// service is the member's service time for a transfer of bytes at byte
// address off. An SSD moves the whole pages the bytes need, never past
// its last page.
func (m *member) service(write bool, off, bytes int64) (time.Duration, error) {
	if m.hdd != nil {
		if write {
			return m.hdd.WriteTime(off, bytes)
		}
		return m.hdd.ReadTime(off, bytes)
	}
	lpn := off / m.ps
	n := min((bytes+m.ps-1)/m.ps, m.ssd.LogicalPages()-lpn) * m.ps
	if write {
		return m.ssd.WriteTime(lpn, n)
	}
	return m.ssd.ReadTime(lpn, n)
}

// trim discards the member's pages in [off, off+bytes); disks have no
// discard semantics to model.
func (m *member) trim(off, bytes int64) {
	if m.ssd == nil {
		return
	}
	if err := m.ssd.Trim(off/m.ps, bytes/m.ps); err != nil {
		panic(fmt.Sprintf("core: backend trim: %v", err))
	}
}

// span converts a byte extent to a (lpn, pages) pair clamped to
// maxPages. The page count depends only on the transfer size — EDC packs
// compressed slots into pages (paper Fig. 5), so an n-byte object
// occupies ceil(n/pageSize) pages regardless of its byte offset within
// the packed log.
func span(devOff, bytes, ps, maxPages int64) (lpn, pages int64) {
	if bytes <= 0 {
		return 0, 0
	}
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
func trimSpan(devOff, bytes, ps, maxPages int64) (lpn, pages int64) {
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

// clamp bounds a byte range to capacity.
func clamp(devOff, bytes, capacity int64) (int64, int64) {
	if bytes <= 0 {
		return 0, 0
	}
	if devOff < 0 {
		devOff = 0
	}
	if devOff+bytes > capacity {
		devOff = capacity - bytes
		if devOff < 0 {
			devOff = 0
			bytes = capacity
		}
	}
	return devOff, bytes
}
