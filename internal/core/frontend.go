package core

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"edc/internal/obs"
	"edc/internal/qos"
	"edc/internal/sim"
	"edc/internal/trace"
)

// frontend is the admission stage of the request pipeline: it streams
// trace arrivals into the event heap, enforces the closed-loop
// outstanding bound (arrivals beyond it wait in a deferred queue and are
// admitted as completions free slots), aligns requests to the volume,
// feeds the workload meter, and observes response times. Admitted
// requests are handed to the write and read paths through the two
// callbacks, so the stage is testable with fakes.
type frontend struct {
	eng   *sim.Engine
	fs    *failState
	stats *RunStats
	meter WorkloadMeter
	obs   *obs.Collector

	// qs applies multi-tenant QoS (shaping, priority admission,
	// per-tenant accounting). Nil disables QoS and the frontend is
	// bit-identical to a pre-QoS build.
	qs *qosState

	volBytes    int64
	inFlight    int64
	maxInFlight int64
	// deferred queues arrivals past the bound, one FIFO per traffic
	// class, popped latency, standard, bulk (see admitOrder). Without QoS,
	// or with every tenant on the standard class, that is one plain FIFO.
	deferred [3][]trace.Request
	// deferredBy tracks queued requests per tenant when QoS is active,
	// enforcing each tenant's MaxDeferred bound.
	deferredBy map[string]int

	// tail is the part of a streamed trace that has not arrived yet;
	// streaming is set once start streams one (see upcoming).
	tail      []trace.Request
	streaming bool

	// onWrite admits one aligned write (SD merge onward).
	onWrite func(w PendingWrite)
	// onRead admits one aligned read (pending-run flush + read plan).
	// done, when non-nil, observes the response time ahead of the
	// pipeline-wide completion (per-tenant latency attribution).
	onRead func(issue time.Duration, off, size int64, done func(time.Duration))
}

// start begins replaying t: request i+1 is scheduled when request i
// arrives, so the heap holds O(1) arrival events instead of the whole
// trace. Arrivals use the engine's priority class, which reproduces
// exactly the ordering of a fully pre-scheduled trace: at equal virtual
// times arrivals run before any plain event, and among themselves in
// trace order. A trace whose stamps are out of order streams a stably
// sorted copy; t itself is left as it is.
func (fe *frontend) start(t *trace.Trace) {
	reqs := byArrival(t.Requests)
	if len(reqs) == 0 {
		return
	}
	fe.tail, fe.streaming = reqs, true
	var step func()
	step = func() {
		r := fe.tail[0]
		fe.tail = fe.tail[1:]
		if len(fe.tail) > 0 {
			fe.eng.SchedulePriority(fe.tail[0].Arrival, step)
		}
		fe.arrive(r)
	}
	fe.eng.SchedulePriority(reqs[0].Arrival, step)
}

// byArrival returns reqs in arrival order, stably: reqs itself when it is
// in order already, else a sorted copy.
func byArrival(reqs []trace.Request) []trace.Request {
	arrival := func(a, b trace.Request) int { return cmp.Compare(a.Arrival, b.Arrival) }
	if !slices.IsSortedFunc(reqs, arrival) {
		reqs = slices.Clone(reqs)
		slices.SortStableFunc(reqs, arrival)
	}
	return reqs
}

// upcoming returns the streamed trace's requests that have not arrived
// yet, in arrival order, for the write path's lookahead. ok is false
// when the order in which they will be admitted is not the trace's:
// nothing is streamed (serve) or requests wait in the deferred queues.
func (fe *frontend) upcoming() (reqs []trace.Request, ok bool) {
	if !fe.streaming || fe.deferredLen() > 0 {
		return nil, false
	}
	return fe.tail, true
}

// arrive handles one host request at the current virtual time: strict
// tenant admission, then bandwidth shaping (the request's tenant bucket
// may delay it), then the closed-loop bound (deferring or, past the
// tenant's queue bound, rejecting).
func (fe *frontend) arrive(r trace.Request) {
	if fe.fs.failed() {
		return
	}
	if !fe.qs.known(r.Tenant) {
		fe.fs.fail(fmt.Errorf("core: request at %v: %w: %q", r.Arrival, qos.ErrUnknownTenant, r.Tenant))
		return
	}
	if d := fe.shape(r.Offset, r.Size, r.Write, r.Tenant); d > 0 {
		fe.eng.ScheduleAfter(d, func() {
			if !fe.fs.failed() {
				fe.enqueue(r)
			}
		})
		return
	}
	fe.enqueue(r)
}

// shape charges the tenant's bucket for one request and books any delay
// it imposes. The bucket is charged once: the caller re-arrives the
// request after the returned delay — replay through the event heap, a
// serve shard as a parked housekeeping event — bypassing shape.
func (fe *frontend) shape(off, size int64, write bool, tenant string) time.Duration {
	now := fe.eng.Now()
	d := fe.qs.shape(now, tenant, size)
	if d > 0 {
		ts := fe.stats.Tenant(tenant)
		ts.Shaped++
		ts.ShapeDelay += d
		fe.obs.Shape(now, off, size, write, tenant, d)
	}
	return d
}

// reject books one request refused at its tenant's queue bound.
func (fe *frontend) reject(off, size int64, write bool, tenant string) {
	if ts := fe.stats.Tenant(tenant); ts != nil {
		ts.Rejected++
	}
	fe.obs.AdmitReject(fe.eng.Now(), off, size, write, tenant, obs.RejectQueueDepth)
}

// enqueue admits one request under the closed-loop bound, deferring it
// (or rejecting it past its tenant's queue bound) when the bound is
// reached.
func (fe *frontend) enqueue(r trace.Request) {
	if fe.inFlight >= fe.maxInFlight {
		if !fe.pushDeferred(r) {
			fe.reject(r.Offset, r.Size, r.Write, r.Tenant)
			return
		}
		fe.obs.Defer(fe.eng.Now(), r.Offset, r.Size, r.Write, fe.deferredLen())
		return
	}
	fe.admit(r)
}

// pushDeferred queues one request past the closed-loop bound; false
// means the tenant's MaxDeferred bound was hit and the request must be
// rejected instead.
func (fe *frontend) pushDeferred(r trace.Request) bool {
	if fe.qs != nil {
		if max := fe.qs.maxDeferred(r.Tenant); max > 0 && fe.deferredBy[r.Tenant] >= max {
			return false
		}
		if fe.deferredBy == nil {
			fe.deferredBy = make(map[string]int)
		}
		fe.deferredBy[r.Tenant]++
	}
	c := fe.qs.class(r.Tenant)
	fe.deferred[c] = append(fe.deferred[c], r)
	return true
}

// popDeferred dequeues the next request to admit: latency before
// standard before bulk, FIFO within a class.
func (fe *frontend) popDeferred() (trace.Request, bool) {
	for _, c := range admitOrder {
		if q := fe.deferred[c]; len(q) > 0 {
			r := q[0]
			fe.deferred[c] = q[1:]
			if fe.deferredBy != nil {
				fe.deferredBy[r.Tenant]--
			}
			return r, true
		}
	}
	return trace.Request{}, false
}

// deferredLen is the total queued depth across the deferred queues.
func (fe *frontend) deferredLen() int {
	n := 0
	for _, q := range fe.deferred {
		n += len(q)
	}
	return n
}

// admit processes one request admitted under the closed-loop bound.
// Response time is measured from issue (admission): under closed-loop
// replay a saturated backend shifts issue times instead of growing an
// unbounded arrival backlog, exactly as hardware trace replayers do.
func (fe *frontend) admit(r trace.Request) {
	off, size := alignRequest(fe.volBytes, r)
	ts := fe.stats.Tenant(r.Tenant) // nil for untagged traffic
	var done func(time.Duration)
	if ts != nil {
		done = func(resp time.Duration) { ts.Resp.Observe(resp) }
	}
	fe.inFlight++
	fe.dispatch(fe.eng.Now(), off, size, r.Write, r.Tenant, ts, done)
}

// dispatch books one admitted, aligned request — meters, the admission
// event, the counters device-wide and on the tenant's row ts (nil for
// untagged traffic) — and hands it to the write or the read path. Replay's
// admit and a serve shard's arrive both end here; the closed-loop bound,
// open-loop latency and shaping stay with those callers.
func (fe *frontend) dispatch(now time.Duration, off, size int64, write bool, tenant string, ts *TenantStats, done func(time.Duration)) {
	fe.meter.Record(now, size)
	if m := fe.qs.meter(tenant); m != nil {
		m.Record(now, size)
	}
	fe.obs.Admit(now, off, size, write, tenant)
	fe.stats.Requests++
	if ts != nil {
		ts.Requests++
	}
	if write {
		fe.stats.Writes++
		if ts != nil {
			ts.Writes++
		}
		fe.onWrite(PendingWrite{Arrival: now, Offset: off, Size: size, Tenant: tenant, Done: done})
		return
	}
	fe.stats.Reads++
	if ts != nil {
		ts.Reads++
	}
	fe.onRead(now, off, size, done)
}

// finish completes one request: the response time is observed and the
// freed admission slot may admit a deferred request.
func (fe *frontend) finish(resp time.Duration, write bool) {
	fe.stats.Resp.Observe(resp)
	if write {
		fe.stats.RespWrite.Observe(resp)
	} else {
		fe.stats.RespRead.Observe(resp)
	}
	// A completion frees one admission slot.
	if fe.inFlight <= fe.maxInFlight {
		if next, ok := fe.popDeferred(); ok {
			fe.admit(next)
		}
	}
	fe.inFlight--
}

// drop releases n in-flight requests without observing them (failed
// replay teardown).
func (fe *frontend) drop(n int) {
	fe.inFlight -= int64(n)
}

// alignRequest snaps a host request to block granularity inside a volume
// of volBytes (the paper's EDC operates on fixed-size blocks, Sec.
// III-C).
func alignRequest(volBytes int64, r trace.Request) (off, size int64) {
	off = r.Offset &^ (BlockSize - 1)
	end := (r.Offset + r.Size + BlockSize - 1) &^ (BlockSize - 1)
	size = end - off
	if size <= 0 {
		size = BlockSize
	}
	if size > volBytes {
		size = volBytes
	}
	off %= volBytes
	off &^= BlockSize - 1
	if off+size > volBytes {
		off = volBytes - size
	}
	return off, size
}
