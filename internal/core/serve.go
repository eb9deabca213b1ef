package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"edc/internal/obs"
	"edc/internal/parallel"
	"edc/internal/qos"
	"edc/internal/sim"
	"edc/internal/trace"
)

// Serve mode runs the EDC pipelines live instead of replaying a recorded
// trace: client goroutines submit reads and writes through a
// goroutine-safe facade, each LBA shard's event loop becomes a
// long-lived goroutine draining a bounded submission mailbox, and
// open-loop latency is measured in virtual time — from the operation's
// intended arrival stamp to its virtual completion — so offered load
// beyond the simulated device's capacity shows up as queueing collapse
// (latency growing without bound) exactly as it would on hardware,
// which closed-loop replay structurally cannot expose.

// DefaultServeMailbox bounds each shard's submission mailbox: when a
// shard's event loop falls behind, submitters block on the full mailbox
// (backpressure) instead of growing an unbounded queue.
const DefaultServeMailbox = 256

// DefaultServeBatch caps how many submissions one event-loop wakeup
// drains from the mailbox before running the engine: batching amortizes
// the channel handoff without letting one drain starve the clock.
const DefaultServeBatch = 64

// ErrServeStopped reports a submission to — or a second Stop of — a
// Server that has already been stopped.
var ErrServeStopped = errors.New("core: server stopped")

// ServeSetup describes a live serving stack: like ShardSetup, the
// volume is partitioned into contiguous block-aligned LBA ranges, each
// served by a private pipeline instance built by the factories. Unlike
// replay, there is no trace to derive a global intensity signal from, so
// each shard's workload monitor measures its own slice of the traffic
// (Options.Meter is honored if the factory sets one).
type ServeSetup struct {
	// Shards is the partition width (>= 1).
	Shards int
	// VolumeBytes is the full logical volume being partitioned.
	VolumeBytes int64
	// Backend builds one shard's private backend on its private engine.
	Backend func(eng *sim.Engine) (Backend, error)
	// Options builds one shard's Options; it must return fresh per-shard
	// mutable state on every call, exactly as ShardSetup.Options does.
	Options func(shard int) (Options, error)
	// Mailbox bounds each shard's submission mailbox
	// (0: DefaultServeMailbox).
	Mailbox int
	// Batch caps submissions drained per event-loop wakeup
	// (0: DefaultServeBatch).
	Batch int
	// Obs observes the merged run: each shard gets a private buffering
	// child collector, folded back deterministically at Stop. Nil
	// disables observability.
	Obs *obs.Collector
	// Resplit enables heat-balanced shard repartitioning: a shard whose
	// admitted-op share stays above its fair share splits its LBA range
	// at a quiesced, heat-balanced boundary (see ResplitConfig). The
	// zero value keeps the shard map fixed.
	Resplit ResplitConfig
	// Paced keeps every shard's virtual clock at or below the highest
	// arrival stamp it has admitted so far (a conservative watermark):
	// completion events past the watermark stay queued until a later
	// arrival — or the stop-drain — advances it. For submitters that
	// mail operations in globally non-decreasing stamp order this makes
	// every virtual-time result a pure function of the operation
	// sequence, independent of GOMAXPROCS and mailbox batching; without
	// it, an engine that ran dry ahead of an arrival still in flight
	// clamps that arrival to wherever the clock happened to be — a real
	// scheduling race leaking into virtual latency. The synchronous
	// Read/Write wrappers are refused under pacing (their completion may
	// only be released by a later arrival the blocked caller would never
	// send), as is resplitting (its quiesce protocol must run the engine
	// dry past the watermark).
	Paced bool
}

// serveResult is one completed facade operation: the open-loop latency
// (virtual completion minus intended arrival) and the first error any
// sub-operation hit.
type serveResult struct {
	lat time.Duration
	err error
}

// joinOp joins the per-shard sub-operations of one facade call: the
// call's latency is the slowest sub-operation's, and the buffered result
// channel lets completion outlive a caller that gave up on its context.
type joinOp struct {
	mu        sync.Mutex
	remaining int
	lat       time.Duration
	err       error
	res       chan serveResult
}

// complete folds one sub-operation's outcome in; the last one fires the
// result channel. Sub-operations complete on their shard's event-loop
// goroutine, so the fold is mutex-guarded.
func (j *joinOp) complete(lat time.Duration, err error) {
	j.mu.Lock()
	if err != nil && j.err == nil {
		j.err = err
	}
	if lat > j.lat {
		j.lat = lat
	}
	j.remaining--
	fire := j.remaining == 0
	lat, err = j.lat, j.err
	j.mu.Unlock()
	if fire {
		j.res <- serveResult{lat: lat, err: err}
	}
}

// serveOp is one shard-local submission: an intended virtual arrival
// stamp plus the (already shard-rebased) operation it carries.
type serveOp struct {
	at     time.Duration // intended virtual arrival (offset from serve start)
	off    int64         // shard-local byte offset
	size   int64         // length in bytes
	write  bool
	tenant string // submitting tenant ("" untagged)
	shaped bool   // the tenant's bucket was already charged
	j      *joinOp
}

// Server routes live requests to LBA-range shards, each drained by a
// long-lived event-loop goroutine. Build one with NewServer; submit with
// Read/Write (goroutine-safe, any number of concurrent callers); Stop
// drains the mailboxes and returns the merged RunStats.
type Server struct {
	vol    int64
	bounds []int64
	shards []*serveShard

	// setup keeps the (normalized) factories so a resplit can stamp out
	// an additional shard pipeline mid-run.
	setup ServeSetup
	// rcfg is the normalized repartitioning policy (Enabled=false keeps
	// the shard map fixed).
	rcfg ResplitConfig

	// qcfg is the QoS configuration shared by every shard (nil when QoS
	// is off); the facade-side strict-tenant check runs against it
	// before any piece is mailed.
	qcfg *qos.Config

	obs  *obs.Collector
	kids []*obs.Collector

	// paced freezes each shard's clock at its arrival watermark; see
	// ServeSetup.Paced. Immutable after NewServer.
	paced bool

	mu     sync.RWMutex // guards closed and the shard router (bounds/shards/kids)
	closed bool
	stalls atomic.Int64 // submissions that found a full mailbox
}

// serveShard is one shard's live pipeline: the Device, its bounded
// mailbox, and the event-loop goroutine state. All fields past the
// channels are touched only by that goroutine.
type serveShard struct {
	sv   *Server
	id   int
	dev  *Device
	mail chan *serveOp
	stop chan struct{}
	done chan struct{}

	batch   int
	pending map[*serveOp]struct{}
	// inflightBy counts pending operations per tenant; a tenant with a
	// MaxDeferred bound is refused admission past it (the serve-mode
	// analogue of the replay frontend's deferred-queue bound).
	inflightBy map[string]int

	// ops counts admitted operations; written by this shard's event-loop
	// goroutine, read by other shards evaluating the resplit trigger.
	ops atomic.Int64
	// Resplit trigger state, touched only by this shard's goroutine:
	// the ops/total marks of the last evaluation and how many
	// consecutive windows this shard exceeded its fair share.
	evalSelf  int64
	evalTotal int64
	streak    int
	// splitting marks a trySplit in progress, so the ingests that drain
	// the mailbox while awaiting the router lock cannot re-enter it.
	splitting bool
	// horizon is the highest arrival stamp admitted so far — the paced
	// mode watermark the engine may run up to.
	horizon time.Duration
}

// NewServer validates the setup, stamps out one pipeline per shard, and
// starts the shard event-loop goroutines.
func NewServer(setup ServeSetup) (*Server, error) {
	if setup.Shards < 1 {
		setup.Shards = 1
	}
	if setup.Backend == nil || setup.Options == nil {
		return nil, errors.New("core: serve setup needs Backend and Options factories")
	}
	vol := setup.VolumeBytes &^ (BlockSize - 1)
	if vol <= 0 {
		return nil, errors.New("core: volume smaller than one block")
	}
	if int64(setup.Shards) > vol/BlockSize {
		return nil, fmt.Errorf("core: %d shards exceed %d volume blocks", setup.Shards, vol/BlockSize)
	}
	if setup.Mailbox <= 0 {
		setup.Mailbox = DefaultServeMailbox
	}
	if setup.Batch <= 0 {
		setup.Batch = DefaultServeBatch
	}
	if setup.Paced && setup.Resplit.Enabled {
		return nil, errors.New("core: resplit quiesce must run the engine past the paced-mode watermark; disable one of the two")
	}
	sv := &Server{
		vol:    vol,
		bounds: shardBounds(vol, setup.Shards),
		shards: make([]*serveShard, setup.Shards),
		setup:  setup,
		rcfg:   setup.Resplit.normalized(setup.Shards),
		obs:    setup.Obs,
		kids:   make([]*obs.Collector, setup.Shards),
		paced:  setup.Paced,
	}
	for i := 0; i < setup.Shards; i++ {
		ss, kid, err := sv.buildShard(i, sv.bounds[i+1]-sv.bounds[i])
		if err != nil {
			return nil, err
		}
		sv.kids[i] = kid
		sv.shards[i] = ss
	}
	for _, ss := range sv.shards {
		go ss.run()
	}
	return sv, nil
}

// buildShard stamps out one shard pipeline from the setup factories:
// id is its observability shard tag, vol its LBA-range width. Used by
// NewServer for the initial partition and by a resplit for the shard
// it adds mid-run; the caller registers the returned shard and child
// collector in the router.
func (sv *Server) buildShard(id int, vol int64) (*serveShard, *obs.Collector, error) {
	opts, err := sv.setup.Options(id)
	if err != nil {
		return nil, nil, err
	}
	if id == 0 {
		sv.qcfg = opts.QoS
	}
	if opts.Faults != nil && opts.Faults.PowerCutAt > 0 {
		return nil, nil, errors.New("core: serve mode does not support power-cut fault plans")
	}
	if sv.rcfg.Enabled {
		// Resplitting migrates extents by re-homing their mapping
		// entries; features whose state is keyed to a fixed shard-local
		// address space cannot survive that and are refused up front.
		switch {
		case opts.Dedup != nil && opts.Dedup.Enabled:
			return nil, nil, errors.New("core: resplit cannot migrate dedup-shared extents (references may span the split boundary); disable one of the two")
		case opts.VerifyReads:
			return nil, nil, errors.New("core: resplit rebases extents to new shard-local offsets, which breaks offset-keyed read verification; disable one of the two")
		case opts.QoS != nil:
			return nil, nil, errors.New("core: resplit changes the shard count mid-run, invalidating per-shard QoS rate shares; disable one of the two")
		}
	}
	kid := sv.setup.Obs.Child(id)
	opts.Obs = kid
	eng := sim.NewEngine()
	be, err := sv.setup.Backend(eng)
	if err != nil {
		return nil, nil, fmt.Errorf("core: shard %d backend: %w", id, err)
	}
	dev, err := NewDevice(eng, be, vol, opts)
	if err != nil {
		return nil, nil, fmt.Errorf("core: shard %d: %w", id, err)
	}
	if dev.wp.flushWait <= 0 && !dev.wp.disableSD {
		return nil, nil, errors.New("core: serve mode requires a positive SD flush timeout (a disabled timer would buffer the last run forever)")
	}
	// The device is consumed by the serve loop: a Play on it would
	// race the loop, so mark it used and detach the replay-only
	// closed-loop callbacks — serve tracks completion per operation.
	dev.played = true
	dev.stats.Trace = "serve"
	dev.wp.complete = func(time.Duration) {}
	dev.rp.complete = func(time.Duration) {}
	dev.wp.drop = func(int) {}
	dev.rp.drop = func(int) {}
	return &serveShard{
		sv:         sv,
		id:         id,
		dev:        dev,
		mail:       make(chan *serveOp, sv.setup.Mailbox),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
		batch:      sv.setup.Batch,
		pending:    make(map[*serveOp]struct{}),
		inflightBy: make(map[string]int),
	}, kid, nil
}

// VolumeBytes returns the full logical volume size.
func (sv *Server) VolumeBytes() int64 { return sv.vol }

// Shards returns the current shard count — the initial partition width
// plus one per resplit so far.
func (sv *Server) Shards() int {
	sv.mu.RLock()
	defer sv.mu.RUnlock()
	return len(sv.shards)
}

// Stalls returns how many submissions so far found their shard mailbox
// full and had to block (the backpressure signal).
func (sv *Server) Stalls() int64 { return sv.stalls.Load() }

// Read submits one read of [off, off+size) arriving as soon as possible
// and blocks until it completes, returning its open-loop virtual
// latency. Goroutine-safe; ctx cancels the wait (the operation itself
// still completes server-side).
func (sv *Server) Read(ctx context.Context, off, size int64) (time.Duration, error) {
	return sv.submit(ctx, 0, off, size, false)
}

// Write submits one write of [off, off+size) arriving as soon as
// possible and blocks until it completes. Goroutine-safe.
func (sv *Server) Write(ctx context.Context, off, size int64) (time.Duration, error) {
	return sv.submit(ctx, 0, off, size, true)
}

// ReadAt is Read with an explicit intended virtual arrival stamp (offset
// from serve start): the shard admits the operation no earlier than at,
// and the returned latency is measured from at — so a generator that
// stamps arrivals from a seeded process gets coordinated-omission-free
// open-loop latencies regardless of scheduling jitter on the way in.
func (sv *Server) ReadAt(ctx context.Context, at time.Duration, off, size int64) (time.Duration, error) {
	return sv.submit(ctx, at, off, size, false)
}

// WriteAt is Write with an explicit intended virtual arrival stamp; see
// ReadAt.
func (sv *Server) WriteAt(ctx context.Context, at time.Duration, off, size int64) (time.Duration, error) {
	return sv.submit(ctx, at, off, size, true)
}

// shardIndex returns the shard whose [bounds[i], bounds[i+1]) range
// contains byte offset off.
func shardIndex(bounds []int64, off int64) int {
	lo, hi := 0, len(bounds)-2
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if bounds[mid] <= off {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// Await blocks for one submitted operation's completion and returns its
// open-loop virtual latency. The operation completes server-side even if
// the context cancels the wait.
type Await func(ctx context.Context) (time.Duration, error)

// SubmitAt mails one operation to its shard(s) — blocking only on full
// mailboxes (backpressure) — and returns an Await for its completion.
// Splitting submission from waiting lets a stamp-ordered sequencer keep
// mailing while earlier operations are still in flight: a shard's
// virtual clock only ever advances to stamps it has already seen, so
// the clamp in admit measures true queueing delay rather than
// cross-client submission skew.
func (sv *Server) SubmitAt(ctx context.Context, at time.Duration, off, size int64, write bool) (Await, error) {
	return sv.SubmitAtTag(ctx, at, off, size, write, "")
}

// SubmitAtTag is SubmitAt with the submitting tenant's tag: the
// operation is shaped, prioritized, and accounted under that tenant's
// QoS treatment. Under a strict QoS config an unknown tenant fails
// immediately with ErrUnknownTenant. The empty tag is untagged traffic
// and behaves exactly as SubmitAt.
func (sv *Server) SubmitAtTag(ctx context.Context, at time.Duration, off, size int64, write bool, tenant string) (Await, error) {
	j, err := sv.mail(ctx, at, off, size, write, tenant)
	if err != nil {
		return nil, err
	}
	return func(ctx context.Context) (time.Duration, error) {
		select {
		case r := <-j.res:
			return r.lat, r.err
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}, nil
}

// submit is the synchronous form: mail, then wait.
func (sv *Server) submit(ctx context.Context, at time.Duration, off, size int64, write bool) (time.Duration, error) {
	if sv.paced {
		// Under pacing a completion past the watermark is only released
		// by a later arrival; a caller blocked here would never send it.
		return 0, errors.New("core: synchronous submit would deadlock under paced serve; use SubmitAt and await concurrently")
	}
	j, err := sv.mail(ctx, at, off, size, write, "")
	if err != nil {
		return 0, err
	}
	select {
	case r := <-j.res:
		return r.lat, r.err
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

// mail aligns one facade operation against the volume, cuts it at
// shard boundaries, and mails the pieces to their shards, blocking on
// full mailboxes (backpressure). The read lock holds Stop off until
// every piece is mailed, so a mailbox is never closed under a
// submitter.
func (sv *Server) mail(ctx context.Context, at time.Duration, off, size int64, write bool, tenant string) (*joinOp, error) {
	if at < 0 {
		at = 0
	}
	if tenant != "" && !sv.qcfg.Known(tenant) {
		return nil, fmt.Errorf("core: tenant %q: %w", tenant, qos.ErrUnknownTenant)
	}
	aOff, aSize := alignRequest(sv.vol, trace.Request{Offset: off, Size: size, Write: write})
	// The read lock covers both passes over the router: a resplit
	// (holding the write lock) must not move a boundary between the
	// piece count and the mailing.
	sv.mu.RLock()
	if sv.closed {
		sv.mu.RUnlock()
		return nil, ErrServeStopped
	}
	// Count the shard-boundary pieces first: the join needs the fan-out
	// width before the first piece can be mailed.
	pieces := 0
	for o, n := aOff, aSize; n > 0; {
		i := shardIndex(sv.bounds, o)
		c := sv.bounds[i+1] - o
		if c > n {
			c = n
		}
		o += c
		n -= c
		pieces++
	}
	j := &joinOp{remaining: pieces, res: make(chan serveResult, 1)}
	for o, n := aOff, aSize; n > 0; {
		i := shardIndex(sv.bounds, o)
		c := sv.bounds[i+1] - o
		if c > n {
			c = n
		}
		op := &serveOp{at: at, off: o - sv.bounds[i], size: c, write: write, tenant: tenant, j: j}
		ss := sv.shards[i]
		select {
		case ss.mail <- op:
		default:
			sv.stalls.Add(1)
			select {
			case ss.mail <- op:
			case <-ctx.Done():
				sv.mu.RUnlock()
				return nil, ctx.Err()
			}
		}
		o += c
		n -= c
	}
	sv.mu.RUnlock()
	return j, nil
}

// Stop closes the intake, drains every shard's mailbox and pipeline,
// joins the event-loop goroutines, and returns the merged statistics.
// A second Stop returns ErrServeStopped.
func (sv *Server) Stop() (*RunStats, error) {
	sv.mu.Lock()
	if sv.closed {
		sv.mu.Unlock()
		return nil, ErrServeStopped
	}
	sv.closed = true
	sv.mu.Unlock()
	for _, ss := range sv.shards {
		close(ss.stop)
	}
	for _, ss := range sv.shards {
		<-ss.done
	}
	sv.obs.Absorb(sv.kids)
	parts := make([]*RunStats, len(sv.shards))
	for i, ss := range sv.shards {
		parts[i] = ss.dev.stats
	}
	merged := MergeRunStats(parts)
	merged.Obs = sv.obs.Report()
	merged.SubmitStalls = sv.stalls.Load()
	merged.ShardLiveBlocks = make([]int64, len(sv.shards))
	for i, ss := range sv.shards {
		merged.ShardLiveBlocks[i] = ss.dev.se.mapping.LiveBlocks()
	}
	merged.Backend = fmt.Sprintf("serve %d-shard [%s]", len(sv.shards), parts[0].Backend)
	var firstErr error
	for i, ss := range sv.shards {
		if err := ss.dev.fs.err; err != nil {
			firstErr = fmt.Errorf("core: shard %d: %w", i, err)
			break
		}
	}
	if merged.Err == nil {
		merged.Err = firstErr
	}
	return merged, firstErr
}

// run is the shard's event-loop goroutine: block on the mailbox, drain a
// batch, run the virtual-time engine until quiescent, repeat. On stop it
// drains whatever was already accepted, then finalizes the device.
func (ss *serveShard) run() {
	defer close(ss.done)
	if ss.dev.replayWorkers > 1 {
		// Every shard's codec futures go through one queue each on the
		// process-wide work-stealing pool, so a hot shard's backlog is
		// drained by whatever workers the cold shards leave idle.
		q := parallel.Shared().NewQueue()
		ss.dev.wp.pool = q
		ss.dev.rp.usePool(q)
		defer func() {
			q.Close()
			ss.dev.wp.pool = nil
			ss.dev.rp.pool = nil
		}()
	}
	for {
		select {
		case op := <-ss.mail:
			ss.ingest(op)
		case <-ss.stop:
			for {
				select {
				case op := <-ss.mail:
					ss.ingest(op)
				default:
					ss.finish()
					return
				}
			}
		}
	}
}

// ingest admits one submission plus up to batch-1 more already waiting,
// then runs the engine to quiescence. Admitting the whole batch before
// running lets simultaneous submissions sort into virtual-time order on
// the event heap regardless of mailbox interleaving.
func (ss *serveShard) ingest(first *serveOp) {
	ss.admit(first)
drain:
	for n := 1; n < ss.batch; n++ {
		select {
		case op := <-ss.mail:
			ss.admit(op)
		default:
			break drain
		}
	}
	// Re-arm maintenance for this batch (a tick that fired with nothing
	// pending disarmed itself). RunPending — not Run — so the armed
	// maintenance/checkpoint timers cannot fast-forward the clock ahead
	// of arrival stamps still in flight; they fire when real traffic
	// pushes the clock past their deadlines. Paced mode goes further:
	// the engine stops at the arrival watermark itself, so completions
	// past the newest stamp wait for the next batch (or the stop-drain)
	// and the clock can never outrun a stamp-ordered submitter.
	ss.dev.armMaint()
	if ss.sv.paced {
		ss.dev.eng.RunUntil(ss.horizon)
	} else {
		ss.dev.eng.RunPending()
	}
	if ss.dev.fs.failed() {
		ss.failAll()
		return
	}
	ss.maybeResplit()
}

// admit schedules one submission's arrival at max(virtual now, its
// intended stamp) — the clamp models the ingress queue: an arrival the
// pipeline could not have seen yet is admitted as soon as it can be.
// A tenant with a MaxDeferred bound is refused admission past that many
// pending operations in the shard (ErrAdmissionRejected).
func (ss *serveShard) admit(op *serveOp) {
	d := ss.dev
	if d.fs.failed() {
		op.j.complete(0, d.fs.err)
		return
	}
	if op.tenant != "" {
		if max := d.fe.qs.maxDeferred(op.tenant); max > 0 && ss.inflightBy[op.tenant] >= max {
			now := d.eng.Now()
			d.stats.Tenant(op.tenant).Rejected++
			d.obs.AdmitReject(now, op.off, op.size, op.write, op.tenant, obs.RejectQueueDepth)
			op.j.complete(0, fmt.Errorf("core: tenant %q: %w", op.tenant, qos.ErrAdmissionRejected))
			return
		}
		ss.inflightBy[op.tenant]++
	}
	ss.ops.Add(1)
	at := op.at
	if now := d.eng.Now(); at < now {
		at = now
	}
	if at > ss.horizon {
		ss.horizon = at
	}
	ss.pending[op] = struct{}{}
	d.eng.SchedulePriority(at, func() { ss.arrive(op) })
}

// remove drops one pending operation from the shard's books.
func (ss *serveShard) remove(op *serveOp) {
	delete(ss.pending, op)
	if op.tenant != "" {
		ss.inflightBy[op.tenant]--
	}
}

// arrive feeds one admitted operation into the pipeline at the current
// virtual time, wiring a per-operation completion that measures the
// open-loop latency from the intended stamp. A shaped tenant's bucket
// may push the arrival later; the added delay is part of the measured
// latency, exactly like ingress queueing.
func (ss *serveShard) arrive(op *serveOp) {
	d := ss.dev
	if d.fs.failed() {
		if _, ok := ss.pending[op]; ok {
			ss.remove(op)
			op.j.complete(0, d.fs.err)
		}
		return
	}
	now := d.eng.Now()
	if !op.shaped {
		if delay := d.fe.qs.shape(now, op.tenant, op.size); delay > 0 {
			// Charged once: the delayed re-arrival bypasses the bucket.
			// The re-arrival parks as a housekeeping event — like the
			// maintenance timers, a far-future deadline must not
			// fast-forward the clock past arrival stamps still in
			// flight, or every later operation is billed for delay the
			// shaper only owed this one. Parked re-arrivals fire when
			// real traffic pushes the clock past them, or during the
			// stop-drain.
			op.shaped = true
			ts := d.stats.Tenant(op.tenant)
			ts.Shaped++
			ts.ShapeDelay += delay
			d.obs.Shape(now, op.off, op.size, op.write, op.tenant, delay)
			d.eng.ScheduleHousekeepingAfter(delay, func() { ss.arrive(op) })
			return
		}
	}
	d.wp.meter.Record(now, op.size)
	if m := d.fe.qs.meter(op.tenant); m != nil {
		m.Record(now, op.size)
	}
	d.obs.AdmitTenant(now, op.off, op.size, op.write, op.tenant)
	d.stats.Requests++
	ts := d.stats.Tenant(op.tenant) // nil for untagged traffic
	if ts != nil {
		ts.Requests++
	}
	wait := now - op.at // ingress queueing ahead of admission
	done := func(resp time.Duration) {
		ss.remove(op)
		lat := wait + resp
		d.stats.Resp.Observe(lat)
		if ts != nil {
			ts.Resp.Observe(lat)
		}
		if op.write {
			d.stats.RespWrite.Observe(lat)
		} else {
			d.stats.RespRead.Observe(lat)
		}
		op.j.complete(lat, nil)
	}
	if op.write {
		d.stats.Writes++
		if ts != nil {
			ts.Writes++
		}
		d.wp.admitWrite(PendingWrite{Arrival: now, Offset: op.off, Size: op.size, Tenant: op.tenant, Done: done})
		return
	}
	d.stats.Reads++
	if ts != nil {
		ts.Reads++
	}
	// Reads enter through the frontend's read entry (pending-run flush,
	// then the read plan), the same one replay admits them through.
	d.fe.onRead(now, op.off, op.size, done)
}

// failAll completes every pending operation with the shard's fatal
// error: once the pipeline has failed, nothing in flight will ever
// complete normally, and a submitter must not block forever.
func (ss *serveShard) failAll() {
	err := ss.dev.fs.err
	if err == nil {
		err = errors.New("core: serve pipeline failed")
	}
	for op := range ss.pending {
		ss.remove(op)
		op.j.complete(0, err)
	}
}

// finish drains the pipeline after the intake closed: run the engine
// dry, flush any buffered SD run, fail whatever could not complete, and
// snapshot end-of-run statistics.
func (ss *serveShard) finish() {
	d := ss.dev
	d.eng.Run()
	d.wp.drain()
	if d.fs.failed() {
		ss.failAll()
	}
	if len(ss.pending) > 0 {
		d.fs.fail(fmt.Errorf("core: serve shard %d stopped with %d operations unfinished", ss.id, len(ss.pending)))
		ss.failAll()
	}
	d.finalize()
}
