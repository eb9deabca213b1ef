package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"edc/internal/obs"
	"edc/internal/parallel"
	"edc/internal/qos"
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
//
// Every shard runs its engine only up to the highest arrival stamp it
// has admitted (its watermark): completions past the newest stamp wait
// for a later arrival or the stop-drain, so for submitters that mail in
// globally non-decreasing stamp order every virtual-time result is a
// pure function of the operation sequence, independent of GOMAXPROCS
// and mailbox batching. A caller blocked in Do cannot send the later
// arrival that would release its own operation, so while one waits the
// shard runs on past the watermark (see ingest).

// serveMailbox bounds each shard's submission mailbox: when a shard's
// event loop falls behind, submitters block on the full mailbox
// (backpressure) instead of growing an unbounded queue.
const serveMailbox = 512

// serveBatch caps how many submissions one event-loop wakeup drains
// from the mailbox before running the engine: batching amortizes the
// channel handoff without letting one drain starve the clock.
const serveBatch = 256

// ErrServeStopped reports a submission to — or a second Stop of — a
// Server that has already been stopped.
var ErrServeStopped = errors.New("core: server stopped")

// ServeSetup describes a live serving stack: the ShardSetup sharded
// replay uses, plus the knob only a live server has.
type ServeSetup struct {
	ShardSetup
	// Resplit enables heat-balanced shard repartitioning: a shard whose
	// admitted-op share stays above its fair share splits its LBA range
	// at a quiesced, heat-balanced boundary (see ResplitConfig). Nil
	// keeps the shard map fixed.
	Resplit *ResplitConfig

	// mailbox overrides serveMailbox (0: serveMailbox), to force
	// backpressure, and pool the codec pool (nil: parallel.Shared());
	// only tests set them.
	mailbox int
	pool    *parallel.SharedPool
}

// serveResult is one completed facade operation: the open-loop latency
// (virtual completion minus intended arrival) and the first error any
// sub-operation hit.
type serveResult struct {
	lat time.Duration
	err error
}

// ticket joins the per-shard sub-operations of one facade call and hands
// the joined result to its one awaiter: the call's latency is the slowest
// sub-operation's. An awaiter that finds the result ready takes it from
// the ticket's fields; one that must block parks on res, which the first
// such wait makes and the ticket keeps across uses, so a result waiting
// for a slow awaiter holds no channel. Tickets are pooled, so each use is
// one incarnation named by a generation: state packs gen<<1|claimed, and
// an Await of a spent incarnation finds another generation and fails
// instead of reading someone else's result.
type ticket struct {
	mu        sync.Mutex
	remaining int
	lat       time.Duration
	err       error
	res       chan serveResult // one-buffered; empty between incarnations
	parked    bool             // a waiter blocks on res
	state     atomic.Uint64
}

// tickets recycles tickets across facade calls; an awaiter puts its
// ticket back once it has taken a clean result.
var tickets = sync.Pool{New: func() any { return new(ticket) }}

// errAwaited reports a second call of one operation's Await.
var errAwaited = errors.New("core: operation already awaited (an Await is one-shot)")

// newTicket takes a ticket joining pieces sub-operations and returns it
// with its current generation.
func newTicket(pieces int) (*ticket, uint64) {
	t := tickets.Get().(*ticket)
	t.remaining, t.lat, t.err = pieces, 0, nil
	return t, t.state.Load() >> 1
}

// complete folds one sub-operation's outcome in; the last one hands the
// result to a parked waiter, and reports whether it woke one.
// Sub-operations complete on their shard's event-loop goroutine, so the
// fold is mutex-guarded. Folding more outcomes than the ticket has
// pieces is a bug in the shard's books, never a race callers can
// provoke.
func (t *ticket) complete(lat time.Duration, err error) (woke bool) {
	t.mu.Lock()
	if err != nil && t.err == nil {
		t.err = err
	}
	if lat > t.lat {
		t.lat = lat
	}
	t.remaining--
	left := t.remaining
	if left == 0 && t.parked {
		t.res <- serveResult{lat: t.lat, err: t.err} // buffered: never blocks
		woke = true
	}
	t.mu.Unlock()
	if left < 0 {
		panic("core: serve ticket completed more often than it has pieces")
	}
	return woke
}

// wait blocks for incarnation gen's joined result or the context,
// whichever is first (the operation itself still completes server-side).
// A compare-and-swap claims the incarnation, so a concurrent or later
// second call fails at once. A cancelled wait releases the claim, so a
// retry still gets the result; a taken result spends the incarnation,
// and a clean one recycles the ticket.
func (t *ticket) wait(ctx context.Context, gen uint64) (time.Duration, error) {
	if !t.state.CompareAndSwap(gen<<1, gen<<1|1) {
		return 0, errAwaited
	}
	t.mu.Lock()
	if t.remaining == 0 {
		r := serveResult{lat: t.lat, err: t.err}
		t.mu.Unlock()
		return t.spend(gen, r)
	}
	if t.res == nil {
		t.res = make(chan serveResult, 1)
	}
	t.parked = true
	t.mu.Unlock()
	select {
	case r := <-t.res:
		t.parked = false // complete sent under the lock and is done with t
		return t.spend(gen, r)
	case <-ctx.Done():
		// Unpark, and drop a result sent meanwhile: the fields still hold
		// it for a retry, and res must be empty for the next incarnation.
		t.mu.Lock()
		t.parked = false
		select {
		case <-t.res:
		default:
		}
		t.mu.Unlock()
		t.state.Store(gen << 1)
		return 0, ctx.Err()
	}
}

// spend ends incarnation gen with its result r, recycling a ticket whose
// result is clean.
func (t *ticket) spend(gen uint64, r serveResult) (time.Duration, error) {
	t.state.Store((gen + 1) << 1)
	if r.err == nil {
		tickets.Put(t)
	}
	return r.lat, r.err
}

// serveReq is one shard-local submission, mailed by value: an intended
// virtual arrival stamp, the (already shard-rebased) operation it
// carries, and the ticket its completion folds into.
type serveReq struct {
	at     time.Duration // intended virtual arrival (offset from serve start)
	off    int64         // shard-local byte offset
	size   int64         // length in bytes
	write  bool
	wait   bool   // the caller is blocked on it (Do)
	tenant string // submitting tenant ("" untagged)
	t      *ticket
}

// serveOp is a shard's record of one admitted submission. Records belong
// to the shard's event-loop goroutine: admit takes one from the free
// list, a normal completion puts it back. arrive and done are bound once
// per record: the arrival event, a shaped re-arrival and the read/write
// path's completion reuse them instead of a closure each.
type serveOp struct {
	serveReq
	shaped bool          // the tenant's bucket was already charged
	idx    int           // position in the shard's pending list; -1 off it
	seq    int64         // admission number (the shard's ops count)
	queued time.Duration // ingress queueing ahead of admission
	ts     *TenantStats  // the tenant's row (nil for untagged traffic)
	arrive func()
	done   func(resp time.Duration)
}

// completion is one finished operation whose ticket the next publish
// completes.
type completion struct {
	t   *ticket
	lat time.Duration
}

// Server routes live requests to LBA-range shards, each drained by a
// long-lived event-loop goroutine. Build one with NewServer; submit with
// Do or SubmitAt (goroutine-safe, any number of concurrent callers);
// Stop drains the mailboxes and returns the merged RunStats.
type Server struct {
	part   partition
	shards []*serveShard

	// setup keeps the (normalized) factories so a resplit can stamp out
	// an additional shard pipeline mid-run.
	setup ServeSetup
	// rcfg is the normalized repartitioning policy (nil keeps the shard
	// map fixed).
	rcfg *ResplitConfig

	// qcfg is the QoS configuration shared by every shard (nil when QoS
	// is off); the facade-side strict-tenant check runs against it
	// before any piece is mailed.
	qcfg *qos.Config

	kids []*obs.Collector

	mu     sync.RWMutex // guards closed and the shard router (part/shards/kids)
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
	mail chan serveReq
	stop chan struct{}
	done chan struct{}

	// pending lists the admitted operations not yet completed, each
	// record holding its own index; free holds the records a normal
	// completion returned, and finished the completions the next publish
	// hands to their tickets.
	pending  []*serveOp
	free     []*serveOp
	finished []completion
	// waited counts the pending operations whose caller is blocked on
	// them.
	waited int
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
	// horizon is the highest arrival stamp admitted so far — the
	// watermark the engine runs up to.
	horizon time.Duration
	// tail[head:] lists the unarrived operations in admission order, for
	// the write path's lookahead (kept only if ahead); an arrival out of
	// that order spoils it until every admitted operation has arrived.
	tail            []trace.Request
	head, unarrived int
	ahead, spoiled  bool
	// last is the ticket of the last operation the previous publish
	// completed, in incarnation lastGen: still that incarnation, its
	// result has not been taken.
	last    *ticket
	lastGen uint64
}

// NewServer validates the setup, stamps out one pipeline per shard, and
// starts the shard event-loop goroutines.
func NewServer(setup ServeSetup) (*Server, error) {
	part, err := setup.partition()
	if err != nil {
		return nil, err
	}
	setup.mailbox = cmp.Or(setup.mailbox, serveMailbox)
	sv := &Server{
		part:   part,
		shards: make([]*serveShard, setup.Shards),
		setup:  setup,
		rcfg:   setup.Resplit.normalized(setup.Shards),
		kids:   make([]*obs.Collector, setup.Shards),
	}
	for i := range sv.shards {
		if sv.shards[i], sv.kids[i], err = sv.buildShard(i, part.width(i)); err != nil {
			return nil, err
		}
	}
	for _, ss := range sv.shards {
		go ss.run()
	}
	return sv, nil
}

// Incompatible is the one table of feature combinations no stack is
// built with: the facade consults it when a System is configured, and
// every shard a Server builds (at NewServer or by a resplit) goes
// through it with serve set. The error carries no package prefix;
// callers add theirs.
func (s *ServeSetup) Incompatible(o *Options, serve bool) error {
	resplit, powerCut := s.Resplit != nil, o.Faults != nil && o.Faults.PowerCutAt > 0
	switch {
	case resplit && o.Dedup != nil:
		return errors.New("resplit cannot migrate dedup-shared extents (references may span the split boundary); disable one of the two")
	case resplit && o.VerifyReads:
		return errors.New("resplit rebases extents to new shard-local offsets, which breaks offset-keyed read verification; disable one of the two")
	case resplit && o.QoS != nil:
		return errors.New("resplit changes the shard count mid-run, invalidating per-shard QoS rate shares; disable one of the two")
	case serve && powerCut:
		return errors.New("serve mode does not support power-cut fault plans")
	case serve && o.FlushTimeout < 0 && !o.DisableSD:
		return errors.New("serve mode requires a positive SD flush timeout (a disabled timer would buffer the last run forever)")
	case powerCut && s.Shards > 1:
		return fmt.Errorf("power-cut recovery is not supported with WithShards(%d): shards crash and recover independently of each other", s.Shards)
	}
	return nil
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
	if err := sv.setup.Incompatible(&opts, true); err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}
	kid := sv.setup.Obs.Child(id)
	dev, err := sv.setup.BuildDevice(vol, opts, kid, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("core: shard %d: %w", id, err)
	}
	// The shard's loop opens the device's one run; detach the replay-only
	// closed-loop callbacks — serve tracks completion per operation.
	dev.stats.Trace = "serve"
	dev.sharedPool = sv.setup.pool
	dev.wp.complete = func(time.Duration) {}
	dev.rp.complete = func(time.Duration) {}
	dev.wp.drop = func(int) {}
	dev.rp.drop = func(int) {}
	return &serveShard{
		sv:         sv,
		id:         id,
		dev:        dev,
		mail:       make(chan serveReq, sv.setup.mailbox),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
		inflightBy: make(map[string]int),
	}, kid, nil
}

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

// Do submits one operation on [off, off+size) with intended virtual
// arrival stamp at (offset from serve start; 0 arrives as soon as
// possible) and blocks until it completes, returning its open-loop
// virtual latency, measured from at. tenant tags it as in SubmitAtTag.
// The blocked caller is the one client that cannot send the later
// arrival which would release its operation past the shard's
// watermark, so the operation releases the watermark itself.
// Goroutine-safe; ctx cancels the wait (the operation itself still
// completes server-side).
func (sv *Server) Do(ctx context.Context, at time.Duration, off, size int64, write bool, tenant string) (time.Duration, error) {
	t, gen, err := sv.mail(ctx, at, off, size, write, tenant, true)
	if err != nil {
		return 0, err
	}
	return t.wait(ctx, gen)
}

// Await blocks for one submitted operation's completion and returns its
// open-loop virtual latency. Call it once: a call after one that
// returned the result, or alongside one still waiting, fails at once and
// never returns another operation's result. The operation completes
// server-side even if the context cancels the wait, and a call after a
// cancelled one still gets the result.
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
	t, gen, err := sv.mail(ctx, at, off, size, write, tenant, false)
	if err != nil {
		return nil, err
	}
	return func(ctx context.Context) (time.Duration, error) { return t.wait(ctx, gen) }, nil
}

// mail aligns one facade operation against the volume, cuts it at
// shard boundaries, and mails the pieces to their shards, blocking on
// full mailboxes (backpressure); wait marks pieces whose caller blocks
// on them. It returns the ticket the pieces join into and its
// generation. The read lock holds Stop off until every piece is mailed,
// so a mailbox is never closed under a submitter.
func (sv *Server) mail(ctx context.Context, at time.Duration, off, size int64, write bool, tenant string, wait bool) (*ticket, uint64, error) {
	if at < 0 {
		at = 0
	}
	if tenant != "" && !sv.qcfg.Known(tenant) {
		return nil, 0, fmt.Errorf("core: tenant %q: %w", tenant, qos.ErrUnknownTenant)
	}
	aOff, aSize := alignRequest(sv.part.vol, trace.Request{Offset: off, Size: size, Write: write})
	// The read lock covers both passes over the router: a resplit
	// (holding the write lock) must not move a boundary between the
	// piece count and the mailing.
	sv.mu.RLock()
	if sv.closed {
		sv.mu.RUnlock()
		return nil, 0, ErrServeStopped
	}
	// Count the shard-boundary pieces first: the join needs the fan-out
	// width before the first piece can be mailed.
	pieces := 0
	for o, n := aOff, aSize; n > 0; pieces++ {
		_, _, c := sv.part.next(o, n)
		o += c
		n -= c
	}
	t, gen := newTicket(pieces)
	for o, n := aOff, aSize; n > 0; {
		i, local, c := sv.part.next(o, n)
		req := serveReq{at: at, off: local, size: c, write: write, wait: wait, tenant: tenant, t: t}
		ss := sv.shards[i]
		select {
		case ss.mail <- req:
		default:
			sv.stalls.Add(1)
			select {
			case ss.mail <- req:
			case <-ctx.Done():
				sv.mu.RUnlock()
				return nil, 0, ctx.Err()
			}
		}
		o += c
		n -= c
	}
	sv.mu.RUnlock()
	return t, gen, nil
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
	parts := make([]*RunStats, len(sv.shards))
	errs := make([]error, len(sv.shards))
	live := make([]int64, len(sv.shards))
	for i, ss := range sv.shards {
		parts[i], errs[i], live[i] = ss.dev.stats, ss.dev.fs.err, ss.dev.se.mapping.LiveBlocks()
	}
	merged, err := sv.setup.merge(sv.kids, parts, errs, "serve ")
	merged.SubmitStalls = sv.stalls.Load()
	merged.ShardLiveBlocks = live
	return merged, err
}

// run is the shard's event-loop goroutine: open the device's run, then
// block on the mailbox, drain a batch, run the virtual-time engine until
// quiescent, repeat. On stop it drains whatever was already accepted and
// closes the run.
func (ss *serveShard) run() {
	defer close(ss.done)
	if err := ss.dev.open(false); err != nil {
		ss.dev.fs.fail(err)
	}
	if wp := ss.dev.wp; wp.canLookAhead() {
		wp.upcoming, ss.ahead = ss.upcoming, true
	}
	for {
		select {
		case req := <-ss.mail:
			ss.ingest(req)
		case <-ss.stop:
			for {
				select {
				case req := <-ss.mail:
					ss.ingest(req)
				default:
					ss.finish()
					return
				}
			}
		}
	}
}

// ingest admits one submission plus up to serveBatch-1 more already
// waiting, runs the engine, and publishes the completions. Admitting the
// whole batch before running lets simultaneous submissions sort into
// virtual-time order on the event heap regardless of mailbox
// interleaving.
func (ss *serveShard) ingest(first serveReq) {
	ss.admit(first)
drain:
	for n := 1; n < serveBatch; n++ {
		select {
		case req := <-ss.mail:
			ss.admit(req)
		default:
			break drain
		}
	}
	// Re-arm the background timers for this batch (one that fired with
	// nothing pending disarmed itself), then run up to the arrival
	// watermark: completions past the newest stamp wait for the next
	// batch (or the stop-drain), so the clock never outruns a
	// stamp-ordered submitter. While a blocked caller waits on this
	// shard, nothing it sends can release its operation, so the engine
	// runs on: pending work first — RunPending, not Run, so the parked
	// maintenance/checkpoint timers cannot fast-forward the clock — and
	// then, should a shaper have parked the operation's arrival as
	// housekeeping, the next timer.
	ss.dev.armTimers()
	eng := ss.dev.eng
	eng.RunUntil(ss.horizon)
	for ss.waited > 0 {
		eng.RunPending()
		if ss.waited == 0 || !eng.Step() {
			break
		}
	}
	ss.publish()
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
func (ss *serveShard) admit(req serveReq) {
	d := ss.dev
	if d.fs.failed() {
		req.t.complete(0, d.fs.err)
		return
	}
	if req.tenant != "" {
		if max := d.fe.qs.maxDeferred(req.tenant); max > 0 && ss.inflightBy[req.tenant] >= max {
			d.fe.reject(req.off, req.size, req.write, req.tenant)
			req.t.complete(0, fmt.Errorf("core: tenant %q: %w", req.tenant, qos.ErrAdmissionRejected))
			return
		}
		ss.inflightBy[req.tenant]++
	}
	seq := ss.ops.Add(1)
	at := req.at
	if now := d.eng.Now(); at < now {
		at = now
	}
	if at > ss.horizon {
		ss.horizon = at
	}
	if ss.ahead {
		if ss.unarrived++; !ss.spoiled {
			ss.tail = append(ss.tail, trace.Request{Arrival: at, Offset: req.off, Size: req.size, Write: req.write})
		}
	}
	op := ss.record(req)
	op.seq = seq
	op.idx = len(ss.pending)
	ss.pending = append(ss.pending, op)
	if op.wait {
		ss.waited++
	}
	d.eng.SchedulePriority(at, op.arrive)
}

// record fills an op record for req: a recycled one from the free list,
// or a new one with its callbacks bound.
func (ss *serveShard) record(req serveReq) *serveOp {
	var op *serveOp
	if n := len(ss.free); n > 0 {
		op = ss.free[n-1]
		ss.free = ss.free[:n-1]
	} else {
		op = &serveOp{}
		op.arrive = func() { ss.arrive(op) }
		op.done = func(resp time.Duration) { ss.finishOp(op, resp) }
	}
	op.serveReq, op.shaped = req, false
	return op
}

// remove drops one pending operation from the shard's books: the last
// pending record moves into its slot.
func (ss *serveShard) remove(op *serveOp) {
	last := len(ss.pending) - 1
	moved := ss.pending[last]
	ss.pending[op.idx], moved.idx = moved, op.idx
	ss.pending[last] = nil
	ss.pending = ss.pending[:last]
	op.idx = -1
	if op.wait {
		ss.waited--
	}
	if op.tenant != "" {
		ss.inflightBy[op.tenant]--
	}
}

// arrive feeds one admitted operation into the pipeline at the current
// virtual time, with the record's completion measuring the open-loop
// latency from the intended stamp. A shaped tenant's bucket may push the
// arrival later; the added delay is part of the measured latency,
// exactly like ingress queueing.
func (ss *serveShard) arrive(op *serveOp) {
	d := ss.dev
	if ss.ahead && !op.shaped {
		ss.consume(op)
	}
	if d.fs.failed() {
		if op.idx >= 0 {
			ss.remove(op)
			op.t.complete(0, d.fs.err)
		}
		return
	}
	if !op.shaped {
		if delay := d.fe.shape(op.off, op.size, op.write, op.tenant); delay > 0 {
			// The re-arrival parks as a housekeeping event — like the
			// maintenance timers, a far-future deadline must not
			// fast-forward the clock past arrival stamps still in
			// flight, or every later operation is billed for delay the
			// shaper only owed this one. Parked re-arrivals fire when
			// real traffic pushes the clock past them, or during the
			// stop-drain.
			op.shaped = true
			d.eng.ScheduleHousekeepingAfter(delay, op.arrive)
			return
		}
	}
	now := d.eng.Now()
	op.ts = d.stats.Tenant(op.tenant) // nil for untagged traffic
	op.queued = now - op.at
	// The books and the hand-off are the ones replay admits through.
	d.fe.dispatch(now, op.off, op.size, op.write, op.tenant, op.ts, op.done)
}

// consume takes an arriving operation off the tail: the head, or else
// the whole tail, spoiled. The last arrival, which every ingest reaches
// (RunUntil(horizon) fires every admitted stamp), empties the tail.
func (ss *serveShard) consume(op *serveOp) {
	switch ss.unarrived--; {
	case ss.unarrived == 0:
		ss.tail, ss.head, ss.spoiled = ss.tail[:0], 0, false
	case ss.spoiled:
	case op.seq != ss.ops.Load()-int64(ss.unarrived):
		ss.tail, ss.head, ss.spoiled = ss.tail[:0], 0, true
	default:
		ss.head++
	}
}

// upcoming is the write path's lookahead tail; ok is false while the
// arrival order is not known (spoiled). A shard never defers admission:
// a tenant past its bound is rejected.
func (ss *serveShard) upcoming() (reqs []trace.Request, ok bool) {
	return ss.tail[ss.head:], !ss.spoiled
}

// finishOp is one dispatched operation's completion: it observes the
// latency, then queues the ticket's completion for the next publish and
// recycles the record. A record failAll already failed keeps only the
// observations — its ticket holds the shard's error, and the record is
// never recycled, so a completion landing late touches nothing reused.
func (ss *serveShard) finishOp(op *serveOp, resp time.Duration) {
	d := ss.dev
	lat := op.queued + resp
	d.stats.Resp.Observe(lat)
	if op.ts != nil {
		op.ts.Resp.Observe(lat)
	}
	if op.write {
		d.stats.RespWrite.Observe(lat)
	} else {
		d.stats.RespRead.Observe(lat)
	}
	if op.idx < 0 {
		return
	}
	ss.remove(op)
	ss.finished = append(ss.finished, completion{t: op.t, lat: lat})
	op.serveReq, op.ts = serveReq{}, nil
	ss.free = append(ss.free, op)
}

// publish completes the tickets of every operation finished since the
// last publish, once per engine run rather than once per completion
// event. With mail already waiting, the loop then yields its processor
// once if it woke a parked waiter, or if the last result of the previous
// publish has not been taken yet: Go runs a goroutine this one woke on
// the same processor, after it, so a loop that never blocks would keep
// its awaiters off the CPU while their results, and their tickets, pile
// up.
func (ss *serveShard) publish() {
	if len(ss.finished) == 0 {
		return
	}
	behind := ss.last != nil && ss.last.state.Load()>>1 == ss.lastGen
	// The generation is read while the result is still unpublished, so
	// it cannot have been spent yet.
	last := ss.finished[len(ss.finished)-1].t
	ss.last, ss.lastGen = last, last.state.Load()>>1
	woke := false
	for _, c := range ss.finished {
		woke = c.t.complete(c.lat, nil) || woke
	}
	if (woke || behind) && len(ss.mail) > 0 {
		runtime.Gosched()
	}
	clear(ss.finished)
	ss.finished = ss.finished[:0]
}

// failAll completes every pending operation with the shard's fatal
// error: once the pipeline has failed, nothing in flight will ever
// complete normally, and a submitter must not block forever. The
// records stay off the free list: a failed one may still be referenced
// by an event in flight.
func (ss *serveShard) failAll() {
	err := ss.dev.fs.err
	if err == nil {
		err = errors.New("core: serve pipeline failed")
	}
	for len(ss.pending) > 0 {
		op := ss.pending[len(ss.pending)-1]
		ss.remove(op)
		op.t.complete(0, err)
	}
}

// finish drains the pipeline after the intake closed: run the engine
// dry, flush any buffered SD run, publish what completed, fail whatever
// could not complete, and close the device's run.
func (ss *serveShard) finish() {
	d := ss.dev
	d.eng.Run()
	d.wp.drain()
	ss.publish()
	if d.fs.failed() {
		ss.failAll()
	}
	if len(ss.pending) > 0 {
		d.fs.fail(fmt.Errorf("core: serve shard %d stopped with %d operations unfinished", ss.id, len(ss.pending)))
		ss.failAll()
	}
	d.close()
}
