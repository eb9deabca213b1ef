// Package parallel provides the process-wide pool of OS-level worker
// goroutines plus single-consumer futures, used to overlap *real* CPU
// work (codec execution, content generation, read verification) with the
// virtual-time event loop.
//
// The EDC replay engine is a discrete-event simulator: virtual time is
// advanced by a single goroutine draining an event heap, and every
// statistic it reports is a function of virtual time only. Real codec
// work, however, burns wall-clock time, and on a multi-hour trace the
// inline Compress calls — not the event arithmetic — dominate replay
// duration. Because compressed output is a pure function of
// (content, codec), that work can run ahead on other cores: the event
// loop dispatches a closure when the write run is formed and joins on
// the result exactly where the sequential code would have produced it.
// The virtual-time event order, and therefore every reported statistic,
// is bit-identical for any worker count.
//
// Futures are help-first. Every future's job carries a claim, taken by
// whichever goroutine runs it; a pool worker that dequeues a job already
// claimed drops it. Wait first claims its own job: if that succeeds the
// job is still queued, and the waiter runs it inline instead of waking a
// worker and sleeping until it finishes. If a worker already holds the
// job, the waiter does not park while other jobs are queued: it runs them
// one at a time until its own result is ready. Only the goroutine that
// executes a job changes, so results cannot.
//
// Speculative work, which may turn out unneeded, goes through TryGo and
// Cancel: TryGo never runs a job on its caller, and Cancel claims a job
// nobody has started, leaving a dead entry that the next worker, or a
// submitter that finds the channel full, drops.
//
// Helping cannot deadlock, because a job never waits: it submits
// nothing, joins no future and takes no lock a waiter may hold (a codec
// lookup's registry read lock is held for the lookup only). A claimed job
// is therefore always running to completion on some goroutine, and a
// waiter either receives its result or takes a job it can finish by
// itself. A Wait made while its goroutine holds a lock (a serve shard
// splitting under the router's write lock) holds it through the jobs it
// helps with; those are jobs its own queued job sat behind, which the
// pool had to run first anyway.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// queueCapPerWorker sizes the pool's job channel at 4 slots per worker:
// enough backlog that a worker finishing a job finds the next one
// waiting, small enough that a submitter outrunning the workers is
// pushed back onto its own core quickly.
const queueCapPerWorker = 4

// job is what the pool's channel carries: a Future of any result type.
// run executes it unless another goroutine claimed it first, and reports
// whether it did.
type job interface{ run() bool }

// SharedPool is a fixed set of worker goroutines ranging over one
// bounded job channel. Every pipeline in the process (each replay
// device, each serve shard) submits through its own Queue handle onto
// that channel, so an idle core runs whichever pipeline's job is next.
// Codec jobs are pure functions joined at fixed virtual-time events, so
// which worker runs a job never changes results — only wall-clock speed.
type SharedPool struct {
	jobs    chan job
	workers int
	wg      sync.WaitGroup

	submitted atomic.Int64 // jobs accepted onto the channel
	inline    atomic.Int64 // jobs run by the submitter (channel full)
	stolen    atomic.Int64 // queued jobs run by a waiting or submitting goroutine
	cancelled atomic.Int64 // queued jobs their owner claimed without running
	refused   atomic.Int64 // TryGo calls turned away by a full channel
}

// PoolStats is a point-in-time snapshot of a SharedPool's activity
// counters (wall-clock metadata; never part of simulated results).
type PoolStats struct {
	// Workers is the pool's fixed worker-goroutine count.
	Workers int `json:"workers"`
	// Submitted counts jobs put on the channel.
	Submitted int64 `json:"submitted"`
	// Stolen counts submitted jobs that a goroutine other than a worker
	// ran: a goroutine blocked in Wait (its own job, claimed while still
	// queued, or another queued job it took while its own was running
	// elsewhere), or a submitter that found the channel full and ran its
	// oldest live job. Submitted minus Stolen minus Cancelled is what the
	// workers ran.
	Stolen int64 `json:"stolen"`
	// Inline counts jobs the submitter ran itself because the channel
	// was full (backpressure).
	Inline int64 `json:"inline"`
	// Cancelled counts submitted jobs that their owner claimed through
	// Cancel before any goroutine ran them; a worker drops them.
	Cancelled int64 `json:"cancelled"`
	// Refused counts TryGo calls that found the channel full and were
	// turned away; their jobs were never submitted. Beside Stolen it
	// tells whether speculation is held back by the pool's backlog.
	Refused int64 `json:"refused"`
}

// NewSharedPool starts a pool with n workers (n < 1 is clamped to 1)
// over a channel bounded at 4*n jobs.
func NewSharedPool(n int) *SharedPool {
	if n < 1 {
		n = 1
	}
	p := &SharedPool{jobs: make(chan job, queueCapPerWorker*n), workers: n}
	p.wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer p.wg.Done()
			for j := range p.jobs {
				j.run()
			}
		}()
	}
	return p
}

var (
	sharedOnce sync.Once
	sharedPool *SharedPool
)

// Shared returns the process-wide pool, created on first use with
// runtime.GOMAXPROCS(0) workers. It is never closed; its workers block
// on the empty channel when no pipeline has codec work queued.
func Shared() *SharedPool {
	sharedOnce.Do(func() { sharedPool = NewSharedPool(runtime.GOMAXPROCS(0)) })
	return sharedPool
}

// Stats snapshots the pool's activity counters.
func (p *SharedPool) Stats() PoolStats {
	return PoolStats{
		Workers:   p.workers,
		Submitted: p.submitted.Load(),
		Stolen:    p.stolen.Load(),
		Inline:    p.inline.Load(),
		Cancelled: p.cancelled.Load(),
		Refused:   p.refused.Load(),
	}
}

// Close stops the workers once every job already on the channel has
// run. Only private pools (tests) call this; the Shared singleton lives
// for the process. No Queue of the pool may Go afterwards.
func (p *SharedPool) Close() {
	close(p.jobs)
	p.wg.Wait()
}

// Queue is one client's handle on a SharedPool. A replay or serve
// pipeline holds exactly one for as long as it runs; Go is called from
// its event-loop goroutine (any goroutine is safe).
type Queue struct {
	pool *SharedPool
}

// NewQueue returns a new client handle on the pool.
func (p *SharedPool) NewQueue() *Queue { return &Queue{pool: p} }

// Cap returns how many jobs can wait for a worker before Go runs the
// next one inline: 4 per pool worker. Clients that let results lag
// behind their consumer size that window from it.
func (q *Queue) Cap() int { return cap(q.pool.jobs) }

// Close marks the end of the client's run. It does not wait: jobs
// submitted earlier still run, on a worker or on their waiter, and their
// futures still resolve, but nothing runs them inside Close. No client
// relies on that — every pipeline joins the futures it dispatched before
// closing its queue, and a power-cut replay abandons the ones it never
// joined.
func (q *Queue) Close() {}

// Future holds the eventual result of a closure submitted through a
// Queue, and is itself the job the pool's channel carries. It is
// single-consumer: exactly one goroutine may call Wait (possibly
// repeatedly — the first call joins, later calls return the cached
// value). That consumer is the simulator's event-loop goroutine.
type Future[T any] struct {
	fn      func() T      // the job; only the goroutine holding the claim touches it
	ch      chan struct{} // signalled once v is set, when a goroutine other than the waiter ran fn
	pool    *SharedPool
	claimed atomic.Bool
	done    bool
	v       T
}

// Go puts f on the pool's channel through q and returns a Future for its
// result. When the channel is full f runs inline on the caller instead —
// backpressure that never blocks the event loop behind work it could be
// doing itself. A full channel is first cleared of claimed heads (see
// offer), so jobs nobody will run do not push f inline.
func Go[T any](q *Queue, f func() T) *Future[T] {
	p := q.pool
	fut := &Future[T]{fn: f, ch: make(chan struct{}, 1), pool: p}
	if !p.offer(fut) {
		p.inline.Add(1)
		fut.run()
	}
	return fut
}

// TryGo is Go for speculative work: when the channel is full it runs
// nothing on the caller, counts the refusal and returns nil.
func TryGo[T any](q *Queue, f func() T) *Future[T] {
	p := q.pool
	if len(p.jobs) < cap(p.jobs) { // refuse before allocating the future
		fut := &Future[T]{fn: f, ch: make(chan struct{}, 1), pool: p}
		select {
		case p.jobs <- fut:
			p.submitted.Add(1)
			return fut
		default:
		}
	}
	p.refused.Add(1)
	return nil
}

// offer puts j on the channel. While the channel is full it takes the
// head instead: a head already claimed (by its waiter or by Cancel) is
// one a worker would only drop, so it is dropped here and j tried again.
// A live head ends the attempt: the caller runs it, as the next worker
// would have, and offer reports false so that j runs on the caller too —
// a channel full of live work still pushes back on its submitter.
func (p *SharedPool) offer(j job) bool {
	for {
		select {
		case p.jobs <- j:
			p.submitted.Add(1)
			return true
		default:
		}
		select {
		case h := <-p.jobs:
			if h.run() {
				p.stolen.Add(1)
				return false
			}
		default:
		}
	}
}

// Resolved returns an already-completed Future carrying v; Wait returns
// immediately. It lets callers keep one join point when work was
// executed inline (sequential mode).
func Resolved[T any](v T) *Future[T] {
	return &Future[T]{v: v, done: true}
}

// claim takes the right to run the job; it succeeds exactly once.
func (f *Future[T]) claim() func() T {
	if !f.claimed.CompareAndSwap(false, true) {
		return nil
	}
	fn := f.fn
	f.fn = nil
	return fn
}

// Cancel claims a job no goroutine has started, so that it never runs,
// and reports whether it did; the future then resolves to T's zero
// value. False means the job is running or has run (or the future was
// resolved from the start): Wait for it before reusing anything it
// touches. Only the future's consumer may call Cancel.
func (f *Future[T]) Cancel() bool {
	if f.done || f.claim() == nil {
		return false
	}
	f.pool.cancelled.Add(1)
	var zero T
	f.v, f.done = zero, true
	return true
}

// run is the job side: a worker, a helping waiter or an inline submit
// runs the closure and publishes its result, unless it was claimed first.
func (f *Future[T]) run() bool {
	fn := f.claim()
	if fn == nil {
		return false
	}
	f.v = fn()
	f.ch <- struct{}{}
	return true
}

// Wait returns the closure's result. A job still queued runs here; a job
// some other goroutine is running is waited for, while this goroutine
// runs whatever else is queued in the meantime.
func (f *Future[T]) Wait() T {
	if f.done {
		return f.v
	}
	p := f.pool
	if fn := f.claim(); fn != nil {
		p.stolen.Add(1)
		f.v, f.done = fn(), true
		return f.v
	}
	jobs := p.jobs
	for {
		select {
		case <-f.ch:
			f.done = true
			return f.v
		default:
		}
		select {
		case <-f.ch:
			f.done = true
			return f.v
		case j, ok := <-jobs:
			if !ok {
				// A private pool was closed: nothing is left to help with,
				// and a nil channel never fires again.
				jobs = nil
				continue
			}
			if j.run() {
				p.stolen.Add(1)
			}
		}
	}
}
