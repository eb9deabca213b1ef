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

// SharedPool is a fixed set of worker goroutines ranging over one
// bounded job channel. Every pipeline in the process (each replay
// device, each serve shard) submits through its own Queue handle onto
// that channel, so an idle core runs whichever pipeline's job is next.
// Codec jobs are pure functions joined at fixed virtual-time events, so
// which worker runs a job never changes results — only wall-clock speed.
type SharedPool struct {
	jobs    chan func()
	workers int
	wg      sync.WaitGroup

	submitted atomic.Int64 // jobs accepted onto the channel
	inline    atomic.Int64 // jobs run by the submitter (channel full)
}

// PoolStats is a point-in-time snapshot of a SharedPool's activity
// counters (wall-clock metadata; never part of simulated results).
type PoolStats struct {
	// Workers is the pool's fixed worker-goroutine count.
	Workers int `json:"workers"`
	// Submitted counts jobs handed to a worker through the channel.
	Submitted int64 `json:"submitted"`
	// Stolen is always 0: the pool has one channel and nothing to steal
	// from. The field remains because the perf harness reads it.
	Stolen int64 `json:"stolen"`
	// Inline counts jobs the submitter ran itself because the channel
	// was full (backpressure).
	Inline int64 `json:"inline"`
}

// NewSharedPool starts a pool with n workers (n < 1 is clamped to 1)
// over a channel bounded at 4*n jobs.
func NewSharedPool(n int) *SharedPool {
	if n < 1 {
		n = 1
	}
	p := &SharedPool{jobs: make(chan func(), queueCapPerWorker*n), workers: n}
	p.wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer p.wg.Done()
			for f := range p.jobs {
				f()
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
		Inline:    p.inline.Load(),
	}
}

// Close stops the workers once every job already on the channel has
// run. Only private pools (tests) call this; the Shared singleton lives
// for the process. No Queue of the pool may Submit afterwards.
func (p *SharedPool) Close() {
	close(p.jobs)
	p.wg.Wait()
}

// Queue is one client's handle on a SharedPool. A replay or serve
// pipeline holds exactly one for as long as it runs; Submit is called
// from its event-loop goroutine (any goroutine is safe).
type Queue struct {
	pool *SharedPool
}

// NewQueue returns a new client handle on the pool.
func (p *SharedPool) NewQueue() *Queue { return &Queue{pool: p} }

// Cap returns how many jobs can wait for a worker before Submit runs
// the next one inline: 4 per pool worker. Clients that let results lag
// behind their consumer size that window from it.
func (q *Queue) Cap() int { return cap(q.pool.jobs) }

// Submit hands f to the pool's workers, or runs it inline on the caller
// when the channel is full — backpressure that never blocks the event
// loop behind work it could be doing itself.
func (q *Queue) Submit(f func()) {
	p := q.pool
	select {
	case p.jobs <- f:
		p.submitted.Add(1)
	default:
		p.inline.Add(1)
		f()
	}
}

// Close marks the end of the client's run. It does not wait: jobs
// submitted earlier still run on the pool's workers and their futures
// still resolve, but nothing runs them inside Close. No client relies on
// that — every pipeline joins the futures it dispatched before closing
// its queue, and a power-cut replay abandons the ones it never joined.
func (q *Queue) Close() {}

// Future holds the eventual result of a closure submitted through a
// Queue. It is single-consumer: exactly one goroutine may call Wait
// (possibly repeatedly — the first call blocks, later calls return the
// cached value). That consumer is the simulator's event-loop goroutine.
type Future[T any] struct {
	ch   chan T
	v    T
	done bool
}

// Go submits f through q and returns a Future for its result.
func Go[T any](q *Queue, f func() T) *Future[T] {
	fut := &Future[T]{ch: make(chan T, 1)}
	q.Submit(func() { fut.ch <- f() })
	return fut
}

// Resolved returns an already-completed Future carrying v; Wait returns
// immediately. It lets callers keep one join point when work was
// executed inline (sequential mode).
func Resolved[T any](v T) *Future[T] {
	return &Future[T]{v: v, done: true}
}

// Wait blocks until the closure has run and returns its result.
func (f *Future[T]) Wait() T {
	if !f.done {
		f.v = <-f.ch
		f.done = true
	}
	return f.v
}
