package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file implements the process-wide work-stealing codec pool. The
// per-shard Pool (parallel.go) gives each replay pipeline a private set
// of workers, which wastes cores under skew: a zipfian workload leaves
// cold shards' workers parked while the hot shard's pool saturates. A
// SharedPool instead owns one set of workers for the whole process;
// every pipeline registers a bounded local Queue, and an idle worker
// that finds its own queue empty steals from the others. Codec jobs are
// pure functions joined at fixed virtual-time events, so which worker
// (or which pipeline's backlog) runs a job never changes results — only
// wall-clock speed.

// sharedQueueCapPerWorker sizes each client queue at 4 slots per pool
// worker — the same backlog-to-worker ratio the per-shard Pool used for
// its job channel.
const sharedQueueCapPerWorker = 4

// SharedPool is a fixed set of worker goroutines draining the bounded
// local queues registered against it. Workers scan the queues round-
// robin starting at their own index, so distinct workers prefer
// distinct queues but steal from any backlog once their preferred one
// is empty. Idle workers park on a condition variable; a pool with no
// queued work costs nothing.
type SharedPool struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queues  []*Queue // copy-on-write under mu; scanned by workers
	workers int
	qcap    int
	pending int // jobs pushed and not yet popped
	idle    int // workers parked in cond.Wait
	closed  bool
	wg      sync.WaitGroup

	submitted atomic.Int64 // jobs accepted onto a queue
	stolen    atomic.Int64 // jobs a worker took from a non-preferred queue
	inline    atomic.Int64 // jobs run by the submitter (queue full)
}

// PoolStats is a point-in-time snapshot of a SharedPool's activity
// counters (wall-clock metadata; never part of simulated results).
type PoolStats struct {
	// Workers is the pool's fixed worker-goroutine count.
	Workers int `json:"workers"`
	// Submitted counts jobs accepted onto a client queue.
	Submitted int64 `json:"submitted"`
	// Stolen counts jobs a worker took from a queue other than the one
	// its index prefers.
	Stolen int64 `json:"stolen"`
	// Inline counts jobs the submitter ran itself because its queue was
	// full (backpressure).
	Inline int64 `json:"inline"`
}

// NewSharedPool starts a pool with n workers (n < 1 is clamped to 1).
// Each registered Queue is bounded at 4*n jobs.
func NewSharedPool(n int) *SharedPool {
	if n < 1 {
		n = 1
	}
	p := &SharedPool{workers: n, qcap: sharedQueueCapPerWorker * n}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(n)
	for i := 0; i < n; i++ {
		go p.worker(i)
	}
	return p
}

var (
	sharedOnce sync.Once
	sharedPool *SharedPool
)

// Shared returns the process-wide pool, created on first use with
// runtime.GOMAXPROCS(0) workers. It is never closed; its workers park
// when no pipeline has codec work queued.
func Shared() *SharedPool {
	sharedOnce.Do(func() { sharedPool = NewSharedPool(runtime.GOMAXPROCS(0)) })
	return sharedPool
}

// Workers returns the pool's fixed worker count.
func (p *SharedPool) Workers() int { return p.workers }

// Stats snapshots the pool's activity counters.
func (p *SharedPool) Stats() PoolStats {
	return PoolStats{
		Workers:   p.workers,
		Submitted: p.submitted.Load(),
		Stolen:    p.stolen.Load(),
		Inline:    p.inline.Load(),
	}
}

// Close stops the workers after the queues drain. Only private pools
// (tests) call this; the Shared singleton lives for the process.
func (p *SharedPool) Close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// NewQueue registers a new bounded client queue on the pool.
func (p *SharedPool) NewQueue() *Queue {
	q := &Queue{pool: p, jobs: make([]func(), p.qcap)}
	p.mu.Lock()
	qs := make([]*Queue, len(p.queues)+1)
	copy(qs, p.queues)
	qs[len(qs)-1] = q
	p.queues = qs
	p.mu.Unlock()
	return q
}

// worker is one pool goroutine: drain jobs from any queue, preferring
// the one at its own index; park when every queue is empty.
func (p *SharedPool) worker(self int) {
	defer p.wg.Done()
	for {
		if f, stole := p.grab(self); f != nil {
			if stole {
				p.stolen.Add(1)
			}
			f()
			continue
		}
		p.mu.Lock()
		for p.pending <= 0 && !p.closed {
			p.idle++
			p.cond.Wait()
			p.idle--
		}
		if p.pending <= 0 && p.closed {
			p.mu.Unlock()
			return
		}
		p.mu.Unlock()
	}
}

// grab scans every registered queue round-robin from the worker's own
// index and pops the first job found; stole reports whether the job
// came from a queue other than the preferred one.
func (p *SharedPool) grab(self int) (f func(), stole bool) {
	p.mu.Lock()
	qs := p.queues
	p.mu.Unlock()
	if len(qs) == 0 {
		return nil, false
	}
	start := self % len(qs)
	for i := 0; i < len(qs); i++ {
		q := qs[(start+i)%len(qs)]
		if f := q.pop(); f != nil {
			p.mu.Lock()
			p.pending--
			p.mu.Unlock()
			return f, i != 0
		}
	}
	return nil, false
}

// Queue is one client's bounded FIFO of jobs on a SharedPool. A replay
// or serve pipeline owns exactly one; Submit is called from its event-
// loop goroutine (any goroutine is safe). When the queue is full the
// submitter runs the job inline — the same backpressure the per-shard
// Pool's bounded channel gave. The trailing pad keeps one queue's hot
// mutex and ring state from sharing a cache line with its neighbor's.
type Queue struct {
	pool *SharedPool
	mu   sync.Mutex
	jobs []func() // fixed-capacity ring
	head int
	n    int
	_    [64]byte // cache-line pad against false sharing between queues
}

// Cap returns the queue's fixed capacity: how many jobs can wait for a
// worker before Submit runs the next one inline. Clients that let
// results lag behind their consumer size that window from it.
func (q *Queue) Cap() int { return len(q.jobs) }

// push appends under q.mu; it reports false when the ring is full.
func (q *Queue) push(f func()) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.n == len(q.jobs) {
		return false
	}
	q.jobs[(q.head+q.n)%len(q.jobs)] = f
	q.n++
	return true
}

// pop removes the oldest job, nil when empty.
func (q *Queue) pop() func() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.n == 0 {
		return nil
	}
	f := q.jobs[q.head]
	q.jobs[q.head] = nil
	q.head = (q.head + 1) % len(q.jobs)
	q.n--
	return f
}

// Submit queues f for the pool's workers, or runs it inline when the
// queue is full. Satisfies Executor, so parallel.Go dispatches futures
// through a Queue exactly as through a private Pool.
func (q *Queue) Submit(f func()) {
	p := q.pool
	if !q.push(f) {
		p.inline.Add(1)
		f()
		return
	}
	p.submitted.Add(1)
	p.mu.Lock()
	p.pending++
	if p.idle > 0 {
		p.cond.Signal()
	}
	p.mu.Unlock()
}

// Close deregisters the queue. Clients join every future they dispatch
// before closing, so the queue is normally empty; any straggler jobs
// are run inline here so no future is left unresolved.
func (q *Queue) Close() {
	p := q.pool
	p.mu.Lock()
	qs := make([]*Queue, 0, len(p.queues))
	for _, cand := range p.queues {
		if cand != q {
			qs = append(qs, cand)
		}
	}
	p.queues = qs
	p.mu.Unlock()
	for {
		f := q.pop()
		if f == nil {
			return
		}
		p.mu.Lock()
		p.pending--
		p.mu.Unlock()
		p.inline.Add(1)
		f()
	}
}
