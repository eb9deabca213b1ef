package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestSharedPoolRunsAllJobs(t *testing.T) {
	p := NewSharedPool(4)
	defer p.Close()
	// Several handles, one of them never used: every job offered through
	// any of them runs exactly once and resolves its own future.
	q1, q2, idle := p.NewQueue(), p.NewQueue(), p.NewQueue()
	defer q1.Close()
	defer q2.Close()
	defer idle.Close()
	var n atomic.Int64
	const jobs = 1000
	futs := make([]*Future[int], 2*jobs)
	for i := 0; i < jobs; i++ {
		i := i
		futs[2*i] = Go(q1, func() int { n.Add(1); return i * i })
		futs[2*i+1] = Go(q2, func() int { n.Add(1); return -i })
	}
	for i := 0; i < jobs; i++ {
		if got := futs[2*i].Wait(); got != i*i {
			t.Fatalf("q1 future %d = %d, want %d", i, got, i*i)
		}
		if got := futs[2*i+1].Wait(); got != -i {
			t.Fatalf("q2 future %d = %d, want %d", i, got, -i)
		}
	}
	if n.Load() != 2*jobs {
		t.Fatalf("ran %d jobs, want %d", n.Load(), 2*jobs)
	}
}

func TestFutureWaitIdempotent(t *testing.T) {
	p := NewSharedPool(1)
	defer p.Close()
	f := Go(p.NewQueue(), func() string { return "x" })
	if f.Wait() != "x" || f.Wait() != "x" {
		t.Fatal("Wait not idempotent")
	}
}

func TestResolved(t *testing.T) {
	f := Resolved([]byte("abc"))
	if string(f.Wait()) != "abc" {
		t.Fatal("Resolved future lost its value")
	}
}

func TestPoolMinWorkers(t *testing.T) {
	p := NewSharedPool(0) // clamped to 1
	defer p.Close()
	if w := p.Stats().Workers; w != 1 {
		t.Fatalf("%d workers, want 1", w)
	}
	if got := Go(p.NewQueue(), func() int { return 7 }).Wait(); got != 7 {
		t.Fatalf("got %d, want 7", got)
	}
}

// The lagged-verify ring in internal/core is sized from Cap, so the
// backlog-to-worker ratio is part of the contract.
func TestQueueCapFourPerWorker(t *testing.T) {
	for _, workers := range []int{1, 2, 5} {
		p := NewSharedPool(workers)
		if got := p.NewQueue().Cap(); got != 4*workers {
			t.Errorf("%d workers: Cap() = %d, want %d", workers, got, 4*workers)
		}
		p.Close()
	}
}

func TestCloseWaitsForInFlight(t *testing.T) {
	p := NewSharedPool(2)
	q := p.NewQueue()
	var n atomic.Int64
	for i := 0; i < 64; i++ {
		q.Submit(func() { n.Add(1) })
	}
	p.Close()
	if n.Load() != 64 {
		t.Fatalf("Close returned before all jobs ran: %d/64", n.Load())
	}
}

// A full channel must push the job back on the submitter (inline
// execution), not block or drop it.
func TestSharedQueueInlineWhenFull(t *testing.T) {
	p := NewSharedPool(1) // channel capacity 4
	defer p.Close()
	q := p.NewQueue()
	defer q.Close()

	gate := make(chan struct{})
	started := make(chan struct{})
	q.Submit(func() { close(started); <-gate }) // occupies the only worker
	<-started
	for i := 0; i < q.Cap(); i++ { // fill the channel
		q.Submit(func() { <-gate })
	}
	if s := p.Stats(); s.Inline != 0 || s.Submitted != int64(1+q.Cap()) {
		t.Fatalf("before overflow: %+v", s)
	}
	ran := false
	q.Submit(func() { ran = true }) // full: must run inline, synchronously
	if !ran {
		t.Fatal("submit to a full channel did not run the job inline")
	}
	if s := p.Stats(); s.Inline != 1 {
		t.Fatalf("inline counter not bumped: %+v", s)
	}
	close(gate)
}

// Futures submitted before Queue.Close still resolve: Close does not
// run or cancel them, the pool's workers get to them in their own time.
func TestQueueCloseLeavesFuturesResolvable(t *testing.T) {
	p := NewSharedPool(1)
	defer p.Close()
	q := p.NewQueue()
	gate := make(chan struct{})
	started := make(chan struct{})
	q.Submit(func() { close(started); <-gate })
	<-started
	var n atomic.Int64
	futs := []*Future[int]{
		Go(q, func() int { return int(n.Add(1)) }),
		Go(q, func() int { return int(n.Add(1)) }),
	}
	q.Close() // the only worker is still blocked
	if n.Load() != 0 {
		t.Fatalf("Close ran %d queued jobs itself", n.Load())
	}
	close(gate)
	for _, f := range futs {
		f.Wait()
	}
	if n.Load() != 2 {
		t.Fatalf("%d of 2 futures ran after Close", n.Load())
	}
}

// Hammer the one channel from many goroutines, each through its own
// handle; run under -race this is the pool's memory-safety gate.
func TestSharedPoolConcurrentSubmitters(t *testing.T) {
	p := NewSharedPool(4)
	defer p.Close()
	const submitters = 8
	const perSubmitter = 500
	var n atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		q := p.NewQueue()
		go func() {
			defer wg.Done()
			defer q.Close()
			futs := make([]*Future[int], perSubmitter)
			for i := 0; i < perSubmitter; i++ {
				futs[i] = Go(q, func() int { return int(n.Add(1)) })
			}
			for _, f := range futs {
				f.Wait()
			}
		}()
	}
	wg.Wait()
	if n.Load() != submitters*perSubmitter {
		t.Fatalf("ran %d jobs, want %d", n.Load(), submitters*perSubmitter)
	}
	s := p.Stats()
	if s.Submitted+s.Inline != submitters*perSubmitter {
		t.Fatalf("stats lost jobs: %+v", s)
	}
	if s.Stolen != 0 {
		t.Fatalf("a one-channel pool reported %d stolen jobs", s.Stolen)
	}
}

// A submitted job costs the future, its channel and the closure that
// fills it — the same three allocations as before the pool became one
// channel. A fourth would be per-operation overhead on every codec job.
func TestGoAllocsPerJob(t *testing.T) {
	p := NewSharedPool(2)
	defer p.Close()
	q := p.NewQueue()
	got := testing.AllocsPerRun(2000, func() { Go(q, func() int { return 1 }).Wait() })
	if got != 3 {
		t.Fatalf("Go+Wait allocates %v times per job, want 3", got)
	}
}

func TestSharedSingletonWorkers(t *testing.T) {
	if Shared() != Shared() {
		t.Fatal("Shared() is not a singleton")
	}
	if w := Shared().Stats().Workers; w < 1 {
		t.Fatalf("shared pool has %d workers", w)
	}
}
