package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"edc/internal/race"
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

// Without a queue, Go and GoInto run the job on the caller and hand back
// a resolved future; GoInto re-arms the settled one it is given, and a
// future resolved that way can go on a pool later.
func TestGoWithoutQueueRunsInline(t *testing.T) {
	n := 0
	job := func() int { n++; return n }
	fut := Go(nil, job)
	if n != 1 || fut.Wait() != 1 {
		t.Fatalf("Go(nil) ran the job %d times, Wait = %d", n, fut.Wait())
	}
	if again := GoInto(nil, fut, job); again != fut || n != 2 || fut.Wait() != 2 {
		t.Fatalf("GoInto(nil) did not re-arm the future in place: ran %d times, Wait = %d", n, fut.Wait())
	}
	p := NewSharedPool(1)
	defer p.Close()
	if got := GoInto(p.NewQueue(), fut, job).Wait(); got != 3 {
		t.Fatalf("pooled re-arm of an inline future: Wait = %d, want 3", got)
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

// The lag rings in internal/core are sized from Cap, so the
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
		Go(q, func() int { return int(n.Add(1)) })
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

	release := blockWorker(q)
	for i := 0; i < q.Cap(); i++ { // fill the channel
		Go(q, func() int { return 0 })
	}
	if s := p.Stats(); s.Inline != 0 || s.Submitted != int64(1+q.Cap()) {
		t.Fatalf("before overflow: %+v", s)
	}
	ran := false
	f := Go(q, func() int { ran = true; return 1 }) // full: must run inline, synchronously
	if !ran {
		t.Fatal("Go on a full channel did not run the job inline")
	}
	if s := p.Stats(); s.Inline != 1 {
		t.Fatalf("inline counter not bumped: %+v", s)
	}
	if f.Wait() != 1 {
		t.Fatal("inline future lost its result")
	}
	release()
}

// Futures submitted before Queue.Close still resolve: Close does not
// run or cancel them; a worker or their waiter runs them later.
func TestQueueCloseLeavesFuturesResolvable(t *testing.T) {
	p := NewSharedPool(1)
	defer p.Close()
	q := p.NewQueue()
	release := blockWorker(q)
	var n atomic.Int64
	futs := []*Future[int]{
		Go(q, func() int { return int(n.Add(1)) }),
		Go(q, func() int { return int(n.Add(1)) }),
	}
	q.Close() // the only worker is still blocked
	if n.Load() != 0 {
		t.Fatalf("Close ran %d queued jobs itself", n.Load())
	}
	release()
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
	if s.Stolen > s.Submitted {
		t.Fatalf("waiters ran more queued jobs than were queued: %+v", s)
	}
}

// A submitted job costs the future and its result channel; the future
// is itself the job the channel carries, so no closure wraps it. A third
// allocation would be per-operation overhead on every codec job.
func TestGoAllocsPerJob(t *testing.T) {
	p := NewSharedPool(2)
	defer p.Close()
	q := p.NewQueue()
	got := testing.AllocsPerRun(2000, func() { Go(q, func() int { return 1 }).Wait() })
	if got != 2 {
		t.Fatalf("Go+Wait allocates %v times per job, want 2", got)
	}
}

// A future re-armed by GoInto costs nothing: the job is a function
// bound once, and the future and its channel are the previous job's.
func TestGoIntoAllocsPerJob(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	p := NewSharedPool(2)
	defer p.Close()
	q := p.NewQueue()
	job := func() int { return 1 }
	fut := Go(q, job)
	fut.Wait()
	got := testing.AllocsPerRun(2000, func() { GoInto(q, fut, job).Wait() })
	if got != 0 {
		t.Fatalf("GoInto+Wait allocates %v times per job, want 0", got)
	}
}

// A future its waiter ran inline stays in the channel, claimed. Re-armed,
// both copies are live: the job must still run exactly once, and Wait
// must return its result, whichever copy a goroutine takes first.
func TestGoIntoRevivesStaleEntry(t *testing.T) {
	p := NewSharedPool(1)
	defer p.Close()
	q := p.NewQueue()
	for round := 0; round < 50; round++ {
		release := blockWorker(q)
		var ran atomic.Int32
		fut := Go(q, func() int { ran.Add(1); return -1 })
		if got := fut.Wait(); got != -1 { // claimed and run here; its entry stays queued
			t.Fatalf("round %d: first job returned %d", round, got)
		}
		fut = GoInto(q, fut, func() int { ran.Add(1); return round })
		if round%2 == 1 {
			release() // the worker may take the stale copy before Wait
			runtime.Gosched()
		}
		if got := fut.Wait(); got != round {
			t.Fatalf("round %d: re-armed job returned %d", round, got)
		}
		if round%2 == 0 {
			release()
		}
		if n := ran.Load(); n != 2 {
			t.Fatalf("round %d: %d runs of two jobs", round, n)
		}
	}
}

// blockWorker occupies the pool's only worker until the returned
// function is called.
func blockWorker(q *Queue) (release func()) {
	gate := make(chan struct{})
	started := make(chan struct{})
	Go(q, func() int { close(started); <-gate; return 0 })
	<-started
	return func() { close(gate) }
}

// A waiter whose job is still queued runs it itself: the only worker is
// blocked, so nothing else could, and the pool counts one stolen job.
func TestWaitRunsUnclaimedJobInline(t *testing.T) {
	p := NewSharedPool(1)
	defer p.Close()
	q := p.NewQueue()
	release := blockWorker(q)
	defer release()
	if got := Go(q, func() int { return 42 }).Wait(); got != 42 {
		t.Fatalf("got %d, want 42", got)
	}
	if s := p.Stats(); s.Stolen != 1 || s.Submitted != 2 || s.Inline != 0 {
		t.Fatalf("stats %+v; want 2 submitted, 1 stolen", s)
	}
}

// A waiter whose job a worker holds runs the jobs queued behind it while
// it waits. Here the worker's job cannot finish until every other queued
// job has run, and nothing but the waiter is left to run them.
func TestWaitHelpsWithQueuedJobs(t *testing.T) {
	p := NewSharedPool(1)
	defer p.Close()
	q := p.NewQueue()
	const others = 3
	var ran atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{})
	own := Go(q, func() int { close(started); <-release; return -1 })
	<-started
	futs := make([]*Future[int], others)
	for i := range futs {
		futs[i] = Go(q, func() int {
			if ran.Add(1) == others {
				close(release)
			}
			return i
		})
	}
	if got := own.Wait(); got != -1 {
		t.Fatalf("own result %d, want -1", got)
	}
	if ran.Load() != others {
		t.Fatalf("%d of %d queued jobs ran before the waiter's own result", ran.Load(), others)
	}
	for i, f := range futs {
		if got := f.Wait(); got != i {
			t.Fatalf("helped future %d = %d", i, got)
		}
	}
	if s := p.Stats(); s.Stolen != others {
		t.Fatalf("stats %+v; want %d stolen", s, others)
	}
}

// Closing a private pool under a waiter must neither hand it a nil job
// nor leave it blocked on the closed channel: it falls back to waiting
// for its result. A Wait after Close returned resolves too.
func TestWaitAfterPoolClose(t *testing.T) {
	p := NewSharedPool(1)
	q := p.NewQueue()
	release := make(chan struct{})
	started := make(chan struct{})
	held := Go(q, func() int { close(started); <-release; return 7 })
	<-started
	closed := make(chan struct{})
	go func() { p.Close(); close(closed) }()
	// The channel is empty, so this receive returns only once Close has
	// closed it.
	if _, ok := <-p.jobs; ok {
		t.Fatal("received a job from an empty pool")
	}
	// The worker finishes while, or before, the waiter finds the channel
	// closed; either way Wait must return the worker's result.
	go func() { close(release) }()
	if got := held.Wait(); got != 7 {
		t.Fatalf("got %d, want 7", got)
	}
	<-closed

	p2 := NewSharedPool(1)
	late := Go(p2.NewQueue(), func() int { return 8 })
	p2.Close()
	if got := late.Wait(); got != 8 {
		t.Fatalf("Wait after Close: got %d, want 8", got)
	}
}

// Eight submitters hand futures to eight waiters over a two-worker pool,
// so the channel runs full, waiters claim and help, and workers skip
// claimed jobs all at once. Under -race this is the help-first gate.
func TestHelpFirstHammer(t *testing.T) {
	p := NewSharedPool(2)
	defer p.Close()
	const submitters, waiters, perSubmitter = 8, 8, 400
	type pending struct {
		f    *Future[int]
		want int
	}
	handoff := make(chan pending, 16)
	var subWG, waitWG sync.WaitGroup
	for s := 0; s < submitters; s++ {
		subWG.Add(1)
		q := p.NewQueue()
		go func() {
			defer subWG.Done()
			for i := 0; i < perSubmitter; i++ {
				x := s*perSubmitter + i
				handoff <- pending{Go(q, func() int { return spin(x) }), spin(x)}
			}
		}()
	}
	var joined atomic.Int64
	for w := 0; w < waiters; w++ {
		waitWG.Add(1)
		go func() {
			defer waitWG.Done()
			for pd := range handoff {
				if got := pd.f.Wait(); got != pd.want {
					t.Errorf("future returned %d, want %d", got, pd.want)
				}
				joined.Add(1)
			}
		}()
	}
	subWG.Wait()
	close(handoff)
	waitWG.Wait()
	if joined.Load() != submitters*perSubmitter {
		t.Fatalf("joined %d futures, want %d", joined.Load(), submitters*perSubmitter)
	}
	if s := p.Stats(); s.Submitted+s.Inline != submitters*perSubmitter || s.Stolen > s.Submitted {
		t.Fatalf("inconsistent stats: %+v", s)
	}
}

// spin is a small pure job: a few hundred dependent integer steps.
func spin(x int) int {
	for i := 0; i < 256; i++ {
		x = x*1103515245 + 12345
	}
	return x
}

// BenchmarkFutureJoin times one join in the two shapes the pipelines
// produce. idle: Go then Wait on an idle pool, a write's encode joined
// at its store event. behind8: eight jobs queued ahead of the waiter's
// own, a write queued behind a full ring of lagged verifications.
func BenchmarkFutureJoin(b *testing.B) {
	p := NewSharedPool(runtime.GOMAXPROCS(0))
	defer p.Close()
	q := p.NewQueue()
	b.Run("idle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Go(q, func() int { return spin(i) }).Wait()
		}
	})
	b.Run("behind8", func(b *testing.B) {
		var ahead [8]*Future[int]
		for i := 0; i < b.N; i++ {
			for k := range ahead {
				ahead[k] = Go(q, func() int { return spin(i + k) })
			}
			Go(q, func() int { return spin(i) }).Wait()
			for _, f := range ahead {
				f.Wait()
			}
		}
	})
}

func TestSharedSingletonWorkers(t *testing.T) {
	if Shared() != Shared() {
		t.Fatal("Shared() is not a singleton")
	}
	if w := Shared().Stats().Workers; w < 1 {
		t.Fatalf("shared pool has %d workers", w)
	}
}

// Cancel claims a job still on the channel: it never runs, its future
// resolves to the zero value, and the pool counts it cancelled. A job
// that already ran cannot be cancelled.
func TestCancel(t *testing.T) {
	p := NewSharedPool(1)
	defer p.Close()
	q := p.NewQueue()
	release := blockWorker(q)
	ran := false
	f := Go(q, func() int { ran = true; return 5 })
	if !f.Cancel() {
		t.Fatal("Cancel of a queued job failed")
	}
	if f.Cancel() {
		t.Fatal("second Cancel succeeded")
	}
	if got := f.Wait(); got != 0 {
		t.Fatalf("cancelled future resolved to %d, want 0", got)
	}
	release()
	done := Go(q, func() int { return 6 })
	if done.Wait() != 6 || done.Cancel() {
		t.Fatal("Cancel after Wait succeeded")
	}
	if ran {
		t.Fatal("the worker ran a cancelled job")
	}
	if s := p.Stats(); s.Cancelled != 1 || s.Submitted != 3 {
		t.Fatalf("stats %+v; want 3 submitted, 1 cancelled", s)
	}
	if Resolved(1).Cancel() {
		t.Fatal("Cancel of a resolved future succeeded")
	}
}

// A channel full of cancelled jobs is not backpressure: Go drops the
// dead heads and queues its job instead of running it inline.
func TestGoDropsCancelledHeads(t *testing.T) {
	p := NewSharedPool(1)
	defer p.Close()
	q := p.NewQueue()
	release := blockWorker(q)
	for i := 0; i < q.Cap(); i++ {
		if !Go(q, func() int { return i }).Cancel() {
			t.Fatal("Cancel of a queued job failed")
		}
	}
	ran := false
	f := Go(q, func() int { ran = true; return 1 })
	if ran {
		t.Fatal("Go ran its job inline behind a channel of cancelled jobs")
	}
	if s := p.Stats(); s.Inline != 0 || s.Stolen != 0 {
		t.Fatalf("stats %+v; want nothing inline or stolen", s)
	}
	release()
	if f.Wait() != 1 || !ran {
		t.Fatal("queued future lost its result")
	}
}

// A live head is run by the submitter that finds the channel full — it
// was next in line — and the submitter's own job then runs inline, even
// with dead jobs queued behind that head.
func TestGoRunsLiveHeadThenInline(t *testing.T) {
	p := NewSharedPool(1)
	defer p.Close()
	q := p.NewQueue()
	release := blockWorker(q)
	defer release()
	live := Go(q, func() int { return 7 })
	for i := 0; i < q.Cap()-1; i++ {
		Go(q, func() int { return i }).Cancel()
	}
	ran := false
	own := Go(q, func() int { ran = true; return 8 })
	if !ran {
		t.Fatal("Go behind a live head did not run its job inline")
	}
	if s := p.Stats(); s.Inline != 1 || s.Stolen != 1 || s.Cancelled != int64(q.Cap()-1) || s.Refused != 0 {
		t.Fatalf("stats %+v; want 1 inline, 1 stolen, %d cancelled, none refused", s, q.Cap()-1)
	}
	if live.Wait() != 7 || own.Wait() != 8 {
		t.Fatal("futures lost their results")
	}
}

// TryGo never runs a job on its caller: on a full channel it returns nil.
func TestTryGoRefusesWhenFull(t *testing.T) {
	p := NewSharedPool(1)
	defer p.Close()
	q := p.NewQueue()
	// Only a refusal counts: an accepted TryGo leaves Refused alone.
	if f := TryGo(q, func() int { return -1 }); f == nil || f.Wait() != -1 {
		t.Fatal("TryGo refused on an empty channel")
	}
	if s := p.Stats(); s.Refused != 0 {
		t.Fatalf("refused %d after an accepted TryGo", s.Refused)
	}
	release := blockWorker(q)
	futs := make([]*Future[int], 0, q.Cap())
	for i := 0; i < q.Cap(); i++ {
		f := TryGo(q, func() int { return i })
		if f == nil {
			t.Fatalf("TryGo %d refused on a channel with room", i)
		}
		futs = append(futs, f)
	}
	if TryGo(q, func() int { t.Error("refused job ran"); return 0 }) != nil {
		t.Fatal("TryGo accepted a job on a full channel")
	}
	if s := p.Stats(); s.Inline != 0 || s.Submitted != int64(2+q.Cap()) || s.Refused != 1 {
		t.Fatalf("stats %+v", s)
	}
	release()
	for i, f := range futs {
		if f.Wait() != i {
			t.Fatalf("future %d lost its result", i)
		}
	}
}
