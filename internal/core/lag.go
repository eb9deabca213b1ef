package core

import (
	"slices"

	"edc/internal/datagen"
	"edc/internal/parallel"
)

// lagRing parks the futures of pool work whose results only the run's
// books read — verify-mode read checks (readPath) and raw runs'
// write-through verdicts (rawEstimates) — so the event loop does not wait
// for them where they were started. It is a fixed ring as deep as the
// pool queue's backlog (with more work outstanding than the queue can
// hold, the submitter would run it inline anyway): parking into a full
// ring first joins and settles the oldest entry, and drain settles the
// rest. Device.close drains every ring before it snapshots the run's
// statistics, so a stats read never sees a result still parked. A ring
// of depth 0 settles each future as it is parked. Event-loop goroutine
// only.
type lagRing[T any] struct {
	futs    []*parallel.Future[T]
	head, n int
	settle  func(T)
}

// newLagRing returns an empty ring of depth entries that hands each
// joined result to settle.
func newLagRing[T any](depth int, settle func(T)) *lagRing[T] {
	return &lagRing[T]{futs: make([]*parallel.Future[T], depth), settle: settle}
}

// park records f, joining the oldest parked future first when the ring
// is full.
func (r *lagRing[T]) park(f *parallel.Future[T]) {
	if len(r.futs) == 0 {
		r.settle(f.Wait())
		return
	}
	if r.n == len(r.futs) {
		r.joinOldest()
	}
	r.futs[(r.head+r.n)%len(r.futs)] = f
	r.n++
}

// joinOldest waits for the oldest parked future and settles its result.
func (r *lagRing[T]) joinOldest() {
	f := r.futs[r.head]
	r.futs[r.head] = nil
	r.head = (r.head + 1) % len(r.futs)
	r.n--
	r.settle(f.Wait())
}

// drain settles every parked future, oldest first. A nil ring holds none.
func (r *lagRing[T]) drain() {
	for r != nil && r.n > 0 {
		r.joinOldest()
	}
}

// rawBatchRuns is how many raw runs one pool job generates and
// estimates: enough to amortise the hand-off, few enough that the
// estimates of a short run still leave the event loop.
const rawBatchRuns = 32

// rawRun is one raw run whose write-through verdict is outstanding: the
// key its content is a function of, and the tenant its row is
// attributed to.
type rawRun struct {
	key    runKey
	tenant string
}

// rawBatch is one pool job's worth of raw runs. The event loop fills runs
// and reads through only after joining the job; the job owns est and buf.
type rawBatch struct {
	runs    []rawRun
	through []bool // through[i]: runs[i] is written through
	certain int    // runs whose verdict their alphabets settled
	data    *datagen.Generator
	est     Estimator // the job's own: an Estimator's hash sets are scratch
	buf     []byte
	job     func() *rawBatch // run, bound once
}

// run estimates every run of the batch. A run whose sampled windows can
// only hold a few byte values is not written through whatever its bytes
// (Estimator.certainlyCompressible), so it is neither generated nor
// estimated. Of any other run it generates only the prefix the estimator
// reads, into a buffer grown to the run's length: the bytes past the
// prefix are stale scratch the estimate never sees.
func (b *rawBatch) run() *rawBatch {
	b.certain = 0
	for i, r := range b.runs {
		n := int(r.key.size)
		if b.est.certainlyCompressible(b.data, r.key.off, n) {
			b.through[i] = false
			b.certain++
			continue
		}
		p := b.est.sampledPrefix(n)
		b.buf = b.data.AppendBlock(b.buf[:0], r.key.off, p, r.key.ver)
		b.buf = slices.Grow(b.buf, n-p)[:n]
		b.through[i] = b.est.EstimateRatio(b.buf) < WriteThroughRatio
	}
	return b
}

// rawEstimates takes the estimator off the event loop for the runs it
// decides nothing for (DESIGN.md §9): a run the policy stores raw at its
// intensity, and whose content nothing else reads, is stored at once,
// and only its write-through verdict — a count in RunStats and in the
// tenant's row — waits. Runs are gathered into batches of rawBatchRuns,
// each batch one pool job, whose futures lag behind the loop in a
// lagRing. The estimate's virtual-time cost is still charged at the run,
// so nothing but the moment the counts are added moves.
type rawEstimates struct {
	stats *RunStats
	se    *storeEngine
	data  *datagen.Generator
	est   *Estimator // the write path's, whose settings every batch copies

	cur  *rawBatch // the batch being filled; nil until the next add
	free []*rawBatch
	lag  *lagRing[*rawBatch] // sized by Device.open to the pool queue

	certain int // settled runs whose alphabets decided their verdict
}

// add queues the verdict of run k, attributed to tenant, and hands the
// batch to the pool once it is full.
func (re *rawEstimates) add(k runKey, tenant string) {
	b := re.cur
	if b == nil {
		if n := len(re.free); n > 0 {
			b = re.free[n-1]
			re.free = re.free[:n-1]
		} else {
			b = &rawBatch{through: make([]bool, rawBatchRuns), data: re.data,
				est: Estimator{SampleSize: re.est.SampleSize, Samples: re.est.Samples}}
			b.job = b.run
		}
		re.cur = b
	}
	b.runs = append(b.runs, rawRun{k, tenant})
	if len(b.runs) == rawBatchRuns {
		re.flush()
	}
}

// flush hands the batch being filled to the pool and parks its future.
func (re *rawEstimates) flush() {
	if b := re.cur; b != nil {
		re.cur = nil
		re.lag.park(parallel.Go(re.se.pool, b.job))
	}
}

// settle adds a joined batch's verdicts to the books and recycles it.
func (re *rawEstimates) settle(b *rawBatch) {
	for i, r := range b.runs {
		if b.through[i] {
			re.stats.WriteThrough++
			if ts := re.stats.Tenant(r.tenant); ts != nil {
				ts.WriteThrough++
			}
		}
	}
	re.certain += b.certain
	b.runs = b.runs[:0]
	re.free = append(re.free, b)
}

// drain settles every outstanding verdict, the partial batch included.
func (re *rawEstimates) drain() {
	if re.lag == nil {
		return
	}
	re.flush()
	re.lag.drain()
}
