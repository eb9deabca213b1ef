package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"edc"
	"edc/internal/datagen"
	"edc/internal/parallel"
	"edc/internal/trace"
	"edc/internal/workload"
)

// spec is one benchmark workload: fixed inputs derived from a seed, a
// pinned operation count per second of --seconds, and the product
// configuration it runs under. Replay workloads set profile; serve
// workloads set step.
type spec struct {
	name string
	why  string
	// volume is the logical volume in bytes.
	volume int64
	// rate is the pinned number of timed operations per second of
	// --seconds, sized so the timed region takes about --seconds on the
	// 2-core reference host at the commit that introduced the benchmark.
	// Both sides of a comparison therefore do identical work.
	rate int
	// setups is how many times set-up is repeated; setup_s is the median.
	setups int
	// traceDiv shrinks the traced pass: it runs rate*seconds/traceDiv
	// operations (1 traces at full size).
	traceDiv int

	// profile generates the replay trace (nil for serve workloads).
	profile func(volume int64) workload.Profile
	// step is the open-loop traffic of a serve workload; preloadQPS is
	// the rate its volume is filled at during set-up. The fill is all
	// writes, so it must stay under the simulated device's write
	// capacity (a 4 KiB program plus transfer is 106 us: 9.4k writes/s)
	// or the barrier read arrives before the backlog has drained.
	step       workload.Step
	preloadQPS float64

	// The product configuration, beyond its defaults. The layer replay
	// builds its replica pipeline from the same fields.
	scheme      edc.Scheme // "" is SchemeEDC; only the self-check sets another
	shards      int        // WithShards (0: one pipeline)
	raisDevices int        // RAIS5 over this many SSDs (0: one SSD)
	cache       int64      // WithCache bytes (0: none)
	verify      bool       // WithVerify: reads really decode, regenerate and compare
	background  bool       // WithMaintenance and WithDedup, defaults
	dupRatio    float64    // share of content regions cloned from a pool of 64
}

const mib = 1 << 20

var workloads = []*spec{
	{
		name:   "replay-fin1-write",
		why:    "write-heavy bursty OLTP replay on the default stack: encoders, datagen, estimator, SD and the sim heap do the work",
		volume: 256 * mib, rate: 18000, setups: 9, traceDiv: 1,
		profile: workload.Fin1,
	},
	{
		name:   "replay-usr0-bg",
		why:    "read-mostly large-request replay with the background features on: maintenance recompression, dedup, 2 shards, RAIS5, verify",
		volume: 256 * mib, rate: 3000, setups: 9, traceDiv: 1,
		profile: workload.Usr0,
		shards:  2, raisDevices: 5, cache: 16 * mib, verify: true, background: true, dupRatio: 0.3,
	},
	{
		name:   "serve-read-verify",
		why:    "open-loop 16 KiB reads that miss a 1/16 cache: fetch, decode, regenerate and compare; decoders and the read path dominate",
		volume: 256 * mib, rate: 13000, setups: 3, traceDiv: 1,
		step: workload.Step{
			QPS: 1000, RW: 0.9, AD: workload.ArrivalPoisson, BS: 16 << 10,
			RKD: workload.KeyChoice{Kind: workload.KeyUniform},
			WKD: workload.KeyChoice{Kind: workload.KeyUniform},
		},
		preloadQPS: 1000,
		cache:      16 * mib, verify: true,
	},
	{
		name:   "serve-hot-small",
		why:    "open-loop 4 KiB cache hits and raw writes: no codec runs, what is left is the submit, mailbox, event-loop and await hand-off chain",
		volume: 32 * mib, rate: 230000, setups: 3, traceDiv: 8,
		step: workload.Step{
			QPS: 20000, RW: 0.9, AD: workload.ArrivalPoisson, BS: 4 << 10,
			RKD: workload.KeyChoice{Kind: workload.KeyZipfian, Theta: 0.99},
			WKD: workload.KeyChoice{Kind: workload.KeyUniform},
		},
		// The fill is stored raw like the timed writes: even just after a
		// bin of the monitor's 5-bin fast window rolls over it reads
		// 9000 x 4/5 = 7200, above the 7000 calculated-IOPS lzf ceiling,
		// and 9000 is still below the device's 9.4k writes/s.
		preloadQPS: 9000,
		cache:      64 * mib,
	},
}

// dataProfile is the payload model the workload's writes are filled from.
func (w *spec) dataProfile() datagen.Profile {
	p := datagen.Enterprise()
	if w.dupRatio > 0 {
		p = p.WithDup(w.dupRatio, 64)
	}
	return p
}

// options renders the configuration as product options. paced is false
// only for the synchronous-call twin of a serve workload.
func (w *spec) options(paced bool) []edc.Option {
	scheme := w.scheme
	if scheme == "" {
		scheme = edc.SchemeEDC
	}
	opts := []edc.Option{edc.WithScheme(scheme), edc.WithDataProfile(w.dataProfile(), 1)}
	if w.serve() && paced {
		opts = append(opts, edc.WithPacedServe())
	}
	if w.shards > 1 {
		// One codec goroutine per shard beside its event loop.
		opts = append(opts, edc.WithShards(w.shards), edc.WithReplayWorkers(w.shards))
	}
	if w.raisDevices > 0 {
		opts = append(opts, edc.WithBackend(edc.RAIS5, w.raisDevices))
	}
	if w.cache > 0 {
		opts = append(opts, edc.WithCache(w.cache))
	}
	if w.verify {
		opts = append(opts, edc.WithVerify())
	}
	if w.background {
		opts = append(opts, edc.WithMaintenance(edc.Maintenance{}), edc.WithDedup(edc.Dedup{}))
	}
	return opts
}

func workloadByName(name string) *spec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func (w *spec) serve() bool { return w.profile == nil }

// pass is everything one run of a workload measured.
type pass struct {
	ops int
	// setup holds the wall seconds of each set-up repetition; genSec and
	// parseSec are the last repetition's request-generation and
	// trace-parse shares of it.
	setup    []float64
	genSec   float64
	parseSec float64

	timed sample
	// segWall and segCPU split a serve workload's timed region into
	// serveSegments equal runs of operations, each with its own wall and
	// CPU seconds (empty for replay: Play is one call).
	segWall  []float64
	segCPU   []float64
	liveHeap int64 // bytes reachable at the run's last collection minus before NewSystem
	res      *edc.Results
	// failed counts operations that did not complete correctly; why
	// describes the first failure.
	failed int
	why    string

	pool parallel.PoolStats // shared-pool activity over the timed region

	// Serve only: preload operations in res, time spent inside SubmitAt
	// (measured when timeSubmit is set), and the StopServe drain.
	preloaded int
	submit    time.Duration
	drain     time.Duration
	// timedFrom is the virtual time the timed phase starts at.
	timedFrom time.Duration
}

func (p *pass) fail(format string, args ...any) {
	p.failed++
	if p.why == "" {
		p.why = fmt.Sprintf(format, args...)
	}
}

// run executes one pass of w: set-up (repeated w.setups times), then the
// timed region, then the correctness checks. tracer, when non-nil, is
// attached to the system; timeSubmit brackets every SubmitAt with clock
// reads (traced passes only: it perturbs the hand-off it measures).
func (w *spec) run(seed int64, ops int, tracer edc.Tracer, timeSubmit bool) (*pass, error) {
	dog := startWatchdog(w.name)
	defer dog.Stop()
	opts := w.options(true)
	if tracer != nil {
		opts = append(opts, edc.WithTracer(tracer))
	}
	if w.serve() {
		return w.runServe(seed, ops, opts, timeSubmit)
	}
	return w.runReplay(seed, ops, opts)
}

func (w *spec) runReplay(seed int64, ops int, opts []edc.Option) (*pass, error) {
	p := &pass{ops: ops}
	var (
		tr   *edc.Trace
		sys  *edc.System
		base uint64
	)
	for i := 0; i < w.setups; i++ {
		tr, sys = nil, nil // one live copy at a time
		t0 := time.Now()
		gen, err := w.profile(w.volume).GenerateN(ops, traceSeed)
		if err != nil {
			return nil, err
		}
		rotate(gen, w.volume, seed)
		p.genSec = time.Since(t0).Seconds()
		// Through the text format and back: the parser is the front door
		// real traces come in by.
		var buf bytes.Buffer
		if err := trace.WriteSPC(&buf, gen); err != nil {
			return nil, err
		}
		t1 := time.Now()
		if tr, err = trace.ParseSPC(&buf, gen.Name); err != nil {
			return nil, err
		}
		p.parseSec = time.Since(t1).Seconds()
		prep := time.Since(t0)
		base = liveHeap() // after the harness's own buffers, outside the clock
		t2 := time.Now()
		if sys, err = edc.NewSystem(w.volume, opts...); err != nil {
			return nil, err
		}
		p.setup = append(p.setup, (prep + time.Since(t2)).Seconds())
	}

	pool0 := parallel.Shared().Stats()
	r := beginRegion()
	res, err := sys.Play(tr)
	p.timed = r.end()
	p.pool = poolDelta(pool0, parallel.Shared().Stats())
	p.liveHeap = int64(lastLiveHeap()) - int64(base)
	p.res = res
	if err != nil {
		p.fail("Play: %v", err)
	}
	if res == nil {
		return p, nil
	}
	w.checkResults(p, int64(ops)+straddlers(tr, w.volume, w.shards))
	runtime.KeepAlive(sys)
	runtime.KeepAlive(tr)
	return p, nil
}

// serveSegments is how many equal parts a serve workload's timed region
// is clocked in. ops_per_s and cpu_us_per_op are taken from the median
// part: with three busy goroutines (submitter, event loop, awaiter) on
// two cores the Go scheduler flips between running them overlapped and
// serialized for seconds at a time, which moves whole-region wall time
// by 25 % between runs of the same inputs while the median part holds
// to a few percent. The submitter is at most a mailbox ahead of the
// event loop, so its progress marks the system's.
const serveSegments = 10

// awaiter drains the unbounded FIFO of Awaits in submission order. Paced
// serve releases the tail of a stream only inside StopServe, so a
// bounded window here would deadlock against the submitter.
type awaiter struct {
	ch      chan edc.Await
	nPre    int           // preload writes to see before preDone closes
	preDone chan struct{} // closed once the preload writes have completed
	done    chan struct{} // closed when ch is drained

	completed int
	errs      int
	firstErr  error
}

func startAwaiter(capacity, nPre int) *awaiter {
	a := &awaiter{
		// Sized to the number of sends, so the submitter never blocks on
		// the awaiter.
		ch:      make(chan edc.Await, capacity),
		nPre:    nPre,
		preDone: make(chan struct{}),
		done:    make(chan struct{}),
	}
	go func() {
		defer close(a.done)
		ctx := context.Background()
		for aw := range a.ch {
			if _, err := aw(ctx); err != nil {
				a.errs++
				if a.firstErr == nil {
					a.firstErr = err
				}
			}
			a.completed++
			if a.completed == a.nPre {
				close(a.preDone)
			}
		}
	}()
	return a
}

// submit mails ops[from:to] in stamp order, returning the time spent
// inside SubmitAt when timed is set.
func submit(sys *edc.System, a *awaiter, s *opStream, from, to int, timed bool) (time.Duration, error) {
	ctx := context.Background()
	var inside time.Duration
	for i := from; i < to; i++ {
		at, off, write := s.at(i)
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		aw, err := sys.SubmitAt(ctx, at, off, s.bs, write)
		if timed {
			inside += time.Since(t0)
		}
		if err != nil {
			return inside, fmt.Errorf("SubmitAt op %d: %w", i, err)
		}
		a.ch <- aw
	}
	return inside, nil
}

func (w *spec) runServe(seed int64, ops int, opts []edc.Option, timeSubmit bool) (*pass, error) {
	p := &pass{ops: ops}
	step := w.step
	var (
		sys   *edc.System
		aw    *awaiter
		pre   *opStream
		timed *opStream
		base  uint64
	)
	for i := 0; i < w.setups; i++ {
		if sys != nil {
			// Discard the previous repetition outside the clock.
			if _, err := sys.StopServe(); err != nil {
				return nil, err
			}
			close(aw.ch)
			<-aw.done
			sys, aw = nil, nil
		}
		t0 := time.Now()
		pre = preloadOps(seed, w.volume, step.BS, w.preloadQPS)
		barrier := time.Duration(pre.stamp[pre.len()-1])
		var err error
		if timed, err = timedOps(step, w.volume, seed, ops, barrier); err != nil {
			return nil, err
		}
		p.genSec = time.Since(t0).Seconds()
		aw = startAwaiter(pre.len()+ops, pre.len()-1)
		prep := time.Since(t0)
		base = liveHeap()
		t1 := time.Now()
		if sys, err = edc.NewSystem(w.volume, opts...); err != nil {
			return nil, err
		}
		if err := sys.Serve(); err != nil {
			return nil, err
		}
		if _, err := submit(sys, aw, pre, 0, pre.len(), false); err != nil {
			return nil, err
		}
		<-aw.preDone
		p.setup = append(p.setup, (prep + time.Since(t1)).Seconds())
	}
	p.preloaded = pre.len()
	p.timedFrom = time.Duration(timed.stamp[0])

	// The submitter keeps its own OS thread, as a client of a real server
	// would: the Go scheduler then cannot run it and the event loop it
	// wakes back to back on one thread, see serveSegments.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	pool0 := parallel.Shared().Stats()
	r := beginRegion()
	var inside time.Duration
	segStart, segCPU := r.t0, r.cpu0
	for k := 0; k < serveSegments; k++ {
		in, err := submit(sys, aw, timed, k*ops/serveSegments, (k+1)*ops/serveSegments, timeSubmit)
		inside += in
		if err != nil {
			p.fail("%v", err)
			break
		}
		if k == serveSegments-1 {
			break // the last segment ends with the drain, below
		}
		now, cpu := time.Now(), processCPU()
		p.segWall = append(p.segWall, now.Sub(segStart).Seconds())
		p.segCPU = append(p.segCPU, (cpu - segCPU).Seconds())
		segStart, segCPU = now, cpu
	}
	d0 := time.Now()
	res, serr := sys.StopServe()
	p.drain = time.Since(d0)
	close(aw.ch)
	<-aw.done
	p.timed = r.end()
	p.segWall = append(p.segWall, time.Since(segStart).Seconds())
	p.segCPU = append(p.segCPU, (processCPU() - segCPU).Seconds())
	p.pool = poolDelta(pool0, parallel.Shared().Stats())
	p.submit = inside
	p.liveHeap = int64(lastLiveHeap()) - int64(base)
	p.res = res
	if serr != nil {
		p.fail("StopServe: %v", serr)
	}
	if aw.errs > 0 {
		p.failed += aw.errs
		if p.why == "" {
			p.why = fmt.Sprintf("%d awaits failed, first: %v", aw.errs, aw.firstErr)
		}
	}
	if want := pre.len() + ops; aw.completed != want {
		p.fail("%d completions for %d submissions", aw.completed, want)
	}
	if res == nil {
		return p, nil
	}
	w.checkResults(p, int64(pre.len()+ops))
	// Open loop below the model's knee: the virtual clock must not run
	// far past the last arrival, or the latencies measure a growing
	// backlog rather than the configured rate.
	span := time.Duration(timed.stamp[ops-1]) - p.timedFrom
	if over := res.Duration - time.Duration(timed.stamp[ops-1]); float64(over) > 0.02*float64(span)+float64(50*time.Millisecond) {
		p.fail("virtual drain ran %v past the last arrival (offered span %v): past the knee", over, span)
	}
	runtime.KeepAlive(sys)
	return p, nil
}

// checkResults applies the checks every workload shares: no run error,
// every request completed and counted once, nothing lost.
func (w *spec) checkResults(p *pass, want int64) {
	res := p.res
	if res.Err != nil {
		p.fail("Results.Err: %v", res.Err)
	}
	if res.Requests != want || res.Reads+res.Writes != res.Requests {
		p.fail("requests=%d reads=%d writes=%d, want %d", res.Requests, res.Reads, res.Writes, want)
	}
	if n := res.Resp.Count(); n != want {
		p.fail("%d responses observed for %d requests", n, want)
	}
	if res.UnrecoveredReads != 0 {
		p.fail("%d unrecovered reads", res.UnrecoveredReads)
	}
	if res.LiveBlocks <= 0 || res.LiveSlotBytes <= 0 {
		p.fail("live space accounting: %d slot bytes for %d blocks", res.LiveSlotBytes, res.LiveBlocks)
	}
}

// traceSeed pins the replay traces' arrival process. The MMPP profiles
// alternate multi-second bursts and idles, and a run holds only a few
// dozen cycles, so a fresh generator seed moves the burst share — and
// with it the gz/lzf mix and every metric — by 20-30 %. The benchmark
// seed therefore leaves arrivals, sizes and directions alone and moves
// the addresses: see rotate.
const traceSeed = 1

// rotate shifts every request of tr by a seed-chosen whole number of
// 64 KiB content regions, modulo the volume. The payload generator
// draws each region's content class from its address, so another seed
// puts the same request stream over different data.
func rotate(tr *edc.Trace, volume, seed int64) {
	const region = 64 << 10
	shift := int64(uint64(seed)*0x9e3779b97f4a7c15%uint64(volume/region)) * region
	for i := range tr.Requests {
		r := &tr.Requests[i]
		r.Offset = (r.Offset + shift) % volume
	}
}

// straddlers counts the requests of tr that cross a shard boundary once
// snapped to 4 KiB blocks inside the volume, as the frontend snaps them:
// sharded replay cuts each into two pieces and counts both in
// Results.Requests.
func straddlers(tr *edc.Trace, volume int64, shards int) int64 {
	if shards < 2 {
		return 0
	}
	per := volume / int64(shards) // the volumes here divide into whole blocks
	var n int64
	for _, r := range tr.Requests {
		off := r.Offset &^ 4095
		size := (r.Offset+r.Size+4095)&^4095 - off
		if off+size > volume {
			off = volume - size
		}
		n += (off+size-1)/per - off/per
	}
	return n
}

func poolDelta(a, b parallel.PoolStats) parallel.PoolStats {
	return parallel.PoolStats{
		Workers:   b.Workers,
		Submitted: b.Submitted - a.Submitted,
		Stolen:    b.Stolen - a.Stolen,
		Inline:    b.Inline - a.Inline,
	}
}
