package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"edc"
	"edc/internal/compress"
	"edc/internal/parallel"
	"edc/internal/sim"
)

// perLayer names every per-layer metric with its unit. BENCHMARK.json
// lists the same names; a test keeps the two in step.
var perLayer = map[string]string{
	"datagen.gen_ns_per_kib":            "ns",
	"core.sd.ns_per_write":              "ns",
	"core.sd.merge_share":               "ratio",
	"core.estimate.ns_per_run":          "ns",
	"core.estimate.write_through_share": "ratio",
	"core.policy.ns_per_select":         "ns",
	"core.policy.share_gz":              "ratio",
	"core.policy.share_lzf":             "ratio",
	"core.policy.share_none":            "ratio",
	"compress.gz.enc_mb_s":              "MB/s",
	"compress.lzf.enc_mb_s":             "MB/s",
	"compress.enc_busy_s":               "s",
	"compress.ratio":                    "ratio",
	"compress.oversize_share":           "ratio",
	"compress.replay_match_share":       "ratio",
	"compress.gz.dec_mb_s":              "MB/s",
	"compress.lzf.dec_mb_s":             "MB/s",
	"compress.dec_busy_s":               "s",
	"core.alloc.ns_per_alloc":           "ns",
	"core.alloc.waste_share":            "ratio",
	"core.mapping.ns_per_insert":        "ns",
	"core.mapping.ns_per_lookup":        "ns",
	"core.journal.ns_per_record":        "ns",
	"core.journal.bytes_per_write":      "B",
	"cache.ns_per_lookup":               "ns",
	"cache.hit_share":                   "ratio",
	"sim.ns_per_event":                  "ns",
	"sim.cpu_util":                      "ratio",
	"sim.dev_util":                      "ratio",
	"ssd.ns_per_io":                     "ns",
	"ssd.write_amp":                     "ratio",
	"ssd.flash_b_per_user_b":            "ratio",
	"rais.ns_per_map":                   "ns",
	"parallel.handoff_ns":               "ns",
	"parallel.stolen_share":             "ratio",
	"parallel.inline_share":             "ratio",
	"serve.submit_ns_per_op":            "ns",
	"serve.stall_share":                 "ratio",
	"serve.drain_s":                     "s",
	"serve.sync_rtt_p50_us":             "us",
	"serve.sync_rtt_p99_us":             "us",
	"dedup.hash_ns_per_kib":             "ns",
	"dedup.hit_share":                   "ratio",
	"dedup.saved_share":                 "ratio",
	"maint.relocations":                 "count",
	"maint.recompress_busy_s":           "s",
	"maint.reclaimed_share":             "ratio",
	"maint.aborted_share":               "ratio",
	"trace.parse_ns_per_req":            "ns",
	"workload.gen_ns_per_req":           "ns",
	"obs.tracer_overhead_share":         "ratio",
	"layers.accounted_share":            "ratio",
	"core.glue_us_per_op":               "us",
}

// syncCalls is how many one-in-flight Read/Write calls the unpaced twin
// of a serve workload answers for the serve.sync_rtt_* percentiles
// (fewer only when the traced pass itself is smaller).
const syncCalls = 50000

// runTraced is the --trace 1 run: an untraced pass and a traced pass of
// the same inputs (their difference is the tracing overhead, and the
// tracer must not move the model's outputs), then the layer replay and
// the few micro-measurements no event stream can feed.
func runTraced(w *spec, seed int64, ops int) (result, error) {
	once := *w
	once.setups = 1
	plain, err := once.run(seed, ops, nil, false)
	if err != nil {
		return result{}, err
	}
	rec := newRecorder()
	traced, err := once.run(seed, ops, rec, true)
	if err != nil {
		return result{}, err
	}
	res := result{Attempted: ops, Metrics: map[string]metric{}}
	failed, why := plain.failed+traced.failed, plain.why
	if why == "" {
		why = traced.why
	}
	fail := func(format string, args ...any) {
		failed++
		if why == "" {
			why = fmt.Sprintf(format, args...)
		}
	}
	if plain.res == nil || traced.res == nil {
		res.Failed = failed
		fmt.Printf("FAILED: %s\n", why)
		return res, nil
	}
	pv, tv := endToEndValues(plain), endToEndValues(traced)
	for _, m := range endToEnd {
		if m.exact && pv[m.name] != tv[m.name] {
			fail("tracer perturbed %s: %v untraced, %v traced", m.name, pv[m.name], tv[m.name])
		}
	}

	sw, c, err := replayLayers(w, rec.events, traced.timedFrom)
	if err != nil {
		return result{}, err
	}
	rec.events = nil
	if c.badTrips > 0 {
		fail("%d of %d replayed payloads did not decode back to their content", c.badTrips, c.roundTrips)
	}
	if c.slotEvents > 0 && float64(c.slotMatches) < 0.99*float64(c.slotEvents) {
		fail("replay reproduced only %d of %d codec outputs: it is not doing the run's work", c.slotMatches, c.slotEvents)
	}

	vals, ran := layerValues(w, plain, traced, sw, c)
	if w.serve() {
		p50, p99, err := syncRTT(w, seed, min(syncCalls, ops))
		if err != nil {
			fail("synchronous twin: %v", err)
		} else {
			set(vals, ran, "serve.sync_rtt_p50_us", p50)
			set(vals, ran, "serve.sync_rtt_p99_us", p99)
		}
	}

	fmt.Printf("untraced: %d ops in %.3f s wall, %.3f s cpu; traced: %.3f s wall; %d events replayed\n",
		ops, plain.timed.wall.Seconds(), plain.timed.cpu.Seconds(), traced.timed.wall.Seconds(), c.events)
	fmt.Printf("replica end state: %d live blocks, %d slot bytes (run: %d, %d); %d events matched nothing; estimator mismatches %d, policy mismatches %d\n",
		c.liveBlocks, c.liveSlotByte, traced.res.LiveBlocks, traced.res.LiveSlotBytes, c.unmatched, c.estMismatch, c.polMismatch)
	printLayers(vals, ran)
	for name, unit := range perLayer {
		res.Metrics[name] = metric{Value: vals[name], Unit: unit}
	}
	res.Failed, res.Correct = failed, failed == 0
	if failed > 0 {
		fmt.Printf("FAILED: %d checks: %s\n", failed, why)
	}
	return res, nil
}

func set(vals map[string]float64, ran map[string]bool, name string, v float64) {
	vals[name], ran[name] = v, true
}

// layerValues turns the replay's busy times and the run's public
// counters into the per-layer metrics. ran marks the metrics whose
// layer executed on this workload.
func layerValues(w *spec, plain, traced *pass, sw *stopwatch, c *replayCounts) (map[string]float64, map[string]bool) {
	vals, ran := map[string]float64{}, map[string]bool{}
	put := func(name string, v float64) { set(vals, ran, name, v) }
	res := traced.res
	ops := float64(traced.ops)
	over := lapOverhead()
	net := func(ls ...layer) time.Duration {
		var d time.Duration
		for _, l := range ls {
			d += sw.net(l, over)
		}
		return d
	}
	per := func(d time.Duration, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / float64(n)
	}
	share := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	mbs := func(l layer) float64 {
		if d := sw.net(l, over); d > 0 {
			return float64(sw.bytes[l]) / 1e6 / d.Seconds()
		}
		return 0
	}

	// busy sums every layer's seconds for the reconciliation at the end.
	var busy time.Duration

	busy += net(lDatagen)
	put("datagen.gen_ns_per_kib", per(net(lDatagen), sw.bytes[lDatagen]/1024))

	busy += net(lSDWrite, lSDOther)
	put("core.sd.ns_per_write", per(net(lSDWrite), sw.calls[lSDWrite]))
	put("core.sd.merge_share", share(res.SDMerged, res.Writes))

	busy += net(lEstimate, lPolicy)
	put("core.estimate.ns_per_run", per(net(lEstimate), sw.calls[lEstimate]))
	put("core.estimate.write_through_share", share(res.WriteThrough, res.SDRuns))
	put("core.policy.ns_per_select", per(net(lPolicy), sw.calls[lPolicy]))
	var runs int64
	for _, n := range res.RunsByTag {
		runs += n
	}
	put("core.policy.share_gz", share(res.RunsByTag[compress.TagGZ], runs))
	put("core.policy.share_lzf", share(res.RunsByTag[compress.TagLZF], runs))
	put("core.policy.share_none", share(res.RunsByTag[compress.TagNone], runs))

	enc := net(lEncGZ, lEncLZF)
	busy += enc
	put("compress.enc_busy_s", enc.Seconds())
	if c.slotEvents > 0 {
		if sw.calls[lEncGZ] > 0 {
			put("compress.gz.enc_mb_s", mbs(lEncGZ))
		}
		if sw.calls[lEncLZF] > 0 {
			put("compress.lzf.enc_mb_s", mbs(lEncLZF))
		}
		put("compress.ratio", share(sw.bytes[lEncGZ]+sw.bytes[lEncLZF], c.encOut))
		put("compress.oversize_share", share(res.Oversize, res.Oversize+runs-res.RunsByTag[compress.TagNone]))
		put("compress.replay_match_share", share(c.slotMatches, c.slotEvents))
	}

	dec := net(lDecGZ, lDecLZF)
	busy += dec
	put("compress.dec_busy_s", dec.Seconds())
	if sw.bytes[lDecGZ] > 0 {
		put("compress.gz.dec_mb_s", mbs(lDecGZ))
	}
	if sw.bytes[lDecLZF] > 0 {
		put("compress.lzf.dec_mb_s", mbs(lDecLZF))
	}

	busy += net(lAlloc, lMapInsert, lMapLookup)
	put("core.alloc.ns_per_alloc", per(net(lAlloc), sw.calls[lAlloc]))
	put("core.alloc.waste_share", 1-share(res.CompBytes, res.StoredBytes))
	put("core.mapping.ns_per_insert", per(net(lMapInsert), sw.calls[lMapInsert]))
	if sw.calls[lMapLookup] > 0 { // no read reached the mapping when every one hit the cache
		put("core.mapping.ns_per_lookup", per(net(lMapLookup), sw.calls[lMapLookup]))
	}
	// core.journal.*: the journal runs only under checkpointing or a
	// power-cut plan, which no workload configures; left n/a.

	if w.cache > 0 {
		busy += net(lCache)
		put("cache.ns_per_lookup", per(net(lCache), sw.calls[lCache]))
		put("cache.hit_share", share(res.Cache.Hits, res.Cache.Hits+res.Cache.Misses))
	}

	simNs := simNsPerEvent(c.simEvents)
	busy += time.Duration(simNs * float64(c.simEvents))
	put("sim.ns_per_event", simNs)
	put("sim.cpu_util", float64(res.CPU.BusyTime)/float64(res.Duration)/float64(max(w.shards, 1)))
	var devBusy time.Duration
	for _, q := range res.Queues {
		devBusy = max(devBusy, q.BusyTime)
	}
	put("sim.dev_util", float64(devBusy)/float64(res.Duration))

	busy += net(lSSD, lRAIS)
	put("ssd.ns_per_io", per(net(lSSD), c.deviceIOs))
	var host, flash int64
	for _, d := range res.Devices {
		host += d.HostPagesWritten
		flash += d.FlashPagesWritten
	}
	put("ssd.write_amp", share(flash, host))
	put("ssd.flash_b_per_user_b", share(flash*pageSize, res.OrigBytes))
	if w.raisDevices > 0 {
		put("rais.ns_per_map", per(net(lRAIS), sw.calls[lRAIS]))
	}

	hand := poolHandoff()
	busy += time.Duration(hand * float64(c.poolFutures))
	put("parallel.handoff_ns", hand)
	put("parallel.stolen_share", share(plain.pool.Stolen, plain.pool.Submitted))
	put("parallel.inline_share", share(plain.pool.Inline, plain.pool.Submitted+plain.pool.Inline))

	if w.serve() {
		// Wall time, not CPU: the submitter runs ahead of the event loop
		// and spends most of SubmitAt blocked on the full mailbox, so this
		// is kept out of the busy sum.
		put("serve.submit_ns_per_op", per(traced.submit, int64(traced.ops)))
		put("serve.stall_share", share(plain.res.SubmitStalls, plain.res.Requests))
		put("serve.drain_s", plain.drain.Seconds())
	}

	if w.background {
		busy += net(lDedupHash)
		put("dedup.hash_ns_per_kib", per(net(lDedupHash), sw.bytes[lDedupHash]/1024))
		put("dedup.hit_share", share(res.DedupHits, res.DedupHits+res.DedupMisses))
		put("dedup.saved_share", share(res.DedupBytesSaved, res.DedupBytesSaved+res.StoredBytes))
		put("maint.relocations", float64(res.MaintRelocations))
		put("maint.recompress_busy_s", c.maintBusy.Seconds())
		put("maint.reclaimed_share", share(res.MaintReclaimed, res.StoredBytes))
		put("maint.aborted_share", share(res.MaintAborted, res.MaintAborted+res.MaintRelocations))
	}

	if !w.serve() {
		put("trace.parse_ns_per_req", plain.parseSec*1e9/ops)
	}
	put("workload.gen_ns_per_req", plain.genSec*1e9/float64(plain.ops+plain.preloaded))

	put("obs.tracer_overhead_share", (traced.timed.wall-plain.timed.wall).Seconds()/plain.timed.wall.Seconds())
	cpu := plain.timed.cpu
	put("layers.accounted_share", busy.Seconds()/cpu.Seconds())
	put("core.glue_us_per_op", float64((cpu-busy).Microseconds())/ops)
	return vals, ran
}

// simNsPerEvent prices one event-heap event: a fresh engine runs a
// stream of arrivals, each scheduling its successor and submitting one
// job to a station, the pattern both drivers use. n bounds the length.
func simNsPerEvent(n int64) float64 {
	arrivals := int(min(max(n/2, 10000), 500000))
	eng := sim.NewEngine()
	st := sim.NewStation(eng, "dev")
	done := func(_, _ time.Duration) {}
	i := 0
	var step func()
	step = func() {
		i++
		if i < arrivals {
			eng.SchedulePriority(eng.Now()+50*time.Microsecond, step)
		}
		st.Submit(sim.Job{Service: 40 * time.Microsecond, Done: done})
	}
	eng.SchedulePriority(0, step)
	t0 := time.Now()
	eng.Run()
	return float64(time.Since(t0).Nanoseconds()) / float64(eng.Executed())
}

// poolHandoff prices one codec hand-off: Queue.Submit of an empty job
// through to the future's join, on the process-wide pool.
func poolHandoff() float64 {
	q := parallel.Shared().NewQueue()
	defer q.Close()
	const n = 20000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		parallel.Go(q, func() int { return i }).Wait()
	}
	return float64(time.Since(t0).Nanoseconds()) / n
}

// syncRTT measures the wall-clock round trip of the synchronous
// Read/Write wrappers, one call in flight, on an unpaced twin of the
// serve workload (paced serve refuses them): the path a thin client
// would take.
func syncRTT(w *spec, seed int64, n int) (p50, p99 float64, err error) {
	sys, err := edc.NewSystem(w.volume, w.options(false)...)
	if err != nil {
		return 0, 0, err
	}
	if err := sys.Serve(); err != nil {
		return 0, 0, err
	}
	stopped := false
	defer func() {
		if !stopped {
			_, _ = sys.StopServe() // already failing; the first error is reported
		}
	}()
	ctx := context.Background()
	bs := w.step.BS
	rng := rand.New(rand.NewSource(seed))
	for _, blk := range rng.Perm(int(w.volume / bs)) {
		if _, err := sys.Write(ctx, int64(blk)*bs, bs); err != nil {
			return 0, 0, err
		}
	}
	calls, err := timedOps(w.step, w.volume, seed, n, 0)
	if err != nil {
		return 0, 0, err
	}
	rtt := make([]float64, calls.len())
	for i := range rtt {
		_, off, write := calls.at(i)
		t0 := time.Now()
		if write {
			_, err = sys.Write(ctx, off, bs)
		} else {
			_, err = sys.Read(ctx, off, bs)
		}
		rtt[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
		if err != nil {
			return 0, 0, err
		}
	}
	stopped = true
	if _, err := sys.StopServe(); err != nil {
		return 0, 0, err
	}
	sort.Float64s(rtt)
	return rtt[len(rtt)/2], rtt[len(rtt)*99/100], nil
}
