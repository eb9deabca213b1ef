package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"edc/internal/compress"
	"edc/internal/datagen"
	"edc/internal/fault"
	"edc/internal/parallel"
	"edc/internal/sim"
	"edc/internal/ssd"
	"edc/internal/trace"
	"edc/internal/workload"
)

func TestPredict(t *testing.T) {
	const k = BlockSize
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	wr := func(at time.Duration, off, size int64) trace.Request {
		return trace.Request{Arrival: at, Offset: off, Size: size, Write: true}
	}
	rd := func(at time.Duration, off int64) trace.Request {
		return trace.Request{Arrival: at, Offset: off, Size: k}
	}
	long := make([]trace.Request, lookaheadWalk+10)
	for i := range long {
		long[i] = wr(us(i), int64(i)*k, k)
	}
	// spaced is ten one-block writes with a gap between each: ten runs.
	var spaced []trace.Request
	var spacedRuns []runKey
	for i := 0; i < 10; i++ {
		spaced = append(spaced, wr(us(i), int64(2*i)*k, k))
		spacedRuns = append(spacedRuns, runKey{int64(2*i) * k, k, uint32(7 + i)})
	}
	cases := []struct {
		name    string
		depth   int // ring length; 0 is 8
		maxRun  int64
		pending []PendingWrite // fed to the detector first
		tail    []trace.Request
		ver     uint32
		want    []runKey
	}{
		{name: "empty"},
		{
			name: "contiguous writes merge", maxRun: 16 * k,
			tail: []trace.Request{wr(0, 0, k), wr(us(10), k, 2*k), wr(us(20), 3*k, k)},
			want: []runKey{{0, 4 * k, 0}},
		},
		{
			name: "the cap ends a run", maxRun: 4 * k,
			tail: []trace.Request{wr(0, 0, 2*k), wr(us(1), 2*k, 2*k), wr(us(2), 4*k, k)},
			want: []runKey{{0, 4 * k, 0}, {4 * k, k, 1}},
		},
		{
			name: "a read ends a run", maxRun: 16 * k,
			tail: []trace.Request{wr(0, 0, k), rd(us(1), 9*k), rd(us(2), 9*k), wr(us(3), k, k)},
			want: []runKey{{0, k, 0}, {k, k, 1}},
		},
		{
			name: "a non-contiguous write ends a run", maxRun: 16 * k,
			tail: []trace.Request{wr(0, 0, k), wr(us(1), 5*k, k), wr(us(2), 4*k, k)},
			want: []runKey{{0, k, 0}, {5 * k, k, 1}, {4 * k, k, 2}},
		},
		{
			name: "an arrival after the flush timer ends a run", maxRun: 16 * k,
			tail: []trace.Request{wr(0, 0, k), wr(DefaultFlushTimeout+1, k, k)},
			want: []runKey{{0, k, 0}, {k, k, 1}},
		},
		{
			name: "an arrival as the flush timer fires still merges", maxRun: 16 * k,
			tail: []trace.Request{wr(0, 0, k), wr(DefaultFlushTimeout, k, k)},
			want: []runKey{{0, 2 * k, 0}},
		},
		{
			name: "the pending run is extended, then flushed by the gap", maxRun: 16 * k,
			pending: []PendingWrite{{Arrival: us(5), Offset: 8 * k, Size: k}},
			tail:    []trace.Request{wr(us(6), 9*k, k), wr(us(7)+DefaultFlushTimeout+1, 10*k, k)},
			want:    []runKey{{8 * k, 2 * k, 0}, {10 * k, k, 1}},
		},
		{
			name: "the end of the trace flushes the pending run", maxRun: 16 * k,
			pending: []PendingWrite{{Offset: 8 * k, Size: k}, {Offset: 9 * k, Size: k}},
			want:    []runKey{{8 * k, 2 * k, 0}},
		},
		{
			name: "versions count up, depth caps the prediction", depth: 4, maxRun: 16 * k, ver: 7,
			tail: spaced, want: spacedRuns[:4],
		},
		{
			name: "a ring of 8 caps the prediction", depth: 8, maxRun: 16 * k, ver: 7,
			tail: spaced, want: spacedRuns[:8],
		},
		{
			name: "requests are aligned as admission aligns them", maxRun: 16 * k,
			tail: []trace.Request{wr(0, 100, 10), wr(1, k+5, k)},
			want: []runKey{{0, 3 * k, 0}},
		},
		{
			name: "a run the walk cannot finish is not predicted", maxRun: 1 << 30,
			tail: long,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sd := NewSeqDetector(c.maxRun)
			for _, w := range c.pending {
				sd.OnWrite(w)
			}
			depth := c.depth
			if depth == 0 {
				depth = 8
			}
			la := newLookahead(depth, 1<<30)
			got := la.predict(sd, DefaultFlushTimeout, c.tail, c.ver)
			if len(got) == 0 && len(c.want) == 0 {
				return
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Fatalf("predict = %v, want %v", got, c.want)
			}
		})
	}
}

// fin1Trace is n requests of the write-heavy bursty OLTP profile over a
// 256 MiB volume.
func fin1Trace(tb testing.TB, n int) *trace.Trace {
	tb.Helper()
	tr, err := workload.Fin1(256<<20).GenerateN(n, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

// playFin1 replays tr on a fresh single-SSD device at the given worker
// count.
func playFin1(tb testing.TB, tr *trace.Trace, workers int, opts Options) (*Device, *RunStats) {
	tb.Helper()
	dev, st, err := tryFin1(tb, tr, workers, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return dev, st
}

// tryFin1 is playFin1 for a replay that may fail.
func tryFin1(tb testing.TB, tr *trace.Trace, workers int, opts Options) (*Device, *RunStats, error) {
	tb.Helper()
	return tryOnPool(tb, tr, workers, nil, opts)
}

// tryOnPool is tryFin1 with the device's queue on pool (nil: the
// process-wide one).
func tryOnPool(tb testing.TB, tr *trace.Trace, workers int, pool *parallel.SharedPool, opts Options) (*Device, *RunStats, error) {
	tb.Helper()
	eng := sim.NewEngine()
	cfg := ssd.DefaultConfig()
	cfg.Blocks = 2048
	d, err := ssd.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	opts.ReplayWorkers = workers
	opts.Data = datagen.New(datagen.Enterprise(), 1)
	dev, err := NewDevice(eng, NewSSDBackend(eng, d), 256<<20, opts)
	if err != nil {
		tb.Fatal(err)
	}
	dev.sharedPool = pool
	st, err := dev.Play(tr)
	return dev, st, err
}

// With every arrival admitted as it comes, the lookahead's head is
// always the detector's next run: no ring is cancelled for a key, and
// the results are those of the sequential replay. The ring is as long
// as the pool queue's backlog.
func TestLookaheadPredictsEveryRun(t *testing.T) {
	tr := fin1Trace(t, 3000)
	opts := Options{MaxOutstanding: -1}
	_, seq := playFin1(t, tr, 1, opts)
	dev, par := playFin1(t, tr, 2, opts)
	la := dev.wp.la
	if la == nil {
		t.Fatal("the lookahead never ran")
	}
	if la.missed != 0 {
		t.Errorf("%d rings cancelled for a key mismatch", la.missed)
	}
	if la.served == 0 {
		t.Error("no run was served from a slot")
	}
	if la.n != 0 {
		t.Errorf("%d slots left in the ring after close", la.n)
	}
	if want := parallel.Shared().NewQueue().Cap(); len(la.slots) != want {
		t.Errorf("ring of %d slots, want the queue's %d", len(la.slots), want)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("results differ between workers 1 and 2")
	}
}

// elastic is the stock EDC ladder with its ceilings moved.
func elastic(tb testing.TB, gzMax, lzfMax float64) Policy {
	tb.Helper()
	reg := compress.Default()
	gz, err := reg.ByName("gz")
	if err != nil {
		tb.Fatal(err)
	}
	lzf, err := reg.ByName("lzf")
	if err != nil {
		tb.Fatal(err)
	}
	p, err := NewElastic("EDC", []Level{{MaxIOPS: gzMax, Codec: gz}, {MaxIOPS: lzfMax, Codec: lzf}})
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// stormTrace is the root package's TestReplayMispredictStorm trace, built
// to defeat a predictor of write runs: contiguous writes spaced just
// inside and just outside the flush timeout, sequential stretches long
// enough to hit the run cap, reads between writes, and phases whose
// arrival rate swings the calculated IOPS across the gz and lzf
// ceilings, with bursts dense enough to defer admission.
func stormTrace(n int) *trace.Trace {
	const volume = 64 << 20
	rng := rand.New(rand.NewSource(33))
	gaps := [][]time.Duration{
		{0, 0, time.Microsecond, 20 * time.Microsecond},
		{299 * time.Microsecond, 300 * time.Microsecond, 301 * time.Microsecond},
		{time.Millisecond, 2 * time.Millisecond},
		{15 * time.Millisecond, 40 * time.Millisecond},
	}
	tr := &trace.Trace{Name: "storm"}
	var at time.Duration
	var next int64 // end of the last write
	for i := 0; i < n; i++ {
		phase := gaps[(i/120)%len(gaps)]
		at += phase[rng.Intn(len(phase))]
		size := int64(1+rng.Intn(8)) * 4096
		r := trace.Request{Arrival: at, Size: size, Write: rng.Intn(5) > 0}
		switch {
		case !r.Write:
			r.Offset = rng.Int63n(volume/4096-8) * 4096
		case rng.Intn(3) > 0:
			r.Offset = next
		default:
			r.Offset = rng.Int63n(volume/4096-64) * 4096
		}
		if r.Write {
			next = (r.Offset + size) % (volume - 64<<10)
		}
		tr.Requests = append(tr.Requests, r)
	}
	return tr
}

// TestLookaheadRingFollowsPool replays Fin1 and the storm trace with the
// device's queue on private pools of one and four workers: the ring is
// the queue's Cap() long (4 and 16 slots), and the results, errors
// included, are those of the sequential replay.
func TestLookaheadRingFollowsPool(t *testing.T) {
	fin1, storm := fin1Trace(t, 2000), stormTrace(1500)
	cases := []struct {
		name string
		tr   *trace.Trace
		opts Options
	}{
		{"fin1", fin1, Options{}},
		{"storm", storm, Options{VerifyReads: true}},
		{"storm-small-cap", storm, Options{VerifyReads: true, MaxRun: 12 << 10}},
		{"storm-ceilings", storm, Options{VerifyReads: true, Policy: elastic(t, 2000, 4000)}},
		{"storm-fails", storm, Options{VerifyReads: true, Faults: &fault.Plan{Seed: 5, WriteHard: 0.2}}},
	}
	pools := map[int]*parallel.SharedPool{1: parallel.NewSharedPool(1), 4: parallel.NewSharedPool(4)}
	for _, p := range pools {
		defer p.Close()
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, seq, seqErr := tryFin1(t, c.tr, 1, c.opts)
			for workers, pool := range pools {
				dev, par, parErr := tryOnPool(t, c.tr, 2, pool, c.opts)
				if fmt.Sprint(seqErr) != fmt.Sprint(parErr) || !reflect.DeepEqual(seq, par) {
					t.Fatalf("pool of %d differs from workers 1: %v vs %v", workers, parErr, seqErr)
				}
				la := dev.wp.la
				if la == nil || la.served == 0 {
					t.Fatalf("pool of %d: the lookahead served no run", workers)
				}
				if len(la.slots) != 4*workers {
					t.Fatalf("ring of %d slots on a pool of %d workers", len(la.slots), workers)
				}
			}
		})
	}
}

// TestLookaheadBalancesFreelist replays Fin1 under settings that make
// the lookahead guess wrong — admission deferred behind two outstanding
// requests, a flush timer shorter than most gaps, a small run cap, a
// fault plan that fails the run part way, ceilings that Fin1's intensity
// keeps crossing between a run's prediction and its use — and checks
// that the results are the sequential ones, that the ring is empty after
// close, and that every buffer the pipeline made is back on the
// freelist. The ceiling cases must take a codec for a slot predicted as
// none (encoding into a freelist buffer) and none for a slot that holds
// a payload buffer. A run predicted none gets a slot only where its
// content is read beyond the estimate, so codec-after-none verifies its
// reads.
func TestLookaheadBalancesFreelist(t *testing.T) {
	tr := fin1Trace(t, 2000)
	cases := []struct {
		name            string
		opts            Options
		fails           bool
		toCodec, toNone bool // the slot paths the case must take
	}{
		{name: "deferred", opts: Options{MaxOutstanding: 2}},
		{name: "short-timer", opts: Options{FlushTimeout: 20 * time.Microsecond}},
		{name: "small-cap", opts: Options{MaxRun: 12 << 10}},
		{name: "fails", opts: Options{Faults: &fault.Plan{Seed: 5, WriteHard: 0.2}}, fails: true},
		{name: "codec-after-none", opts: Options{Policy: elastic(t, 1000, 6000), VerifyReads: true}, toCodec: true},
		{name: "none-after-codec", opts: Options{Policy: elastic(t, 3000, 6500)}, toNone: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, seq, seqErr := tryFin1(t, tr, 1, c.opts)
			if (seqErr != nil) != c.fails {
				t.Fatalf("sequential replay: %v", seqErr)
			}
			dev, par, parErr := tryFin1(t, tr, 2, c.opts)
			if fmt.Sprint(seqErr) != fmt.Sprint(parErr) || !reflect.DeepEqual(seq, par) {
				t.Fatalf("workers 2 differ from workers 1: %v vs %v", parErr, seqErr)
			}
			if dev.wp.la == nil || dev.wp.la.n != 0 {
				t.Fatalf("ring after close: %+v", dev.wp.la)
			}
			if se := dev.se; len(se.freeBufs) != se.madeBufs {
				t.Fatalf("freelist holds %d of the %d buffers made", len(se.freeBufs), se.madeBufs)
			}
			if la := dev.wp.la; c.toCodec && la.toCodec == 0 || c.toNone && la.toNone == 0 {
				t.Fatalf("slot paths not taken: %d to a codec, %d to none", la.toCodec, la.toNone)
			}
		})
	}
}

// BenchmarkReplayFin1 replays 6 000 Fin1 requests per iteration, with the
// codec work inline (workers-1) and on a two-worker pool with the trace
// lookahead (workers-2). stolen-share is the share of the pool's jobs the
// event loop ran itself; refused/op counts the lookahead's submissions a
// full queue turned away, per replay.
func BenchmarkReplayFin1(b *testing.B) {
	const n = 6000
	tr := fin1Trace(b, n)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			before := parallel.Shared().Stats()
			for i := 0; i < b.N; i++ {
				playFin1(b, tr, workers, Options{})
			}
			after := parallel.Shared().Stats()
			b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "req/s")
			stolen := 0.0
			if sub := after.Submitted - before.Submitted; sub > 0 {
				stolen = float64(after.Stolen-before.Stolen) / float64(sub)
			}
			b.ReportMetric(stolen, "stolen-share")
			b.ReportMetric(float64(after.Refused-before.Refused)/float64(b.N), "refused/op")
		})
	}
}
