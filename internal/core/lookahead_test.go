package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"edc/internal/datagen"
	"edc/internal/fault"
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
	cases := []struct {
		name    string
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
			name: "versions count up, depth caps the prediction", maxRun: 16 * k, ver: 7,
			tail: []trace.Request{wr(0, 0, k), wr(1, 2*k, k), wr(2, 4*k, k), wr(3, 6*k, k), wr(4, 8*k, k), wr(5, 10*k, k)},
			want: []runKey{{0, k, 7}, {2 * k, k, 8}, {4 * k, k, 9}, {6 * k, k, 10}},
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
			la := &lookahead{volBytes: 1 << 30}
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
	st, err := dev.Play(tr)
	return dev, st, err
}

// With every arrival admitted as it comes, the lookahead's head is
// always the detector's next run: no ring is cancelled for a key, and
// the results are those of the sequential replay.
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
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("results differ between workers 1 and 2")
	}
}

// TestLookaheadBalancesFreelist replays Fin1 under settings that make
// the lookahead guess wrong — admission deferred behind two outstanding
// requests, a flush timer shorter than most gaps, a small run cap, a
// fault plan that fails the run part way — and checks that the results
// are the sequential ones, that the ring is empty after close, and that
// every buffer the pipeline made is back on the freelist.
func TestLookaheadBalancesFreelist(t *testing.T) {
	tr := fin1Trace(t, 2000)
	cases := []struct {
		name  string
		opts  Options
		fails bool
	}{
		{"deferred", Options{MaxOutstanding: 2}, false},
		{"short-timer", Options{FlushTimeout: 20 * time.Microsecond}, false},
		{"small-cap", Options{MaxRun: 12 << 10}, false},
		{"fails", Options{Faults: &fault.Plan{Seed: 5, WriteHard: 0.2}}, true},
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
		})
	}
}

// BenchmarkReplayFin1 replays 6 000 Fin1 requests per iteration, with the
// codec work inline (workers-1) and on a two-worker pool with the trace
// lookahead (workers-2).
func BenchmarkReplayFin1(b *testing.B) {
	const n = 6000
	tr := fin1Trace(b, n)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				playFin1(b, tr, workers, Options{})
			}
			b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "req/s")
		})
	}
}
