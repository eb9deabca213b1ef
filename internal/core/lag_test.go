package core

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"edc/internal/datagen"
	"edc/internal/fault"
	"edc/internal/obs"
	"edc/internal/parallel"
	"edc/internal/sim"
	"edc/internal/ssd"
	"edc/internal/trace"
)

// swingMeter reads far above the stock ladder's lzf ceiling in even
// milliseconds of virtual time and idle in odd ones, so runs switch
// between stored raw and compressed by a rule both runs of a comparison
// follow.
type swingMeter struct{}

func (swingMeter) Record(time.Duration, int64) {}

func (swingMeter) Intensity(now time.Duration) float64 {
	if now/time.Millisecond%2 == 0 {
		return 50000
	}
	return 0
}

// traced attaches a collector with an event stream, which keeps every
// estimate on the event loop.
func traced(opts Options) Options {
	opts.Obs = obs.New(obs.Config{Tracer: obs.TracerFunc(func(*obs.Event) {})})
	return opts
}

// lagTrace is n 4 KiB operations over a 4 MiB working set, one every
// 50 us, three writes to one read, from two tenants.
func lagTrace(n int) *trace.Trace {
	tr := &trace.Trace{Name: "lag"}
	for i := 0; i < n; i++ {
		tenant := "a"
		if i%5 < 2 {
			tenant = "b"
		}
		tr.Requests = append(tr.Requests, trace.Request{
			Arrival: time.Duration(i) * 50 * time.Microsecond,
			Offset:  int64(i*37%1024) * BlockSize, Size: BlockSize,
			Write: i%4 != 3, Tenant: tenant,
		})
	}
	return tr
}

// lagDevice builds a single-SSD device that swings between raw and
// compressed runs, with its codec work on the process-wide pool.
func lagDevice(t *testing.T, opts Options) *Device {
	t.Helper()
	eng := sim.NewEngine()
	cfg := ssd.DefaultConfig()
	cfg.Blocks = 2048
	d, err := ssd.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts.Meter, opts.ReplayWorkers = swingMeter{}, 2
	opts.Data = datagen.New(datagen.Enterprise(), 3)
	dev, err := NewDevice(eng, NewSSDBackend(eng, d), 256<<20, opts)
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

// reportJSON renders st without the parts a traced run adds (Obs) or
// wall-clock scheduling decides (SubmitStalls).
func reportJSON(t *testing.T, st *RunStats) string {
	t.Helper()
	rep := st.Report()
	rep.Obs, rep.SubmitStalls = nil, 0
	out, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// checkLagged requires the untraced run to have taken the lagged path
// (settled batches, nothing parked, at most a ring's depth plus the one
// being filled ever made) and the traced run not to have.
func checkLagged(t *testing.T, untraced, tracedDev *Device) {
	t.Helper()
	re := &untraced.wp.raw
	if !untraced.wp.rawOK || len(re.free) == 0 {
		t.Fatal("no raw run took the lagged path")
	}
	if re.cur != nil || re.lag.n != 0 {
		t.Fatalf("after close: a batch being filled (%v) and %d parked", re.cur != nil, re.lag.n)
	}
	if depth := len(re.lag.futs); len(re.free) > depth+1 {
		t.Fatalf("%d batches made for a ring of %d", len(re.free), depth)
	}
	if tracedDev.wp.rawOK || len(tracedDev.wp.raw.free) != 0 {
		t.Fatal("a traced run lagged its estimates")
	}
}

// sameVerdicts compares the write-through counts of an untraced run,
// whose raw runs lag their estimates, with a traced run of the same
// operations, which estimates every run on the event loop: totals and
// tenant rows, then the whole report.
func sameVerdicts(t *testing.T, untraced, tracedStats *RunStats) {
	t.Helper()
	if untraced.WriteThrough == 0 {
		t.Fatal("no run was written through; the comparison shows nothing")
	}
	if untraced.WriteThrough != tracedStats.WriteThrough {
		t.Fatalf("WriteThrough %d lagged, %d traced", untraced.WriteThrough, tracedStats.WriteThrough)
	}
	for name, ts := range tracedStats.Tenants {
		if u := untraced.Tenants[name]; u == nil || u.WriteThrough != ts.WriteThrough {
			t.Fatalf("tenant %q: lagged row %+v, traced WriteThrough %d", name, u, ts.WriteThrough)
		}
	}
	if u, tr := reportJSON(t, untraced), reportJSON(t, tracedStats); u != tr {
		t.Fatalf("reports differ:\n lagged: %s\n traced: %s", u, tr)
	}
}

// TestLaggedVerdictsPlay replays the same trace with and without a
// tracer: Play and a PlayUntil power cut mid-run must read the same
// write-through counts as the synchronous path.
func TestLaggedVerdictsPlay(t *testing.T) {
	tr := lagTrace(6000)
	t.Run("Play", func(t *testing.T) {
		lag, trc := lagDevice(t, Options{}), lagDevice(t, traced(Options{}))
		ls, err := lag.Play(tr)
		if err != nil {
			t.Fatal(err)
		}
		ts, err := trc.Play(tr)
		if err != nil {
			t.Fatal(err)
		}
		checkLagged(t, lag, trc)
		sameVerdicts(t, ls, ts)
	})
	t.Run("PlayUntil", func(t *testing.T) {
		cut := tr.Duration() / 2
		lag, trc := lagDevice(t, Options{}), lagDevice(t, traced(Options{}))
		ls, _, err := lag.PlayUntil(tr, cut)
		if err != nil {
			t.Fatal(err)
		}
		ts, _, err := trc.PlayUntil(tr, cut)
		if err != nil {
			t.Fatal(err)
		}
		if ls.CrashLost == 0 {
			t.Fatal("the cut lost nothing; it is not mid-run")
		}
		checkLagged(t, lag, trc)
		sameVerdicts(t, ls, ts)
	})
}

// lagServer is a two-shard server whose shards swing between raw and
// compressed runs, with their codec work on the process-wide pool, traced
// when trace is set.
func lagServer(t *testing.T, trace bool, opts Options) *Server {
	t.Helper()
	opts.Meter, opts.ReplayWorkers = swingMeter{}, 2
	var col *obs.Collector
	if trace {
		col = traced(Options{}).Obs
	}
	sv, err := NewServer(ServeSetup{
		ShardSetup: ShardSetup{
			Shards:      2,
			VolumeBytes: 8 << 20,
			Obs:         col,
			Backend: func(eng *sim.Engine) (*Backend, error) {
				cfg := ssd.DefaultConfig()
				cfg.Blocks = 512
				d, err := ssd.New(cfg)
				if err != nil {
					return nil, err
				}
				return NewSSDBackend(eng, d), nil
			},
			Options: func(int) (Options, error) {
				o := opts
				o.Data = datagen.New(datagen.Enterprise(), 3)
				return o, nil
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sv
}

// serveLag mails tr's operations in stamp order, awaits them all and
// stops the server; operation errors are the run's to report.
func serveLag(t *testing.T, sv *Server, tr *trace.Trace) (*RunStats, error) {
	t.Helper()
	ctx := context.Background()
	awaits := make([]Await, 0, len(tr.Requests))
	for _, r := range tr.Requests {
		aw, err := sv.SubmitAtTag(ctx, r.Arrival, r.Offset, r.Size, r.Write, r.Tenant)
		if err != nil {
			t.Fatal(err)
		}
		awaits = append(awaits, aw)
	}
	st, err := sv.Stop()
	for _, aw := range awaits {
		_, _ = aw(ctx) // a failed shard fails its operations
	}
	return st, err
}

// TestLaggedVerdictsServe serves the same stamp-ordered operations with
// and without a tracer: at Stop, and after a shard failed through
// failAll, the lagged write-through counts must equal the synchronous
// path's.
func TestLaggedVerdictsServe(t *testing.T) {
	tr := lagTrace(6000)
	shards := func(sv *Server) *Device { return sv.shards[0].dev }
	t.Run("Stop", func(t *testing.T) {
		lag, trc := lagServer(t, false, Options{}), lagServer(t, true, Options{})
		ls, err := serveLag(t, lag, tr)
		if err != nil {
			t.Fatal(err)
		}
		ts, err := serveLag(t, trc, tr)
		if err != nil {
			t.Fatal(err)
		}
		checkLagged(t, shards(lag), shards(trc))
		sameVerdicts(t, ls, ts)
	})
	t.Run("failAll", func(t *testing.T) {
		// A write hard-fails one time in four: a run fails for good once
		// it and its two re-allocations all fail, part way through.
		faults := &fault.Plan{Seed: 9, WriteHard: 0.25}
		lag, trc := lagServer(t, false, Options{Faults: faults}), lagServer(t, true, Options{Faults: faults})
		ls, lerr := serveLag(t, lag, tr)
		ts, terr := serveLag(t, trc, tr)
		if lerr == nil || terr == nil || lerr.Error() != terr.Error() {
			t.Fatalf("errors: lagged %v, traced %v; want the same shard failure", lerr, terr)
		}
		checkLagged(t, shards(lag), shards(trc))
		sameVerdicts(t, ls, ts)
	})
}

// TestLagRingBound parks more futures than a ring holds: it never holds
// more than its depth, settles oldest first, and drain settles the rest;
// a ring of depth 0 settles at once.
func TestLagRingBound(t *testing.T) {
	pool := parallel.NewSharedPool(2)
	defer pool.Close()
	q := pool.NewQueue()
	for _, depth := range []int{0, 1, 3} {
		var settled []int
		r := newLagRing(depth, func(v int) { settled = append(settled, v) })
		for i := 0; i < 20; i++ {
			r.park(parallel.Go(q, func() int { return i }))
			if r.n > depth || len(settled)+r.n != i+1 {
				t.Fatalf("depth %d, after %d parks: %d parked, %d settled", depth, i+1, r.n, len(settled))
			}
		}
		r.drain()
		for i, v := range settled {
			if v != i {
				t.Fatalf("depth %d: settled %v, want oldest first", depth, settled)
			}
		}
		if len(settled) != 20 || r.n != 0 {
			t.Fatalf("depth %d: %d settled, %d parked after drain", depth, len(settled), r.n)
		}
	}
}
