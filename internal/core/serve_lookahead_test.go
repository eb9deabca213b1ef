package core

import (
	"context"
	"encoding/json"
	"math/rand"
	"testing"
	"time"

	"edc/internal/compress"
	"edc/internal/datagen"
	"edc/internal/parallel"
	"edc/internal/qos"
	"edc/internal/race"
	"edc/internal/sim"
	"edc/internal/ssd"
)

// tailProbe wraps the stock EDC policy to look at its shard's lookahead
// tail from the event loop, where every Select runs: whether the tail
// was ever spoiled, and by how much its length ever exceeded the
// operations admitted but not arrived.
type tailProbe struct {
	Policy
	ss      *serveShard
	spoiled bool
	over    int
}

func (p *tailProbe) Select(cIOPS float64) compress.Codec {
	if ss := p.ss; ss != nil {
		p.spoiled = p.spoiled || ss.spoiled
		p.over = max(p.over, len(ss.tail)-ss.unarrived)
	}
	return p.Policy.Select(cIOPS)
}

// heldMeter is the stock workload monitor holding the shard's event loop
// inside its first Record until release closes, which lets a test fill
// the mailbox behind it.
type heldMeter struct {
	WorkloadMeter
	held, release chan struct{}
}

func (m *heldMeter) Record(now time.Duration, bytes int64) {
	if m.held != nil {
		close(m.held)
		m.held = nil
		<-m.release
	}
	m.WorkloadMeter.Record(now, bytes)
}

// newLookaheadServer builds a single-shard server with its codec work on
// pool, or inline when pool is nil, the probe as its policy and the held
// meter as its monitor. The mailbox holds every operation a test mails.
func newLookaheadServer(tb testing.TB, vol int64, pool *parallel.SharedPool, opts Options) (*Server, *tailProbe, *heldMeter) {
	tb.Helper()
	edc, err := DefaultElastic(compress.Default())
	if err != nil {
		tb.Fatal(err)
	}
	probe := &tailProbe{Policy: edc}
	meter := &heldMeter{WorkloadMeter: newMonitor(), held: make(chan struct{}), release: make(chan struct{})}
	opts.Policy, opts.Meter, opts.Data = probe, meter, datagen.New(datagen.Enterprise(), 11)
	if pool != nil {
		opts.ReplayWorkers = 2
	}
	sv, err := NewServer(ServeSetup{
		ShardSetup: ShardSetup{
			Shards:      1,
			VolumeBytes: vol,
			Backend: func(eng *sim.Engine) (*Backend, error) {
				cfg := ssd.DefaultConfig()
				cfg.Blocks = 512
				d, err := ssd.New(cfg)
				if err != nil {
					return nil, err
				}
				return NewSSDBackend(eng, d), nil
			},
			Options: func(int) (Options, error) { return opts, nil },
		},
		mailbox: 4096,
		pool:    pool,
	})
	if err != nil {
		tb.Fatal(err)
	}
	probe.ss = sv.shards[0] // before the first mail, so the loop sees it
	return sv, probe, meter
}

// laOp is one operation of a lookahead test sequence.
type laOp struct {
	at        time.Duration
	off, size int64
	write     bool
	tenant    string
}

// readVerifyOps is the read-verify workload's shape in miniature: a
// permuted fill of every 16 KiB chunk of vol at 1 000 writes/s, then n
// operations at 1 000/s, nine reads to one write, on random chunks.
func readVerifyOps(vol int64, n int) []laOp {
	const chunk = 16 << 10
	rng := rand.New(rand.NewSource(7))
	var ops []laOp
	for _, c := range rng.Perm(int(vol / chunk)) {
		ops = append(ops, laOp{off: int64(c) * chunk, size: chunk, write: true})
	}
	for i := 0; i < n; i++ {
		ops = append(ops, laOp{off: rng.Int63n(vol/chunk) * chunk, size: chunk, write: rng.Intn(10) == 0})
	}
	for i := range ops {
		ops[i].at = time.Duration(i+1) * time.Millisecond
	}
	return ops
}

// serveOps submits ops in order and returns the stopped server's Report
// as JSON, without SubmitStalls (wall clock). With prefill the event loop
// is held in the first operation's arrival while the rest is mailed, so
// every later batch it drains is a full one at any pool load; otherwise
// the loop runs while the submitter mails, and results must not depend
// on how the mailbox was batched.
func serveOps(t *testing.T, sv *Server, m *heldMeter, ops []laOp, prefill bool) []byte {
	t.Helper()
	ctx := context.Background()
	held := m.held
	if !prefill {
		close(m.release)
	}
	awaits := make([]Await, len(ops))
	for i, op := range ops {
		aw, err := sv.SubmitAtTag(ctx, op.at, op.off, op.size, op.write, op.tenant)
		if err != nil {
			t.Fatal(err)
		}
		awaits[i] = aw
		if i == 0 && prefill {
			<-held
		}
	}
	if prefill {
		close(m.release)
	}
	st, err := sv.Stop()
	if err != nil {
		t.Fatal(err)
	}
	for i, aw := range awaits {
		if _, err := aw(ctx); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	st.SubmitStalls = 0
	out, err := json.Marshal(st.Report())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestServeLookaheadMatchesSequential serves the same sequences with the
// codec work inline and on private pools of one and four workers, where
// a shard's admitted operations are its write path's lookahead tail. The
// reports must be identical. Stamp-ordered read-verify traffic must be
// served from slots almost always, with no key miss; the tail stays
// within one batch of the operations it lists. Two clients whose stamps
// interleave out of order spoil the tail, and a QoS-shaped tenant keeps
// it off; neither may change a result.
func TestServeLookaheadMatchesSequential(t *testing.T) {
	const vol = 2 << 20
	var unordered []laOp
	for i, op := range readVerifyOps(vol, 0) {
		// Two clients take turns: the second mails each of its stamps
		// right after the first client's, 1 ms earlier.
		op.at = time.Duration(2*(i/2)+2-i%2) * time.Millisecond
		unordered = append(unordered, op)
	}
	shaped := readVerifyOps(vol, 300)
	for i := range shaped {
		shaped[i].tenant = "a"
	}
	cases := []struct {
		name    string
		ops     []laOp
		opts    Options
		prefill bool
	}{
		{name: "read-verify", ops: readVerifyOps(vol, 800), opts: Options{VerifyReads: true}},
		{name: "unordered", ops: unordered, prefill: true},
		{name: "qos-shaped", ops: shaped, prefill: true, opts: Options{QoS: &qos.Config{
			Tenants: map[string]qos.Tenant{"a": {Bandwidth: "8M", BurstBytes: 64 << 10}}}}},
	}
	pools := []*parallel.SharedPool{parallel.NewSharedPool(1), parallel.NewSharedPool(4)}
	for _, p := range pools {
		defer p.Close()
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			seq, _, m := newLookaheadServer(t, vol, nil, c.opts)
			want := serveOps(t, seq, m, c.ops, c.prefill)
			for _, pool := range pools {
				workers := pool.Stats().Workers
				sv, probe, m := newLookaheadServer(t, vol, pool, c.opts)
				if got := serveOps(t, sv, m, c.ops, c.prefill); string(got) != string(want) {
					t.Fatalf("pool of %d: report differs from the inline run\n got %s\nwant %s", workers, got, want)
				}
				ss := sv.shards[0]
				if probe.over >= serveBatch {
					t.Errorf("pool of %d: tail held %d entries past the unarrived", workers, probe.over)
				}
				switch c.name {
				case "read-verify":
					la, runs := ss.dev.wp.la, ss.dev.stats.SDRuns
					if la == nil {
						t.Fatalf("pool of %d: the lookahead never ran", workers)
					}
					if la.missed != 0 || float64(la.served) < 0.9*float64(runs) {
						t.Fatalf("pool of %d: %d of %d runs from a slot, %d key misses", workers, la.served, runs, la.missed)
					}
				case "unordered":
					if !probe.spoiled {
						t.Fatalf("pool of %d: out-of-order stamps never spoiled the tail", workers)
					}
				case "qos-shaped":
					if ss.ahead || ss.dev.wp.la != nil {
						t.Fatalf("pool of %d: a QoS shard kept a lookahead", workers)
					}
				}
			}
		})
	}
}

// TestServeTailBounded serves 10^5 operations (2*10^4 under the race
// detector, which makes each about ten times dearer) from one client
// whose stamps jitter, so the tail is spoiled and restored over and
// over: its length never exceeds the operations admitted but not arrived
// by a batch, and it is empty once the server stops.
func TestServeTailBounded(t *testing.T) {
	const vol = 1 << 20
	n := 100_000
	if race.Enabled {
		n = 20_000
	}
	pool := parallel.NewSharedPool(1)
	defer pool.Close()
	sv, probe, m := newLookaheadServer(t, vol, pool, Options{CacheBytes: vol})
	rng := rand.New(rand.NewSource(3))
	ops := make([]laOp, n)
	for i := range ops {
		ops[i] = laOp{
			at:    time.Duration(i)*time.Millisecond + time.Duration(rng.Intn(1500))*time.Microsecond,
			off:   rng.Int63n(vol/BlockSize) * BlockSize,
			size:  BlockSize,
			write: rng.Intn(20) == 0,
		}
	}
	serveOps(t, sv, m, ops, false)
	ss := sv.shards[0]
	if !probe.spoiled {
		t.Error("jittered stamps never spoiled the tail")
	}
	if probe.over >= serveBatch {
		t.Errorf("tail held %d entries past the unarrived", probe.over)
	}
	if len(ss.tail) != 0 || ss.unarrived != 0 || ss.spoiled {
		t.Errorf("after stop: tail %d, unarrived %d, spoiled %v", len(ss.tail), ss.unarrived, ss.spoiled)
	}
	if la := ss.dev.wp.la; la == nil || la.served == 0 {
		t.Error("the lookahead served no run")
	}
}
