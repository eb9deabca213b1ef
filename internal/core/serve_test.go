package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"edc/internal/datagen"
	"edc/internal/fault"
	"edc/internal/parallel"
	"edc/internal/race"
	"edc/internal/sim"
	"edc/internal/ssd"
)

// newTestServer builds an n-shard live server over small private SSDs,
// with per-shard mailboxes of the given depth (0: the default).
func newTestServer(t *testing.T, n int, vol int64, mailbox int) *Server {
	t.Helper()
	sv, err := NewServer(ServeSetup{
		ShardSetup: ShardSetup{
			Shards:      n,
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
			Options: func(int) (Options, error) {
				return Options{
					Data:        datagen.New(datagen.Enterprise(), 11),
					VerifyReads: true,
				}, nil
			},
		},
		mailbox: mailbox,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sv
}

// TestServeBasic drives a single-shard server from one client and checks
// the merged statistics account for every operation.
func TestServeBasic(t *testing.T) {
	sv := newTestServer(t, 1, 1<<20, 0)
	ctx := context.Background()
	const ops = 32
	for i := 0; i < ops; i++ {
		off := int64(i%64) * BlockSize
		if i%2 == 0 {
			if lat, err := sv.Do(ctx, 0, off, BlockSize, true, ""); err != nil || lat <= 0 {
				t.Fatalf("write %d: lat=%v err=%v", i, lat, err)
			}
		} else {
			if lat, err := sv.Do(ctx, 0, off, BlockSize, false, ""); err != nil || lat <= 0 {
				t.Fatalf("read %d: lat=%v err=%v", i, lat, err)
			}
		}
	}
	st, err := sv.Stop()
	if err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if st.Requests != ops || st.Reads != ops/2 || st.Writes != ops/2 {
		t.Fatalf("requests=%d reads=%d writes=%d, want %d/%d/%d",
			st.Requests, st.Reads, st.Writes, ops, ops/2, ops/2)
	}
	if st.OrigBytes != int64(ops/2)*BlockSize {
		t.Fatalf("OrigBytes=%d, want %d", st.OrigBytes, int64(ops/2)*BlockSize)
	}
	if got := st.Resp.Count(); got != ops {
		t.Fatalf("latency observations=%d, want %d", got, ops)
	}
	if st.Trace != "serve" {
		t.Fatalf("Trace=%q, want serve", st.Trace)
	}
}

// TestServeConcurrentClients hammers a sharded server from many client
// goroutines (run under -race) and checks completion accounting.
func TestServeConcurrentClients(t *testing.T) {
	const (
		clients = 8
		perC    = 40
		vol     = int64(4 << 20)
	)
	sv := newTestServer(t, 4, vol, 8)
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			blocks := vol / BlockSize
			for i := 0; i < perC; i++ {
				// In-shard, block-aligned single-block ops keep the
				// request count exact (no boundary splitting).
				off := (int64(c*perC+i) * 7919 % blocks) * BlockSize
				at := time.Duration(i) * 50 * time.Microsecond
				var err error
				if i%3 == 0 {
					_, err = sv.Do(ctx, at, off, BlockSize, false, "")
				} else {
					_, err = sv.Do(ctx, at, off, BlockSize, true, "")
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st, err := sv.Stop()
	if err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if st.Requests != clients*perC {
		t.Fatalf("requests=%d, want %d", st.Requests, clients*perC)
	}
	if st.Resp.Count() != clients*perC {
		t.Fatalf("latency observations=%d, want %d", st.Resp.Count(), clients*perC)
	}
	if st.SubmitStalls != sv.Stalls() {
		t.Fatalf("merged stalls=%d, server reports %d", st.SubmitStalls, sv.Stalls())
	}
}

// TestServeDeterministicCounts runs the same concurrent workload twice
// and checks the interleaving-independent invariants: request counts and
// total written bytes are identical even though goroutine scheduling is
// not.
func TestServeDeterministicCounts(t *testing.T) {
	run := func() *RunStats {
		const clients, perC = 4, 25
		vol := int64(2 << 20)
		sv := newTestServer(t, 2, vol, 4)
		ctx := context.Background()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			c := c
			wg.Add(1)
			go func() {
				defer wg.Done()
				blocks := vol / BlockSize
				for i := 0; i < perC; i++ {
					off := (int64(c*perC+i) * 104729 % blocks) * BlockSize
					if (c+i)%4 == 0 {
						sv.Do(ctx, time.Duration(i)*time.Millisecond, off, BlockSize, false, "")
					} else {
						sv.Do(ctx, time.Duration(i)*time.Millisecond, off, BlockSize, true, "")
					}
				}
			}()
		}
		wg.Wait()
		st, err := sv.Stop()
		if err != nil {
			t.Fatalf("Stop: %v", err)
		}
		return st
	}
	a, b := run(), run()
	if a.Requests != b.Requests || a.Reads != b.Reads || a.Writes != b.Writes {
		t.Fatalf("request counts differ: %d/%d/%d vs %d/%d/%d",
			a.Requests, a.Reads, a.Writes, b.Requests, b.Reads, b.Writes)
	}
	if a.OrigBytes != b.OrigBytes {
		t.Fatalf("OrigBytes differ: %d vs %d", a.OrigBytes, b.OrigBytes)
	}
}

// TestServeShardSpanning submits one operation straddling a shard
// boundary and checks it fans out to both shards and joins into a single
// completion.
func TestServeShardSpanning(t *testing.T) {
	vol := int64(1 << 20)
	sv := newTestServer(t, 2, vol, 0)
	bound := vol / 2 // two equal shards
	ctx := context.Background()
	lat, err := sv.Do(ctx, 0, bound-BlockSize, 2*BlockSize, true, "")
	if err != nil || lat <= 0 {
		t.Fatalf("spanning write: lat=%v err=%v", lat, err)
	}
	if lat2, err := sv.Do(ctx, 0, bound-BlockSize, 2*BlockSize, false, ""); err != nil || lat2 <= 0 {
		t.Fatalf("spanning read: lat=%v err=%v", lat2, err)
	}
	st, err := sv.Stop()
	if err != nil {
		t.Fatalf("Stop: %v", err)
	}
	// Each spanning call becomes one sub-operation per shard.
	if st.Requests != 4 || st.Reads != 2 || st.Writes != 2 {
		t.Fatalf("requests=%d reads=%d writes=%d, want 4/2/2", st.Requests, st.Reads, st.Writes)
	}
}

// TestServeOpenLoopLatency checks the intended-arrival semantics: an
// operation stamped far in the future is admitted at its stamp and
// measures only its own response time, while a stamp in the virtual past
// is clamped to now and accrues the ingress wait.
func TestServeOpenLoopLatency(t *testing.T) {
	sv := newTestServer(t, 1, 1<<20, 0)
	ctx := context.Background()
	// Advance the virtual clock well past zero.
	for i := 0; i < 200; i++ {
		if _, err := sv.Do(ctx, 0, int64(i%32)*BlockSize, BlockSize, true, ""); err != nil {
			t.Fatal(err)
		}
	}
	// Stamp 0 is now deep in the virtual past: the latency includes the
	// whole clamp-to-now wait.
	past, err := sv.Do(ctx, 0, 0, BlockSize, true, "")
	if err != nil {
		t.Fatal(err)
	}
	// A far-future stamp advances the clock instead: latency is response
	// time only.
	future, err := sv.Do(ctx, time.Hour, 0, BlockSize, true, "")
	if err != nil {
		t.Fatal(err)
	}
	if past <= future {
		t.Fatalf("past-stamped latency %v should exceed future-stamped %v", past, future)
	}
	if future >= time.Hour {
		t.Fatalf("future-stamped latency %v should not include the stamp", future)
	}
	if _, err := sv.Stop(); err != nil {
		t.Fatal(err)
	}
}

// TestServeSubmitAtOrdered pins the stamp-ordered pipelining contract:
// a sequencer that mails operations in global stamp order through
// SubmitAt — without waiting for earlier completions — must see
// latencies bounded by genuine service and queueing time, never
// inflated by the virtual clock racing ahead of stamps still to come.
// The awaits run concurrently and Stop comes before the tail is awaited:
// completions past the newest stamp wait for the stop-drain.
func TestServeSubmitAtOrdered(t *testing.T) {
	sv := newTestServer(t, 1, 1<<20, 0)
	ctx := context.Background()
	const ops = 200
	lats := make([]time.Duration, ops)
	errs := make([]error, ops)
	var wg sync.WaitGroup
	for i := 0; i < ops; i++ {
		// 2 ms spacing: far below device capacity, so with in-order
		// admission every wait is ~zero and latency is pure response
		// time (well under one spacing).
		at := time.Duration(i) * 2 * time.Millisecond
		aw, err := sv.SubmitAt(ctx, at, int64(i%64)*BlockSize, BlockSize, i%2 == 0)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lats[i], errs[i] = aw(ctx)
		}(i)
	}
	st, err := sv.Stop()
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, lat := range lats {
		if errs[i] != nil {
			t.Fatalf("await %d: %v", i, errs[i])
		}
		if lat <= 0 || lat >= 2*time.Millisecond {
			t.Fatalf("op %d: latency %v outside (0, 2ms): clock ran ahead of unsubmitted stamps", i, lat)
		}
	}
	if st.Requests != ops {
		t.Fatalf("requests=%d, want %d", st.Requests, ops)
	}
}

// TestServeStopped checks submissions and second Stops after Stop fail
// with ErrServeStopped.
func TestServeStopped(t *testing.T) {
	sv := newTestServer(t, 1, 1<<20, 0)
	ctx := context.Background()
	if _, err := sv.Do(ctx, 0, 0, BlockSize, true, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := sv.Stop(); err != nil {
		t.Fatal(err)
	}
	if _, err := sv.Do(ctx, 0, 0, BlockSize, true, ""); !errors.Is(err, ErrServeStopped) {
		t.Fatalf("Write after Stop: %v, want ErrServeStopped", err)
	}
	if _, err := sv.Do(ctx, 0, 0, BlockSize, false, ""); !errors.Is(err, ErrServeStopped) {
		t.Fatalf("Read after Stop: %v, want ErrServeStopped", err)
	}
	if _, err := sv.Stop(); !errors.Is(err, ErrServeStopped) {
		t.Fatalf("second Stop: %v, want ErrServeStopped", err)
	}
}

// TestServeBackpressure runs many concurrent clients against a
// one-deep mailbox: every operation must still complete (submitters
// block instead of losing work) and the stall counter must be coherent.
func TestServeBackpressure(t *testing.T) {
	const clients, perC = 8, 25
	sv := newTestServer(t, 1, 1<<20, 1)
	ctx := context.Background()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perC; i++ {
				off := int64((c*perC+i)%128) * BlockSize
				if _, err := sv.Do(ctx, 0, off, BlockSize, true, ""); err != nil {
					t.Errorf("client %d write %d: %v", c, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st, err := sv.Stop()
	if err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if st.Requests != clients*perC {
		t.Fatalf("requests=%d, want %d", st.Requests, clients*perC)
	}
	if st.SubmitStalls < 0 || st.SubmitStalls != sv.Stalls() {
		t.Fatalf("stall accounting broken: merged=%d server=%d", st.SubmitStalls, sv.Stalls())
	}
}

// TestServeContextCancel checks a cancelled context releases a waiter
// whose operation is still in flight, and that the operation completes
// server-side all the same. "Still in flight" is a fact rather than a
// race: a shard releases no completion of an unwaited operation past its
// newest arrival stamp until a later arrival or Stop, so the result
// cannot be ready when the cancelled wait runs (with both ready, select
// may pick either).
func TestServeContextCancel(t *testing.T) {
	sv := newPacedServer(t, 1, 1<<20)
	await, err := sv.SubmitAt(context.Background(), 0, 0, BlockSize, true)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := await(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("await with canceled ctx: %v, want context.Canceled", err)
	}
	if _, err := sv.Stop(); err != nil {
		t.Fatal(err)
	}
	if lat, err := await(context.Background()); err != nil || lat <= 0 {
		t.Fatalf("write abandoned by its waiter: latency %v, err %v", lat, err)
	}
}

// TestAwaitOnce pins the one-shot Await: a call after the one that took
// the result, or beside one still waiting, fails at once and never yields
// another operation's result, while a call after a cancelled one still
// gets the result. Every operation here is held behind its shard's
// watermark until the next stamp arrives, so which call is waiting is a
// fact, not a race.
func TestAwaitOnce(t *testing.T) {
	sv := newPacedServer(t, 1, 1<<20)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	at := time.Duration(0)
	submit := func() Await {
		t.Helper()
		at += time.Millisecond
		aw, err := sv.SubmitAt(ctx, at, 0, BlockSize, false)
		if err != nil {
			t.Fatal(err)
		}
		return aw
	}
	spent := func(what string, aw Await) {
		t.Helper()
		if lat, err := aw(ctx); !errors.Is(err, errAwaited) {
			t.Fatalf("%s: latency %v, err %v, want errAwaited", what, lat, err)
		}
	}

	// Sequential: the second call fails, also once the ticket serves the
	// next operation.
	first := submit()
	next := submit() // releases first
	if lat, err := first(ctx); err != nil || lat <= 0 {
		t.Fatalf("first await: latency %v, err %v", lat, err)
	}
	spent("second call", first)
	later := submit() // releases next; may reuse first's ticket
	if _, err := next(ctx); err != nil {
		t.Fatal(err)
	}
	spent("second call after reuse", first)

	// Concurrent: one call claims the operation, the other fails while the
	// first still waits.
	results := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() { _, err := later(ctx); results <- err }()
	}
	if err := <-results; !errors.Is(err, errAwaited) {
		t.Fatalf("concurrent second call: %v, want errAwaited", err)
	}
	cancelled := submit() // releases later
	if err := <-results; err != nil {
		t.Fatalf("concurrent claiming call: %v", err)
	}

	// Retry after cancel: the result is still there, once.
	dead, kill := context.WithCancel(ctx)
	kill()
	if _, err := cancelled(dead); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled await: %v, want context.Canceled", err)
	}
	submit() // releases cancelled
	if lat, err := cancelled(ctx); err != nil || lat <= 0 {
		t.Fatalf("await after cancel: latency %v, err %v", lat, err)
	}
	spent("call after the retry", cancelled)
	if _, err := sv.Stop(); err != nil {
		t.Fatal(err)
	}
}

// TestServeHandoffAllocs guards the allocation-free hand-off on cache
// hits: Do allocates only the read path's cache-hit closure, and SubmitAt
// plus its Await one more, the Await itself.
func TestServeHandoffAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	sv := newPacedServerWith(t, 1, 1<<20, Options{Data: datagen.New(datagen.Enterprise(), 11), CacheBytes: 1 << 20})
	ctx := context.Background()
	read := func() {
		if _, err := sv.Do(ctx, 0, 0, BlockSize, false, ""); err != nil {
			t.Fatal(err)
		}
	}
	read() // a miss fills the cache
	if got := testing.AllocsPerRun(200, read); got > 1 {
		t.Errorf("Do: %.1f allocations per cache-hit read, want <= 1", got)
	}
	at := time.Second
	prev, err := sv.SubmitAt(ctx, at, 0, BlockSize, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(200, func() {
		at += time.Millisecond
		aw, err := sv.SubmitAt(ctx, at, 0, BlockSize, false)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := prev(ctx); err != nil { // released by aw's arrival
			t.Fatal(err)
		}
		prev = aw
	}); got > 2 {
		t.Errorf("SubmitAt+await: %.1f allocations per cache-hit read, want <= 2", got)
	}
	if _, err := sv.Stop(); err != nil {
		t.Fatal(err)
	}
	if _, err := prev(ctx); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkServeHandoff drives a paced single-shard server the way the
// serve harness does — stamp-ordered SubmitAt from one goroutine, a FIFO
// awaiter in another — on 4 KiB operations 50 µs apart. hits reads 16
// cached blocks, so what it times is the submit, mailbox, event-loop and
// await hand-off; mix is serve-hot-small's 90/10 read/write mix, whose
// writes the stamps' 20 000 ops/s put above the lzf ceiling, so it adds
// the event loop's cost of a write stored raw.
func BenchmarkServeHandoff(b *testing.B) {
	for _, c := range []struct {
		name   string
		writes bool
	}{{"hits", false}, {"mix", true}} {
		b.Run(c.name, func(b *testing.B) {
			sv := newPacedServerWith(b, 1, 1<<20, Options{Data: datagen.New(datagen.Enterprise(), 11), CacheBytes: 1 << 20})
			ctx := context.Background()
			awaits := make(chan Await, b.N)
			var failed error
			done := make(chan struct{})
			go func() {
				defer close(done)
				for aw := range awaits {
					if _, err := aw(ctx); err != nil && failed == nil {
						failed = err
					}
				}
			}()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				off, write := int64(i%16)*BlockSize, c.writes && i%10 == 9
				if write {
					off = int64(i*37%256) * BlockSize
				}
				aw, err := sv.SubmitAt(ctx, time.Duration(i)*50*time.Microsecond, off, BlockSize, write)
				if err != nil {
					b.Fatal(err)
				}
				awaits <- aw
			}
			if _, err := sv.Stop(); err != nil {
				b.Fatal(err)
			}
			close(awaits)
			<-done
			b.StopTimer()
			if failed != nil {
				b.Fatal(failed)
			}
		})
	}
}

// BenchmarkServeIngest serves the read-verify preload's shape — a
// permuted fill of a 16 MiB volume with 16 KiB writes at 1 000/s,
// stamp-ordered from one submitter — with the codec work inline
// (workers-1) and on the shared pool with the serve lookahead
// (workers-2). slot-share is the share of runs served from a lookahead
// slot; stolen-share the share of the pool's jobs a waiter ran itself.
func BenchmarkServeIngest(b *testing.B) {
	const vol, chunk = 16 << 20, 16 << 10
	perm := rand.New(rand.NewSource(1)).Perm(vol / chunk)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			before := parallel.Shared().Stats()
			var served, runs int64
			for i := 0; i < b.N; i++ {
				sv := newPacedServerWith(b, 1, vol, Options{Data: datagen.New(datagen.Enterprise(), 11), ReplayWorkers: workers})
				ctx := context.Background()
				awaits := make([]Await, len(perm))
				for j, c := range perm {
					aw, err := sv.SubmitAt(ctx, time.Duration(j+1)*time.Millisecond, int64(c)*chunk, chunk, true)
					if err != nil {
						b.Fatal(err)
					}
					awaits[j] = aw
				}
				if _, err := sv.Stop(); err != nil {
					b.Fatal(err)
				}
				for _, aw := range awaits {
					if _, err := aw(ctx); err != nil {
						b.Fatal(err)
					}
				}
				d := sv.shards[0].dev
				if runs += d.stats.SDRuns; d.wp.la != nil {
					served += d.wp.la.served
				}
			}
			after := parallel.Shared().Stats()
			b.ReportMetric(float64(len(perm)*b.N)/b.Elapsed().Seconds(), "writes/s")
			stolen := 0.0
			if sub := after.Submitted - before.Submitted; sub > 0 {
				stolen = float64(after.Stolen-before.Stolen) / float64(sub)
			}
			b.ReportMetric(stolen, "stolen-share")
			b.ReportMetric(float64(served)/float64(max(runs, 1)), "slot-share")
		})
	}
}

// TestServeFailurePropagation injects unrecoverable write faults and
// checks the fatal pipeline error reaches both the failing client and
// Stop instead of stranding submitters forever.
func TestServeFailurePropagation(t *testing.T) {
	sv, err := NewServer(ServeSetup{
		ShardSetup: ShardSetup{
			Shards:      1,
			VolumeBytes: 1 << 20,
			Backend: func(eng *sim.Engine) (*Backend, error) {
				cfg := ssd.DefaultConfig()
				cfg.Blocks = 64
				d, err := ssd.New(cfg)
				if err != nil {
					return nil, err
				}
				return NewSSDBackend(eng, d), nil
			},
			Options: func(int) (Options, error) {
				// Every device write hard-fails: retries and re-allocations
				// exhaust, then the pipeline aborts.
				return Options{
					Faults: &fault.Plan{Seed: 7, WriteHard: 1.0},
				}, nil
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var opErr error
	for i := 0; i < 64; i++ {
		if _, opErr = sv.Do(ctx, 0, int64(i)*BlockSize, BlockSize, true, ""); opErr != nil {
			break
		}
	}
	if opErr == nil {
		t.Fatal("writes never failed under a 100% hard-fault plan")
	}
	if errors.Is(opErr, ErrServeStopped) || errors.Is(opErr, context.Canceled) {
		t.Fatalf("unexpected error class: %v", opErr)
	}
	if _, err := sv.Stop(); err == nil {
		t.Fatal("Stop reported no error after pipeline failure")
	}
}

// TestNewServerValidation covers the setup error paths.
func TestNewServerValidation(t *testing.T) {
	bf := func(eng *sim.Engine) (*Backend, error) {
		t.Fatal("backend factory must not run for invalid setups")
		return nil, nil
	}
	of := func(int) (Options, error) { return Options{}, nil }
	for _, tc := range []ServeSetup{
		{ShardSetup: ShardSetup{Shards: 2, VolumeBytes: 1 << 20, Backend: nil, Options: of}},
		{ShardSetup: ShardSetup{Shards: 2, VolumeBytes: 1 << 20, Backend: bf, Options: nil}},
		{ShardSetup: ShardSetup{Shards: 2, VolumeBytes: BlockSize - 1, Backend: bf, Options: of}},
		{ShardSetup: ShardSetup{Shards: 9, VolumeBytes: 8 * BlockSize, Backend: bf, Options: of}},
	} {
		if _, err := NewServer(tc); err == nil {
			t.Errorf("NewServer(%+v) accepted invalid setup", tc)
		}
	}
	// A disabled flush timeout would strand buffered runs forever.
	_, err := NewServer(ServeSetup{
		ShardSetup: ShardSetup{
			Shards: 1, VolumeBytes: 1 << 20,
			Backend: func(eng *sim.Engine) (*Backend, error) {
				cfg := ssd.DefaultConfig()
				cfg.Blocks = 64
				d, err := ssd.New(cfg)
				if err != nil {
					return nil, err
				}
				return NewSSDBackend(eng, d), nil
			},
			Options: func(int) (Options, error) {
				return Options{FlushTimeout: -1}, nil
			},
		},
	})
	if err == nil {
		t.Error("NewServer accepted a disabled flush timeout")
	}
}
