package core

import (
	"context"
	"testing"
	"time"

	"edc/internal/datagen"
	"edc/internal/sim"
	"edc/internal/ssd"
)

func newPacedServer(t *testing.T, shards int, vol int64) *Server {
	t.Helper()
	return newPacedServerWith(t, shards, vol, Options{Data: datagen.New(datagen.Enterprise(), 11)})
}

// newPacedServerWith builds a verify-mode server (every server runs its
// shards paced, up to their arrival watermarks) over the given per-shard
// options.
func newPacedServerWith(t testing.TB, shards int, vol int64, opts Options) *Server {
	t.Helper()
	opts.VerifyReads = true
	sv, err := NewServer(ServeSetup{
		ShardSetup: ShardSetup{
			Shards:      shards,
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
	})
	if err != nil {
		t.Fatal(err)
	}
	return sv
}

// pacedRun submits one fixed stamp-ordered operation sequence to a
// paced server and returns the per-operation open-loop latencies.
// jitter injects real-time stalls between submissions — the exact
// scheduling noise (mailbox batching, engines running dry mid-stream)
// that pacing must keep out of the virtual results.
func pacedRun(t *testing.T, jitter bool) []time.Duration {
	t.Helper()
	const vol = 1 << 20
	const ops = 400
	sv := newPacedServer(t, 2, vol)
	ctx := context.Background()
	lats := make([]time.Duration, ops)
	errs := make([]error, ops)
	done := make(chan int, ops)
	for i := 0; i < ops; i++ {
		// Dense stamps against 4-16KiB ops guarantee virtual queueing:
		// completions routinely land past later arrival stamps, which is
		// precisely where an unpaced engine's clock would run ahead.
		at := time.Duration(i) * 20 * time.Microsecond
		off := int64((i*7919)%(vol/BlockSize)) * BlockSize
		size := int64(BlockSize)
		if i%7 == 0 {
			size = 4 * BlockSize // may straddle the shard boundary
		}
		if off+size > vol {
			off = vol - size
		}
		aw, err := sv.SubmitAt(ctx, at, off, size, i%3 != 0)
		if err != nil {
			t.Fatal(err)
		}
		go func(i int, aw Await) {
			lats[i], errs[i] = aw(ctx)
			done <- i
		}(i, aw)
		if jitter && i%16 == 0 {
			time.Sleep(200 * time.Microsecond)
		}
	}
	// Stop before draining the awaits: in paced mode the tail of the
	// run only completes when the stop-drain runs the engines dry.
	if _, err := sv.Stop(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ops; i++ {
		<-done
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	return lats
}

// TestPacedServeDeterminism checks the paced-mode contract end to end:
// the same stamp-ordered submission sequence yields bit-identical
// per-operation virtual latencies no matter how real time slices the
// mailbox batches. The jittered run forces engines to drain and idle
// mid-stream; without pacing, the admit clamp converts those races
// into virtual latency (the bug the corescale identity gate catches).
func TestPacedServeDeterminism(t *testing.T) {
	smooth := pacedRun(t, false)
	jittered := pacedRun(t, true)
	for i := range smooth {
		if smooth[i] != jittered[i] {
			t.Fatalf("op %d: latency %v (smooth) != %v (jittered)", i, smooth[i], jittered[i])
		}
	}
}

// TestServeShardCheckpoints checks a serve shard opens its run the way
// Play does: with SnapshotEvery set it journals, folds the journal into
// a fresh snapshot at least once as traffic carries the clock past the
// interval, and what it persisted recovers to the live mapping.
func TestServeShardCheckpoints(t *testing.T) {
	opts := verifyOptions()
	opts.SnapshotEvery = 5 * time.Millisecond // the trace spans 45 ms
	sv := newPacedServerWith(t, 1, 2<<20, opts)
	ctx := context.Background()
	var waits []Await
	for _, r := range verifyTrace().Requests {
		aw, err := sv.SubmitAt(ctx, r.Arrival, r.Offset, r.Size, r.Write)
		if err != nil {
			t.Fatal(err)
		}
		waits = append(waits, aw)
	}
	st, err := sv.Stop()
	if err != nil {
		t.Fatal(err)
	}
	for _, aw := range waits {
		if _, err := aw(ctx); err != nil {
			t.Fatal(err)
		}
	}
	dev := sv.shards[0].dev
	per := dev.per
	if per == nil {
		t.Fatal("SnapshotEvery set but the serve shard armed no persister")
	}
	// Every stored run journals one record, so a journal shorter than
	// the run count was reset by a checkpoint.
	if int64(per.jnl.Records()) >= st.SDRuns {
		t.Fatalf("journal holds %d records for %d stored runs: never reset", per.jnl.Records(), st.SDRuns)
	}
	m, _, err := RecoverMapping(per.snapshot, per.jnl.Bytes(), NewAllocator(dev.se.alloc.Capacity()))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if live := dev.se.mapping.LiveBlocks(); m.LiveBlocks() != live || live == 0 {
		t.Fatalf("recovered %d live blocks, the live mapping holds %d", m.LiveBlocks(), live)
	}
}
