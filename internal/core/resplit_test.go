package core

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"edc/internal/datagen"
	"edc/internal/sim"
	"edc/internal/ssd"
)

// TestSplitTailPreservesPartialOverwrites checks the block-exact clone:
// an extent that lost some blocks to a newer overwrite must arrive in
// the destination with exactly its surviving references, not a
// resurrected whole run.
func TestSplitTailPreservesPartialOverwrites(t *testing.T) {
	alloc := NewAllocator(1 << 20)
	var freed []*Extent
	m := NewMapping(16*BlockSize, alloc, func(e *Extent) { freed = append(freed, e) })
	place := func(off, size int64) *Extent {
		t.Helper()
		devOff, err := alloc.Alloc(size)
		if err != nil {
			t.Fatal(err)
		}
		e := &Extent{Offset: off, OrigLen: size, CompLen: size, SlotLen: size, DevOff: devOff}
		if err := m.Insert(e); err != nil {
			t.Fatal(err)
		}
		return e
	}
	head := place(0, 4*BlockSize)
	e1 := place(8*BlockSize, 4*BlockSize)        // tail run [8,12)
	place(9*BlockSize, 2*BlockSize)              // overwrites blocks 9-10
	if e1.Live() != 2 || m.LiveBlocks() != 4+4 { // e1 keeps 8 and 11
		t.Fatalf("setup: e1.live=%d liveBlocks=%d", e1.Live(), m.LiveBlocks())
	}

	dstAlloc := NewAllocator(1 << 20)
	dst := NewMapping(8*BlockSize, dstAlloc, nil)
	clone := func(e *Extent) (*Extent, error) {
		devOff, err := dstAlloc.Alloc(e.SlotLen)
		if err != nil {
			return nil, err
		}
		return &Extent{Offset: e.Offset - 8*BlockSize, OrigLen: e.OrigLen,
			CompLen: e.CompLen, SlotLen: e.SlotLen, DevOff: devOff}, nil
	}
	moved, err := m.SplitTail(8*BlockSize, dst, clone)
	if err != nil || moved != 2 {
		t.Fatalf("SplitTail: moved=%d err=%v, want 2,nil", moved, err)
	}
	c1, c2 := dst.Lookup(0), dst.Lookup(1*BlockSize)
	if c1 == nil || c2 == nil || c1 == c2 {
		t.Fatalf("clones: block0=%p block1=%p", c1, c2)
	}
	if dst.Lookup(2*BlockSize) != c2 || dst.Lookup(3*BlockSize) != c1 {
		t.Fatal("destination table does not mirror the source's overwrite pattern")
	}
	if c1.Live() != 2 || c2.Live() != 2 || dst.LiveBlocks() != 4 {
		t.Fatalf("clone live counts %d/%d, liveBlocks=%d", c1.Live(), c2.Live(), dst.LiveBlocks())
	}
	if err := dst.CheckInvariants(); err != nil {
		t.Fatalf("destination invariants: %v", err)
	}

	// Committing the move trims the source tail, freeing both old slots.
	if err := m.Trim(8*BlockSize, 8*BlockSize); err != nil {
		t.Fatal(err)
	}
	if len(freed) != 2 || m.LiveBlocks() != 4 || m.Lookup(0) != head {
		t.Fatalf("after trim: freed=%d liveBlocks=%d", len(freed), m.LiveBlocks())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("source invariants: %v", err)
	}
}

// TestSplitTailRefusesStraddle checks the guard against an extent whose
// home range crosses the boundary.
func TestSplitTailRefusesStraddle(t *testing.T) {
	alloc := NewAllocator(1 << 20)
	m := NewMapping(16*BlockSize, alloc, nil)
	devOff, err := alloc.Alloc(4 * BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	e := &Extent{Offset: 6 * BlockSize, OrigLen: 4 * BlockSize, CompLen: 4 * BlockSize,
		SlotLen: 4 * BlockSize, DevOff: devOff}
	if err := m.Insert(e); err != nil {
		t.Fatal(err)
	}
	dst := NewMapping(8*BlockSize, NewAllocator(1<<20), nil)
	if _, err := m.SplitTail(8*BlockSize, dst, func(e *Extent) (*Extent, error) { return nil, nil }); err == nil {
		t.Fatal("SplitTail accepted a boundary inside an extent's home range")
	}
}

// newResplitServer builds a single-shard server with the given
// repartitioning policy (read verification off: resplit refuses it).
func newResplitServer(t *testing.T, rc *ResplitConfig, vol int64) *Server {
	return newResplitServerEvery(t, rc, vol, 0)
}

// newResplitServerEvery is newResplitServer with a checkpoint interval.
func newResplitServerEvery(t *testing.T, rc *ResplitConfig, vol int64, snapEvery time.Duration) *Server {
	return newResplitServerWith(t, rc, vol, Options{SnapshotEvery: snapEvery})
}

// newResplitServerWith is newResplitServer over the given shard options.
func newResplitServerWith(t *testing.T, rc *ResplitConfig, vol int64, opts Options) *Server {
	t.Helper()
	opts.Data = datagen.New(datagen.Enterprise(), 11)
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
		Resplit: rc,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sv
}

// TestResplitSplitsHotShard drives a sustained single-client load at an
// aggressively configured server and checks the shard map actually
// grows, every operation still completes (including reads spanning the
// new boundaries), and the merged statistics account for the splits and
// the final occupancy.
func TestResplitSplitsHotShard(t *testing.T) {
	const vol = 1 << 20 // 256 blocks
	rc := &ResplitConfig{MaxShards: 3, Factor: 1.0, WindowOps: 32, Streak: 1}
	sv := newResplitServer(t, rc, vol)
	ctx := context.Background()
	nblocks := int64(vol / BlockSize)
	for pass := 0; pass < 2; pass++ {
		for b := int64(0); b < nblocks; b++ {
			if _, err := sv.Do(ctx, 0, b*BlockSize, BlockSize, true, ""); err != nil {
				t.Fatalf("pass %d write block %d: %v", pass, b, err)
			}
		}
	}
	if got := sv.Shards(); got < 2 || got > rc.MaxShards {
		t.Fatalf("shards=%d after hot load, want in [2,%d]", got, rc.MaxShards)
	}
	// Reads across the whole volume exercise the re-routed boundaries,
	// including one request fanning out over every shard.
	for b := int64(0); b < nblocks; b++ {
		if lat, err := sv.Do(ctx, 0, b*BlockSize, BlockSize, false, ""); err != nil || lat <= 0 {
			t.Fatalf("read block %d: lat=%v err=%v", b, lat, err)
		}
	}
	if lat, err := sv.Do(ctx, 0, 0, vol, false, ""); err != nil || lat <= 0 {
		t.Fatalf("full-volume read: lat=%v err=%v", lat, err)
	}
	shards := sv.Shards()
	st, err := sv.Stop()
	if err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if st.Resplits != int64(shards-1) {
		t.Fatalf("Resplits=%d, want %d (shards went 1 -> %d)", st.Resplits, shards-1, shards)
	}
	if len(st.ShardLiveBlocks) != shards {
		t.Fatalf("ShardLiveBlocks has %d entries, want %d", len(st.ShardLiveBlocks), shards)
	}
	var live int64
	for i, n := range st.ShardLiveBlocks {
		if n <= 0 {
			t.Fatalf("shard %d reports %d live blocks after a split", i, n)
		}
		live += n
	}
	if live != nblocks {
		t.Fatalf("total live blocks %d, want %d", live, nblocks)
	}
	// The full-volume read fans out into one sub-operation per shard,
	// and each shard counts its piece as a request.
	wantOps := 2*nblocks + nblocks + int64(shards)
	if st.Requests != wantOps {
		t.Fatalf("Requests=%d, want %d", st.Requests, wantOps)
	}
}

// TestResplitKeepsShardsRecoverable splits a shard that checkpoints:
// the trim of the migrated tail is not journaled, so the source must
// restart its snapshot from the quiesced mapping — or its next
// checkpoint replays new slots over the ones the trim freed and fails —
// and both halves must recover to what they hold live.
func TestResplitKeepsShardsRecoverable(t *testing.T) {
	const vol = 1 << 20
	rc := &ResplitConfig{MaxShards: 3, Factor: 1.0, WindowOps: 32, Streak: 1}
	sv := newResplitServerEvery(t, rc, vol, 200*time.Microsecond)
	ctx := context.Background()
	for pass := 0; pass < 3; pass++ {
		for off := int64(0); off < vol; off += BlockSize {
			if _, err := sv.Do(ctx, 0, off, BlockSize, true, ""); err != nil {
				t.Fatalf("pass %d write at %d: %v", pass, off, err)
			}
		}
	}
	if sv.Shards() < 2 {
		t.Fatal("the hot shard never split")
	}
	if _, err := sv.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	for i, ss := range sv.shards {
		per, se := ss.dev.per, ss.dev.se
		m, _, err := RecoverMapping(per.snapshot, per.jnl.Bytes(), NewAllocator(se.alloc.Capacity()))
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if m.LiveBlocks() != se.mapping.LiveBlocks() {
			t.Fatalf("shard %d: recovered %d live blocks, holds %d", i, m.LiveBlocks(), se.mapping.LiveBlocks())
		}
	}
}

// TestResplitMaxShardsCap checks splitting stops at the configured cap
// even under a load that stays hot forever.
func TestResplitMaxShardsCap(t *testing.T) {
	rc := &ResplitConfig{MaxShards: 2, Factor: 1.0, WindowOps: 16, Streak: 1}
	sv := newResplitServer(t, rc, 1<<20)
	ctx := context.Background()
	for i := 0; i < 512; i++ {
		off := int64(i%256) * BlockSize
		if _, err := sv.Do(ctx, 0, off, BlockSize, true, ""); err != nil {
			t.Fatal(err)
		}
	}
	if got := sv.Shards(); got != 2 {
		t.Fatalf("shards=%d, want exactly MaxShards=2", got)
	}
	if _, err := sv.Stop(); err != nil {
		t.Fatal(err)
	}
}

// TestResplitConcurrentClients races submitters against splits (and the
// final Stop) and checks no operation is lost or double-counted.
func TestResplitConcurrentClients(t *testing.T) {
	rc := &ResplitConfig{MaxShards: 4, Factor: 1.0, WindowOps: 32, Streak: 1}
	sv := newResplitServer(t, rc, 1<<20)
	const clients, perClient = 4, 200
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			ctx := context.Background()
			for i := 0; i < perClient; i++ {
				off := rng.Int63n(256) * BlockSize
				var err error
				if rng.Intn(2) == 0 {
					_, err = sv.Do(ctx, 0, off, BlockSize, true, "")
				} else {
					_, err = sv.Do(ctx, 0, off, BlockSize, false, "")
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(c + 1))
	}
	wg.Wait()
	st, err := sv.Stop()
	if err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if st.Requests != clients*perClient {
		t.Fatalf("Requests=%d, want %d", st.Requests, clients*perClient)
	}
	if len(st.ShardLiveBlocks) != int(st.Resplits)+1 {
		t.Fatalf("ShardLiveBlocks=%d entries, Resplits=%d", len(st.ShardLiveBlocks), st.Resplits)
	}
}

// TestResplitStampOrderedAsync splits a shard under the paced client
// shape — stamp-ordered SubmitAt, awaits running concurrently, Stop
// before the tail is awaited — whose completions wait at the arrival
// watermark until the quiesce runs the engine past it: the split must
// still happen, lose nothing and leave every mapping consistent.
func TestResplitStampOrderedAsync(t *testing.T) {
	rc := &ResplitConfig{MaxShards: 3, Factor: 1.0, WindowOps: 32, Streak: 1}
	sv := newResplitServer(t, rc, 1<<20)
	ctx := context.Background()
	const ops = 1024
	errs := make(chan error, ops)
	for i := 0; i < ops; i++ {
		at := time.Duration(i) * 20 * time.Microsecond
		aw, err := sv.SubmitAt(ctx, at, int64(i*7%256)*BlockSize, BlockSize, i%3 != 0)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		go func() {
			_, err := aw(ctx)
			errs <- err
		}()
	}
	st, err := sv.Stop()
	if err != nil {
		t.Fatalf("Stop: %v", err)
	}
	for i := 0; i < ops; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if st.Resplits < 1 {
		t.Fatal("the hot shard never split")
	}
	for i, ss := range sv.shards {
		if err := ss.dev.se.mapping.CheckInvariants(); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
	if st.Requests != ops {
		t.Fatalf("Requests=%d, want %d", st.Requests, ops)
	}
}

// TestResplitWithLookahead splits a shard whose write path runs the
// serve lookahead — codec work on the pool, stamp-ordered writes to
// scattered blocks at a rate the policy compresses — and checks that the
// split drops the source's ring, loses nothing, and leaves every mapping
// consistent, with a lookahead serving runs after it.
func TestResplitWithLookahead(t *testing.T) {
	rc := &ResplitConfig{MaxShards: 3, Factor: 1.0, WindowOps: 32, Streak: 1}
	sv := newResplitServerWith(t, rc, 1<<20, Options{ReplayWorkers: 2})
	ctx := context.Background()
	const ops = 1024
	errs := make(chan error, ops)
	for i := 0; i < ops; i++ {
		at := time.Duration(i) * time.Millisecond
		aw, err := sv.SubmitAt(ctx, at, int64(i*7%256)*BlockSize, BlockSize, i%3 != 0)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		go func() {
			_, err := aw(ctx)
			errs <- err
		}()
	}
	st, err := sv.Stop()
	if err != nil {
		t.Fatalf("Stop: %v", err)
	}
	for i := 0; i < ops; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if st.Resplits < 1 {
		t.Fatal("the hot shard never split")
	}
	var served int64
	for i, ss := range sv.shards {
		if err := ss.dev.se.mapping.CheckInvariants(); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if la := ss.dev.wp.la; la != nil {
			served += la.served
		}
	}
	if served == 0 {
		t.Fatal("no lookahead served a run after the split")
	}
	if st.Requests != ops {
		t.Fatalf("Requests=%d, want %d", st.Requests, ops)
	}
}

// TestResplitRefusesIncompatibleOptions checks the three feature
// combinations resplit cannot support are refused at setup.
func TestResplitRefusesIncompatibleOptions(t *testing.T) {
	build := func(mut func(*Options)) error {
		_, err := NewServer(ServeSetup{
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
					o := Options{Data: datagen.New(datagen.Enterprise(), 11)}
					mut(&o)
					return o, nil
				},
			},
			Resplit: &ResplitConfig{},
		})
		return err
	}
	if err := build(func(o *Options) { o.VerifyReads = true }); err == nil {
		t.Fatal("resplit + VerifyReads accepted")
	}
	if err := build(func(o *Options) {}); err != nil {
		t.Fatalf("resplit alone refused: %v", err)
	}
}
