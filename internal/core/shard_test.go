package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"edc/internal/datagen"
	"edc/internal/sim"
	"edc/internal/ssd"
	"edc/internal/trace"
)

// unusedFactories satisfy NewSharded for tests that only exercise the
// partition/routing logic and must never build a device.
func unusedFactories(t *testing.T) (func(*sim.Engine) (*Backend, error), func(int) (Options, error)) {
	t.Helper()
	return func(*sim.Engine) (*Backend, error) {
			t.Fatal("backend factory called")
			return nil, nil
		}, func(int) (Options, error) {
			t.Fatal("options factory called")
			return Options{}, nil
		}
}

// TestShardBoundsPartition checks the LBA partition invariants over a
// range of volume/shard shapes: full coverage, block alignment, strict
// monotonicity, and balance within one block.
func TestShardBoundsPartition(t *testing.T) {
	cases := []struct {
		blocks int64
		shards int
	}{
		{1, 1}, {5, 2}, {64, 3}, {7, 7}, {100, 9}, {4096, 16},
	}
	for _, tc := range cases {
		vol := tc.blocks * BlockSize
		b := shardBounds(vol, tc.shards)
		if len(b) != tc.shards+1 {
			t.Fatalf("blocks=%d shards=%d: %d bounds, want %d", tc.blocks, tc.shards, len(b), tc.shards+1)
		}
		if b[0] != 0 || b[tc.shards] != vol {
			t.Errorf("blocks=%d shards=%d: bounds span [%d, %d], want [0, %d]",
				tc.blocks, tc.shards, b[0], b[tc.shards], vol)
		}
		minSz, maxSz := int64(1<<62), int64(0)
		for i := 0; i < tc.shards; i++ {
			sz := b[i+1] - b[i]
			if sz <= 0 {
				t.Errorf("blocks=%d shards=%d: shard %d empty or inverted", tc.blocks, tc.shards, i)
			}
			if b[i]%BlockSize != 0 {
				t.Errorf("blocks=%d shards=%d: bound %d = %d not block-aligned", tc.blocks, tc.shards, i, b[i])
			}
			if sz < minSz {
				minSz = sz
			}
			if sz > maxSz {
				maxSz = sz
			}
		}
		if maxSz-minSz > BlockSize {
			t.Errorf("blocks=%d shards=%d: shard sizes differ by %d > one block",
				tc.blocks, tc.shards, maxSz-minSz)
		}
	}
}

// TestShardSplitCoverage routes a boundary-crossing trace and verifies
// every aligned request is tiled exactly — no byte lost, duplicated, or
// routed outside its shard — with arrivals preserved.
func TestShardSplitCoverage(t *testing.T) {
	const vol = 64 * BlockSize
	bf, of := unusedFactories(t)
	sd, err := NewSharded(ShardSetup{Shards: 3, VolumeBytes: vol, Backend: bf, Options: of})
	if err != nil {
		t.Fatal(err)
	}
	bounds := sd.part.bounds

	tr := &trace.Trace{Name: "split"}
	// One request per block plus spans crossing each internal boundary
	// and one covering the whole volume.
	for i := int64(0); i < 64; i++ {
		tr.Requests = append(tr.Requests, trace.Request{
			Arrival: time.Duration(i) * time.Microsecond,
			Offset:  i * BlockSize, Size: BlockSize, Write: i%2 == 0,
		})
	}
	for _, b := range bounds[1 : len(bounds)-1] {
		tr.Requests = append(tr.Requests, trace.Request{
			Arrival: time.Millisecond, Offset: b - BlockSize, Size: 3 * BlockSize, Write: true,
		})
	}
	tr.Requests = append(tr.Requests, trace.Request{
		Arrival: 2 * time.Millisecond, Offset: 0, Size: vol, Write: true,
	})

	subs := sd.split(tr)
	if len(subs) != 3 {
		t.Fatalf("%d sub-traces, want 3", len(subs))
	}
	type piece struct{ off, size int64 }
	pieces := map[time.Duration][]piece{} // keyed by arrival; sizes rebased to global offsets
	for i, sub := range subs {
		for _, r := range sub.Requests {
			if r.Offset < 0 || r.Offset+r.Size > bounds[i+1]-bounds[i] {
				t.Fatalf("shard %d: local request [%d, +%d) outside shard of %d bytes",
					i, r.Offset, r.Size, bounds[i+1]-bounds[i])
			}
			pieces[r.Arrival] = append(pieces[r.Arrival], piece{off: r.Offset + bounds[i], size: r.Size})
		}
	}
	for _, r := range tr.Requests {
		off, size := alignRequest(vol, r)
		ps := pieces[r.Arrival]
		// Keep only the pieces tiling this request (same-arrival requests
		// in this trace never overlap in LBA space).
		var mine []piece
		for _, p := range ps {
			if p.off >= off && p.off < off+size {
				mine = append(mine, p)
			}
		}
		sort.Slice(mine, func(a, b int) bool { return mine[a].off < mine[b].off })
		at := off
		for _, p := range mine {
			if p.off != at {
				t.Fatalf("request at %v: gap or overlap at %d (piece starts %d)", r.Arrival, at, p.off)
			}
			at += p.size
		}
		if at != off+size {
			t.Fatalf("request at %v: tiled %d of %d bytes", r.Arrival, at-off, size)
		}
	}
}

// TestPartitionProperty holds the one cutting step to its contract over
// random volumes, shard counts and requests: the pieces of an aligned
// request tile it exactly, in order, none crossing a shard bound — and
// replay's split and serve's mail, which both walk it, cut every request
// into the same pieces.
func TestPartitionProperty(t *testing.T) {
	type piece struct {
		shard       int
		local, size int64
	}
	rng := rand.New(rand.NewSource(17))
	bf, of := unusedFactories(t)
	ctx := context.Background()
	for iter := 0; iter < 300; iter++ {
		blocks := 1 + rng.Int63n(300)
		maxShards := int64(9)
		if blocks < maxShards {
			maxShards = blocks
		}
		setup := ShardSetup{
			Shards:      1 + int(rng.Int63n(maxShards)),
			VolumeBytes: blocks*BlockSize + rng.Int63n(BlockSize), // unaligned tail is dropped
			Backend:     bf, Options: of,
		}
		part, err := setup.partition()
		if err != nil {
			t.Fatalf("blocks=%d shards=%d: %v", blocks, setup.Shards, err)
		}
		sd := &ShardedDevice{setup: setup, part: part}
		// A router with mailboxes nobody drains: one request leaves at
		// most one piece in each.
		sv := &Server{part: part, shards: make([]*serveShard, setup.Shards)}
		for i := range sv.shards {
			sv.shards[i] = &serveShard{mail: make(chan serveReq, 1)}
		}
		for k := 0; k < 20; k++ {
			r := trace.Request{
				Offset: rng.Int63n(2 * part.vol),
				Size:   1 + rng.Int63n(part.vol+BlockSize),
				Write:  rng.Intn(2) == 0,
				Tenant: "web",
			}
			off, size := alignRequest(part.vol, r)
			var want []piece
			for o, n := off, size; n > 0; {
				i, local, c := part.next(o, n)
				if c <= 0 || c > n || local < 0 || local+c > part.width(i) || part.bounds[i]+local != o {
					t.Fatalf("vol=%d shards=%d: next(%d, %d) = shard %d local %d size %d", part.vol, setup.Shards, o, n, i, local, c)
				}
				want = append(want, piece{i, local, c})
				o += c
				n -= c
			}
			var split, mailed []piece
			for i, sub := range sd.split(&trace.Trace{Requests: []trace.Request{r}}) {
				for _, q := range sub.Requests {
					if q.Arrival != r.Arrival || q.Write != r.Write || q.Tenant != r.Tenant {
						t.Fatalf("split piece %+v lost a field of %+v", q, r)
					}
					split = append(split, piece{i, q.Offset, q.Size})
				}
			}
			j, _, err := sv.mail(ctx, 0, r.Offset, r.Size, r.Write, "", false)
			if err != nil {
				t.Fatal(err)
			}
			for i, ss := range sv.shards {
				select {
				case req := <-ss.mail:
					mailed = append(mailed, piece{i, req.off, req.size})
				default:
				}
			}
			if !reflect.DeepEqual(split, want) || !reflect.DeepEqual(mailed, want) || j.remaining != len(want) {
				t.Fatalf("vol=%d shards=%d request [%d,+%d):\n step  %v\n split %v\n mail  %v (join waits for %d)",
					part.vol, setup.Shards, off, size, want, split, mailed, j.remaining)
			}
		}
	}
}

// TestNewShardedValidation covers the setup error paths.
func TestNewShardedValidation(t *testing.T) {
	bf, of := unusedFactories(t)
	for _, tc := range []ShardSetup{
		{Shards: 0, VolumeBytes: 1 << 20, Backend: bf, Options: of},
		{Shards: 2, VolumeBytes: 1 << 20, Backend: nil, Options: of},
		{Shards: 2, VolumeBytes: 1 << 20, Backend: bf, Options: nil},
		{Shards: 2, VolumeBytes: BlockSize - 1, Backend: bf, Options: of},
		{Shards: 9, VolumeBytes: 8 * BlockSize, Backend: bf, Options: of},
	} {
		if _, err := NewSharded(tc); err == nil {
			t.Errorf("NewSharded(%+v) accepted invalid setup", tc)
		}
	}
}

// newTestSharded builds an n-shard device over small private SSDs with
// read verification on.
func newTestSharded(t *testing.T, n int, vol int64) *ShardedDevice {
	t.Helper()
	sd, err := NewSharded(ShardSetup{
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
	})
	if err != nil {
		t.Fatal(err)
	}
	return sd
}

// spreadTrace scatters alternating write/read pairs across the whole
// volume so every shard sees traffic (seqTrace stays inside the first
// MiB, which a multi-shard split would route entirely to shard 0).
func spreadTrace(n int, vol int64, gap time.Duration) *trace.Trace {
	tr := &trace.Trace{Name: "spread"}
	blocks := vol / BlockSize
	for i := 0; i < n; i++ {
		off := (int64(i) * 7919 % blocks) * BlockSize
		tr.Requests = append(tr.Requests, trace.Request{
			Arrival: time.Duration(i) * gap,
			Offset:  off, Size: 8192, Write: i%3 != 2,
		})
	}
	tr.SortByArrival()
	return tr
}

// TestShardedReplayDeterministic replays the same trace twice across
// three shards and requires field-identical merged statistics: the only
// nondeterminism in the sharded path is goroutine scheduling, which the
// shard-order join and merge must hide.
func TestShardedReplayDeterministic(t *testing.T) {
	tr := spreadTrace(900, 32<<20, 40*time.Microsecond)
	run := func() *RunStats {
		res, err := newTestSharded(t, 3, 32<<20).Play(tr)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("sharded replays differ:\na: %v\nb: %v", a, b)
	}
	if a.Resp.Count() != a.Requests {
		t.Errorf("observed %d responses for %d requests", a.Resp.Count(), a.Requests)
	}
	if len(a.Devices) != 3 {
		t.Errorf("merged stats carry %d devices, want 3", len(a.Devices))
	}
	if a.Writes == 0 || a.Reads == 0 || a.OrigBytes == 0 {
		t.Errorf("merged counters look empty: %+v", a)
	}
}

// TestShardedSingleUse mirrors the Device contract: one trace per
// ShardedDevice.
func TestShardedSingleUse(t *testing.T) {
	sd := newTestSharded(t, 2, 16<<20)
	tr := seqTrace(50, 50*time.Microsecond)
	if _, err := sd.Play(tr); err != nil {
		t.Fatal(err)
	}
	if _, err := sd.Play(tr); err == nil {
		t.Fatal("second Play succeeded, want error")
	}
}

// TestShardedPropagatesShardError surfaces a failing shard as a replay
// error instead of silently merging partial results.
func TestShardedPropagatesShardError(t *testing.T) {
	bf, _ := unusedFactories(t)
	boom := errors.New("boom")
	sd, err := NewSharded(ShardSetup{
		Shards:      2,
		VolumeBytes: 16 << 20,
		Backend:     bf,
		Options: func(int) (Options, error) {
			return Options{}, boom
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sd.Play(seqTrace(10, time.Microsecond)); !errors.Is(err, boom) {
		t.Fatalf("Play error = %v, want %v", err, boom)
	}
}
