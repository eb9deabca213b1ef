package core

import (
	"errors"
	"fmt"
	"sync"

	"edc/internal/obs"
	"edc/internal/sim"
	"edc/internal/trace"
)

// ShardSetup describes an LBA-sharded stack: the volume is partitioned
// into Shards contiguous block-aligned ranges, each served by an
// independent pipeline instance — its own sim.Engine, backend, allocator,
// mapping, and stages — run concurrently on OS goroutines, replaying a
// trace (NewSharded) or serving live traffic (ServeSetup embeds this).
// The factories run once per shard so no mutable state is shared.
type ShardSetup struct {
	// Shards is the partition width (>= 1).
	Shards int
	// VolumeBytes is the full logical volume being partitioned.
	VolumeBytes int64
	// Backend builds one shard's private backend on its private engine.
	Backend func(eng *sim.Engine) (*Backend, error)
	// Options builds one shard's Options. It must return fresh
	// per-shard state for every call (Data generator, Estimator, Policy)
	// — sharing any of them across shards races. Replay overwrites
	// Options.Meter with the read-only IntensitySnapshot every shard
	// queries for the global workload signal; serve has no trace to
	// derive one from, so each shard's monitor measures its own slice
	// of the traffic unless the factory sets a Meter.
	Options func(shard int) (Options, error)
	// Obs observes the merged run: each shard gets a private buffering
	// child collector (Options.Obs is overwritten), and after the shards
	// join their event streams merge deterministically by (virtual time,
	// shard, sequence) into this parent. Nil disables observability.
	Obs *obs.Collector
}

// partition is a volume cut into contiguous block-aligned LBA ranges:
// shard i serves [bounds[i], bounds[i+1]).
type partition struct {
	vol    int64
	bounds []int64 // ascending, bounds[0] = 0, bounds[len-1] = vol
}

// partition validates the setup and cuts the block-aligned volume into
// Shards balanced ranges.
func (s *ShardSetup) partition() (partition, error) {
	if s.Shards < 1 {
		return partition{}, errors.New("core: shards must be >= 1")
	}
	if s.Backend == nil || s.Options == nil {
		return partition{}, errors.New("core: shard setup needs Backend and Options factories")
	}
	vol := s.VolumeBytes &^ (BlockSize - 1)
	if vol <= 0 {
		return partition{}, errors.New("core: volume smaller than one block")
	}
	if nBlocks := vol / BlockSize; int64(s.Shards) > nBlocks {
		return partition{}, fmt.Errorf("core: %d shards exceed %d volume blocks", s.Shards, nBlocks)
	}
	return partition{vol: vol, bounds: shardBounds(vol, s.Shards)}, nil
}

// shardBounds splits vol into n block-aligned ranges covering the whole
// volume with no overlap: the first vol/BlockSize mod n shards get one
// extra block.
func shardBounds(vol int64, n int) []int64 {
	nBlocks := vol / BlockSize
	per, rem := nBlocks/int64(n), nBlocks%int64(n)
	bounds := make([]int64, n+1)
	for i := 0; i < n; i++ {
		blocks := per
		if int64(i) < rem {
			blocks++
		}
		bounds[i+1] = bounds[i] + blocks*BlockSize
	}
	return bounds
}

// shards returns the partition width.
func (p partition) shards() int { return len(p.bounds) - 1 }

// width returns the size of shard i's range in bytes.
func (p partition) width(i int) int64 { return p.bounds[i+1] - p.bounds[i] }

// index returns the shard whose range contains byte offset off.
func (p partition) index(off int64) int {
	lo, hi := 0, len(p.bounds)-2
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if p.bounds[mid] <= off {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// next cuts the first piece off the aligned range [off, off+n): the
// shard serving off, the piece's shard-local offset, and its length,
// which stops at that shard's upper bound. Callers advance by size until
// n is zero.
func (p partition) next(off, n int64) (shard int, local, size int64) {
	shard = p.index(off)
	size = p.bounds[shard+1] - off
	if size > n {
		size = n
	}
	return shard, off - p.bounds[shard], size
}

// BuildDevice stamps out one private pipeline over vol bytes, reporting
// to col: a fresh engine and backend, and a Device configured by opts
// (from the Options factory) — restored from cs when the run resumes
// after a power cut. Every pipeline of every mode is built here. Each of
// the Shards pipelines enforces 1/Shards of every tenant's bandwidth
// schedule, so the aggregate rate matches the configured one.
func (s *ShardSetup) BuildDevice(vol int64, opts Options, col *obs.Collector, cs *CrashState) (*Device, error) {
	opts.Obs = col
	opts.qosShare = s.Shards
	eng := sim.NewEngine()
	be, err := s.Backend(eng)
	if err != nil {
		return nil, err
	}
	if cs != nil {
		return RecoverDevice(eng, be, vol, opts, cs)
	}
	return NewDevice(eng, be, vol, opts)
}

// ShardedDevice routes requests to LBA-range shards and replays them in
// parallel. Single-shard replay should use Device directly: the sharded
// path has different (though deterministic) semantics — per-shard
// closed-loop bounds, shard-local SD merge, and a trace-derived global
// intensity signal.
type ShardedDevice struct {
	setup  ShardSetup
	part   partition
	played bool
}

// NewSharded validates the setup and computes the LBA partition.
func NewSharded(setup ShardSetup) (*ShardedDevice, error) {
	part, err := setup.partition()
	if err != nil {
		return nil, err
	}
	return &ShardedDevice{setup: setup, part: part}, nil
}

// split routes t across the shards: each request is aligned against the
// full volume (exactly as an unsharded device would), cut at shard
// boundaries, and rebased into shard-local offsets. Order within a shard
// is trace order, so per-shard replay stays deterministic; Play hands in
// a trace sorted by arrival.
func (s *ShardedDevice) split(t *trace.Trace) []*trace.Trace {
	subs := make([]*trace.Trace, s.part.shards())
	for i := range subs {
		subs[i] = &trace.Trace{Name: t.Name}
	}
	for _, r := range t.Requests {
		off, size := alignRequest(s.part.vol, r)
		for size > 0 {
			i, local, n := s.part.next(off, size)
			subs[i].Requests = append(subs[i].Requests, trace.Request{
				Arrival: r.Arrival,
				Offset:  local,
				Size:    n,
				Write:   r.Write,
				Tenant:  r.Tenant,
			})
			off += n
			size -= n
		}
	}
	return subs
}

// Play replays t across all shards concurrently and returns the merged
// statistics. Each shard's replay is an independent virtual-time
// simulation; the merge folds shard results in shard order, so the
// output is deterministic for a fixed shard count.
func (s *ShardedDevice) Play(t *trace.Trace) (*RunStats, error) {
	if s.played {
		return nil, ErrReplayed
	}
	s.played = true
	// One stably sorted copy of an unsorted trace, as the frontend streams
	// one: the snapshot and the shards' slices all read it.
	t = &trace.Trace{Name: t.Name, Requests: byArrival(t.Requests)}

	// The shared global workload signal: every shard selects codecs
	// against the same trace-wide intensity, not its own slice of it.
	snap := NewIntensitySnapshot(t, s.part.vol)

	n := s.part.shards()
	devs := make([]*Device, n)
	kids := make([]*obs.Collector, n)
	for i := range devs {
		opts, err := s.setup.Options(i)
		if err != nil {
			return nil, err
		}
		opts.Meter = snap
		kids[i] = s.setup.Obs.Child(i) // buffers: the streams merge after the join
		if devs[i], err = s.setup.BuildDevice(s.part.width(i), opts, kids[i], nil); err != nil {
			return nil, fmt.Errorf("core: shard %d: %w", i, err)
		}
	}
	subs := s.split(t)

	// One goroutine per shard drives its event loop; the codec work they
	// dispatch shares the process-wide pool. Each goroutine is handed its
	// device and nothing here touches devs again, so a shard that finishes
	// early is collected while the others still run.
	parts := make([]*RunStats, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := range devs {
		go func(i int, d *Device, sub *trace.Trace) {
			defer wg.Done()
			parts[i], errs[i] = d.Play(sub)
		}(i, devs[i], subs[i])
	}
	wg.Wait()
	return s.setup.merge(kids, parts, errs, "")
}

// merge folds the shards' finished runs into one RunStats in shard
// order, so the result is deterministic, and reports the lowest-numbered
// shard's error. mode prefixes the backend description.
func (s *ShardSetup) merge(kids []*obs.Collector, parts []*RunStats, errs []error, mode string) (*RunStats, error) {
	s.Obs.Absorb(kids)
	merged := MergeRunStats(parts)
	merged.Obs = s.Obs.Report()
	merged.Backend = fmt.Sprintf("%s%d-shard [%s]", mode, len(parts), parts[0].Backend)
	var firstErr error
	for i, err := range errs {
		if err != nil {
			firstErr = fmt.Errorf("core: shard %d: %w", i, err)
			break
		}
	}
	if merged.Err == nil {
		merged.Err = firstErr
	}
	return merged, firstErr
}
