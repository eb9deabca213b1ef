package core

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"edc/internal/cache"
	"edc/internal/compress"
	"edc/internal/datagen"
	"edc/internal/dedup"
	"edc/internal/fault"
	"edc/internal/maint"
	"edc/internal/obs"
	"edc/internal/parallel"
	"edc/internal/qos"
	"edc/internal/sim"
	"edc/internal/trace"
)

// Options configures a Device. Zero fields take documented defaults.
type Options struct {
	// Policy selects the compression scheme (default: DefaultElastic).
	Policy Policy
	// Meter overrides the local dual-window workload monitor with an
	// external intensity source. Sharded replay injects a shared
	// read-only IntensitySnapshot here so every shard sees the same
	// global signal. Nil keeps the local monitors.
	Meter WorkloadMeter
	// Data generates write payload content (default: datagen.Enterprise
	// profile, seed 1).
	Data *datagen.Generator
	// VerifyReads keeps a copy of every compressed payload and checks
	// that every read of one decompresses to the original content (tests
	// only: memory-hungry). Raw extents are neither kept nor checked.
	VerifyReads bool
	// DisableSD turns off write merging (ablation).
	DisableSD bool
	// ExactSlots disables the 25/50/75/100 % slot quantization and
	// allocates compressed runs at their exact size (ablation: shows the
	// fragmentation/relocation cost quantization avoids, Sec. III-C).
	ExactSlots bool
	// ReplayWorkers selects where *real* codec work runs: any n > 1
	// queues it on the process-wide pool (parallel.Shared: GOMAXPROCS
	// workers, whatever n is), concurrent with the event loop; 1 or less
	// than 0 runs it inline. Wall-clock only: virtual codec time is always
	// charged to the one host CPU station, and compressed output is a pure
	// function of (content, codec), so results are bit-identical for any
	// setting. Default runtime.GOMAXPROCS(0).
	ReplayWorkers int
	// CacheBytes enables a host DRAM read cache of the given size
	// (0 disables). Hits skip both the device read and decompression.
	CacheBytes int64
	// Obs receives one event per pipeline decision plus counters and
	// optional time series (see internal/obs). Nil disables observability
	// entirely; the nil path is bit-identical to an uninstrumented
	// replay — collectors are strict observers and never feed back into
	// the simulation.
	Obs *obs.Collector
	// Faults attaches a deterministic fault plan: every backend device
	// operation consults a seeded per-device injector, and the pipeline
	// recovers (retry, re-allocate, degraded read). Nil injects nothing
	// and the replay is bit-identical to an un-instrumented build.
	Faults *fault.Plan
	// SnapshotEvery, when positive, checkpoints the mapping (snapshot +
	// journal reset) every interval of virtual time, bounding how much
	// journal a crash recovery replays. Zero disables checkpointing; the
	// journal then covers the whole run.
	SnapshotEvery time.Duration
	// Maint enables temperature-aware background maintenance (see
	// maintenance.go): idle-window recompression of cold extents,
	// demotion of hot ones, and allocator compaction. Nil runs no
	// maintenance and the replay is bit-identical to a build without the
	// maintenance seam.
	Maint *maint.Config
	// QoS attaches the multi-tenant policy (per-tenant classes,
	// bandwidth shaping, priority admission; see internal/qos). Nil
	// disables QoS and the pipeline is bit-identical to a pre-QoS
	// build; untagged requests are unaffected either way.
	QoS *qos.Config
	// Dedup enables content-addressed deduplication under the mapping
	// table (see writepath.go/engine.go): each merged run is
	// fingerprinted before compression, and a run whose content is
	// already stored maps onto the existing extent instead of storing a
	// second copy. Nil builds no content index and the replay is
	// bit-identical to a build without the dedup seam.
	Dedup *dedup.Config

	// qosShare divides each tenant's bandwidth schedule across sharded
	// pipelines: with n shards each enforcing rate/n, the aggregate
	// stays at the configured rate. ShardSetup.BuildDevice sets it to
	// the shard count; 0 or 1 keeps the full rate.
	qosShare int
}

// CacheHitLatency is the DRAM service time for a fully cached read.
const CacheHitLatency = 10 * time.Microsecond

// DefaultMaxOutstanding bounds host requests in flight (closed-loop
// replay: arrivals beyond the bound are admitted as earlier requests
// complete, as a real block layer's bounded queue does).
const DefaultMaxOutstanding = 64

// DefaultFlushTimeout bounds how long a pending SD run may wait for a
// contiguous successor before it is compressed anyway. It is short
// relative to burst inter-arrival gaps so the merge wait does not
// dominate write response time.
const DefaultFlushTimeout = 300 * time.Microsecond

// Device is the EDC block device: the paper's three modules — Workload
// Monitor, Compression/Decompression Engine, Request Distributer — wired
// between a trace replay source and a simulated flash backend (Fig. 4).
// Since the pipeline decomposition it is pure wiring: the frontend
// admits requests under the closed-loop bound, the write path runs
// SD merge → estimate → policy → codec → store, the read path runs
// lookup → device read → decompress → verify, and the store engine owns
// allocator + mapping + backend. Each stage lives in its own file and is
// unit-testable in isolation.
type Device struct {
	eng *sim.Engine
	cpu *sim.Station

	fs *failState
	fe *frontend
	wp *writePath
	rp *readPath
	se *storeEngine

	obs *obs.Collector

	replayWorkers int
	sharedPool    *parallel.SharedPool // the pool open queues on; nil is parallel.Shared() (tests set a private one)
	played        bool
	stats         *RunStats

	// Crash-recovery configuration (see recovery.go).
	faults    *fault.Plan
	snapEvery time.Duration
	per       *persister
	ckpt      *sim.Timer // the checkpoint timer; nil without snapEvery

	// mnt drives background recompression/compaction; nil when
	// maintenance is off (see maintenance.go).
	mnt *maintainer
}

// NewDevice builds an EDC device over backend be exposing volumeBytes of
// logical space. volumeBytes must fit the backend.
func NewDevice(eng *sim.Engine, be *Backend, volumeBytes int64, opts Options) (*Device, error) {
	if volumeBytes <= 0 {
		return nil, errors.New("core: volumeBytes must be positive")
	}
	if volumeBytes > be.LogicalBytes() {
		return nil, fmt.Errorf("core: volume %d exceeds backend capacity %d",
			volumeBytes, be.LogicalBytes())
	}
	if opts.Policy == nil {
		p, err := DefaultElastic(compress.Default())
		if err != nil {
			return nil, err
		}
		opts.Policy = p
	}
	if opts.Meter == nil {
		opts.Meter = newMonitor()
	}
	if opts.Data == nil {
		opts.Data = datagen.New(datagen.Enterprise(), 1)
	}
	cpu := sim.NewStation(eng, "cpu")
	switch {
	case opts.ReplayWorkers == 0:
		opts.ReplayWorkers = runtime.GOMAXPROCS(0)
	case opts.ReplayWorkers < 0:
		opts.ReplayWorkers = 1 // sequential inline execution
	}
	volBytes := volumeBytes &^ (BlockSize - 1)
	if volBytes == 0 {
		return nil, errors.New("core: volume smaller than one block")
	}

	fs := &failState{}
	se := newStoreEngine(be, volBytes, opts.VerifyReads)
	se.obs = opts.Obs
	se.now = eng.Now
	se.exactSlots = opts.ExactSlots
	// Heat epochs tick at the same length whether or not maintenance is
	// on: heat is write-only on the foreground paths, so the disabled
	// run is unchanged, and tests can inspect temperature either way.
	maintCfg := maint.Config{}.Normalize()
	if opts.Maint != nil {
		if err := opts.Maint.Validate(); err != nil {
			return nil, err
		}
		maintCfg = opts.Maint.Normalize()
	}
	se.epochLen = maintCfg.EpochLen
	if opts.Dedup != nil {
		se.dedup = make(map[dedup.Sum]*Extent)
		se.dedupMax = dedup.DefaultMaxEntries
		// Frees become deferred: the write path flushes them at each
		// mutation's durable point so journal order stays replayable.
		se.mapping.deferFrees = true
	}
	var qs *qosState
	if opts.QoS != nil {
		if err := opts.QoS.Validate(); err != nil {
			return nil, err
		}
		var err error
		qs, err = newQoSState(opts.QoS, opts.qosShare, newMonitor)
		if err != nil {
			return nil, err
		}
	}
	hostCache := cache.New(opts.CacheBytes)
	stats := newRunStats(opts.Policy.Name(), "", be.Describe())
	if opts.Faults != nil {
		if err := opts.Faults.Validate(); err != nil {
			return nil, err
		}
		if opts.Faults.Active() {
			be.injectFaults(opts.Faults, opts.Obs, stats)
		}
	}

	wp := &writePath{
		eng:       eng,
		cpu:       cpu,
		fs:        fs,
		stats:     stats,
		se:        se,
		meter:     opts.Meter,
		obs:       opts.Obs,
		qs:        qs,
		sd:        NewSeqDetector(DefaultMaxRun),
		est:       NewEstimator(),
		data:      opts.Data,
		policy:    opts.Policy,
		hostCache: hostCache,
		disableSD: opts.DisableSD,
		flushWait: DefaultFlushTimeout,
	}
	_, ratioAware := opts.Policy.(RatioAware)
	wp.rawOK = se.dedup == nil && !opts.VerifyReads && opts.Obs == nil && !ratioAware
	wp.raw = rawEstimates{stats: stats, se: se, data: opts.Data, est: wp.est}
	rp := &readPath{
		eng:       eng,
		cpu:       cpu,
		fs:        fs,
		stats:     stats,
		se:        se,
		reg:       compress.Default(),
		data:      opts.Data,
		obs:       opts.Obs,
		hostCache: hostCache,
		verify:    opts.VerifyReads,
	}
	fe := &frontend{
		eng:         eng,
		fs:          fs,
		stats:       stats,
		meter:       opts.Meter,
		obs:         opts.Obs,
		qs:          qs,
		volBytes:    volBytes,
		maxInFlight: DefaultMaxOutstanding,
	}
	// Stage wiring: admission fans out to the write/read paths; both
	// report completions back to the frontend's closed loop.
	fe.onWrite = wp.admitWrite
	wp.upcoming = fe.upcoming
	fe.onRead = func(issue time.Duration, off, size int64, done func(time.Duration)) {
		wp.noteRead() // a read breaks write contiguity (Fig. 7)
		rp.read(issue, off, size, done)
	}
	wp.complete = func(resp time.Duration) { fe.finish(resp, true) }
	wp.drop = fe.drop
	rp.complete = func(resp time.Duration) { fe.finish(resp, false) }
	rp.drop = fe.drop

	d := &Device{
		eng:           eng,
		cpu:           cpu,
		fs:            fs,
		fe:            fe,
		wp:            wp,
		rp:            rp,
		se:            se,
		obs:           opts.Obs,
		replayWorkers: opts.ReplayWorkers,
		stats:         stats,
		faults:        opts.Faults,
		snapEvery:     opts.SnapshotEvery,
	}
	if opts.Maint != nil {
		d.mnt = newMaintainer(d, maintCfg)
	}
	return d, nil
}

// ErrReplayed reports a second Play on a single-use Device (or System).
var ErrReplayed = errors.New("core: device already played a trace")

// open starts the device's one run (a second is ErrReplayed), whichever
// driver owns it — Play, PlayUntil, a serve shard's loop: persistence
// armed if configured or if journal forces it, one pool queue for the
// write and the read path with the lag rings (lag.go) sized to it,
// background timers armed.
func (d *Device) open(journal bool) error {
	if d.played {
		return ErrReplayed
	}
	d.played = true
	if err := d.armPersistence(journal); err != nil {
		return err
	}
	depth := 0 // without a pool, each lagged result settles as it is parked
	if d.replayWorkers > 1 {
		if d.sharedPool == nil {
			d.sharedPool = parallel.Shared()
		}
		d.se.pool = d.sharedPool.NewQueue()
		depth = d.se.pool.Cap()
	}
	d.rp.lag = newLagRing(depth, d.rp.settleVerify)
	d.wp.raw.lag = newLagRing(depth, d.wp.raw.settle)
	d.armTimers()
	return nil
}

// armTimers schedules the next checkpoint and maintenance tick unless
// queued already or switched off. Serve re-arms on every ingested batch:
// a timer that fires with nothing else pending disarms itself, and the
// heap empties between batches.
func (d *Device) armTimers() {
	d.ckpt.Arm()
	if d.mnt != nil {
		d.mnt.timer.Arm()
	}
}

// close ends the run open started: it joins the read path's parked
// verifications (the last place a mismatch can fail the run), cancels
// the write path's lookahead, settles its lagged write-through verdicts,
// snapshots end-of-run state into stats, and releases the pool queue.
func (d *Device) close() {
	d.rp.lag.drain()
	d.wp.la.cancelFrom(0, d.se)
	d.wp.raw.drain()
	s := d.stats
	s.LiveBlocks = d.se.mapping.LiveBlocks()
	s.LiveSlotBytes = d.se.alloc.InUse()
	s.PeakSlotBytes = d.se.alloc.PeakUse()
	s.DeadSlotBytes = d.se.mapping.DeadSlotBytes()
	s.AllocClasses = d.se.alloc.classCount()
	s.SDMerged = d.wp.sd.Merged()
	s.CPU = d.cpu.Stats()
	s.Cache = d.wp.hostCache.Stats()
	s.Devices = d.se.be.DeviceStats()
	s.Queues = d.se.be.QueueStats()
	s.Duration = d.eng.Now()
	if d.mnt != nil {
		s.HeatHist = d.heatHistogram()
	}
	s.Obs = d.obs.Report()
	if s.Err == nil {
		s.Err = d.fs.err
	}
	if q := d.se.pool; q != nil {
		q.Close()
		d.se.pool = nil
	}
}

// Play replays t to completion and returns the collected statistics.
// The device is single-use: create a fresh Device per run.
func (d *Device) Play(t *trace.Trace) (*RunStats, error) {
	if err := d.open(false); err != nil {
		return nil, err
	}
	d.stats.Trace = t.Name
	d.fe.start(t)
	d.eng.Run()
	d.wp.drain()
	if d.fe.inFlight != 0 && d.fs.err == nil {
		d.fs.err = fmt.Errorf("core: %d requests never completed", d.fe.inFlight)
	}
	d.close()
	return d.stats, d.fs.err
}
