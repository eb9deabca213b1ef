package edc

import (
	"fmt"
	"time"

	"edc/internal/core"
	"edc/internal/datagen"
	"edc/internal/dedup"
	"edc/internal/fault"
	"edc/internal/maint"
	"edc/internal/obs"
	"edc/internal/qos"
	"edc/internal/ssd"
)

// QoSConfig configures multi-tenant quality of service (see
// internal/qos): a tenant table mapping names to traffic classes,
// rclone-style time-of-day bandwidth schedules, and per-tenant queue
// bounds, plus the Strict and Isolate global knobs. Attach one with
// WithQoS or Config.QoS; nil keeps QoS off and untagged runs
// bit-identical to earlier releases.
type QoSConfig = qos.Config

// QoSTenant is one tenant's treatment in a QoSConfig.
type QoSTenant = qos.Tenant

// QoSClass is a tenant's traffic class (standard, latency, bulk).
type QoSClass = qos.Class

// The three traffic classes, re-exported for QoSConfig literals.
const (
	// ClassStandard is the default best-effort class.
	ClassStandard = qos.ClassStandard
	// ClassLatency preempts the deferred FIFO under saturation.
	ClassLatency = qos.ClassLatency
	// ClassBulk drains only after standard and latency queues.
	ClassBulk = qos.ClassBulk
)

// Dedup configures content-addressed deduplication (see internal/dedup):
// every flushed write run is fingerprinted after SD merging and before
// compression, and a run whose fingerprint matches an already-stored
// extent maps to it by reference instead of compressing and allocating a
// new slot. Zero-valued fields take documented defaults. Attach one with
// WithDedup or Config.Dedup; nil (or Enabled=false) keeps dedup off and
// the replay bit-identical to earlier releases.
type Dedup = dedup.Config

// Maintenance configures temperature-aware background maintenance (see
// internal/maint): during idle windows the device recompresses cold
// lzf/uncompressed extents with a heavier codec, demotes hot gz/bwz
// extents to a cheap codec, and compacts fragmented slot free lists.
// Zero-valued fields take documented defaults. Attach one with
// WithMaintenance or Config.Maintenance; nil (or Enabled=false) keeps
// maintenance off and the replay bit-identical to earlier releases.
type Maintenance = maint.Config

// ResplitConfig tunes serve mode's heat-balanced shard repartitioning
// (see internal/core): a shard whose admitted-op share stays above its
// fair share for several evaluation windows splits its LBA range at a
// quiesced, heat-balanced boundary into two independent event loops.
// Zero-valued fields take documented defaults. Attach one with
// WithResplit or Config.Resplit; nil (or Enabled=false) keeps the shard
// map fixed. Splits are triggered by real-time traffic imbalance, so a
// resplit-enabled run is not byte-deterministic across machines.
type ResplitConfig = core.ResplitConfig

// FaultPlan is a seeded, virtual-time fault schedule (see
// internal/fault): per-operation read/write error probabilities
// (transient and hard), latency spikes, whole-device stall windows, and
// an optional power cut. Attach one with WithFaults or Config.Faults;
// parse one from JSON with ParseFaultPlan.
type FaultPlan = fault.Plan

// FaultStall is one whole-device outage window in a FaultPlan.
type FaultStall = fault.Stall

// ParseFaultPlan decodes and validates a JSON fault plan (the format
// edcbench -faults accepts; durations may be nanosecond numbers or Go
// duration strings like "250ms").
func ParseFaultPlan(s string) (*FaultPlan, error) { return fault.ParsePlan(s) }

// Config is the plain-struct form of the facade's functional options:
// every Option writes one field here, and NewSystemFromConfig consumes
// a Config directly — build one literally, or start from
// DefaultConfig() and adjust. The zero value of any field means "use
// the default" exactly as the corresponding Option's absence does.
type Config struct {
	// Scheme selects the compression scheme (default SchemeEDC).
	Scheme Scheme
	// GzCeiling / LzfCeiling are EDC's calculated-IOPS thresholds:
	// Gzip below GzCeiling, Lzf up to LzfCeiling, none above (Fig. 12).
	// Zero keeps the calibrated defaults.
	GzCeiling  float64
	LzfCeiling float64

	// Backend selects the storage organization; Devices the array size
	// (0 → 1 for SingleSSD, 5 for RAIS).
	Backend BackendKind
	Devices int
	// SSD parameterizes the simulated devices (zero value → the
	// X25-E-class DefaultSSDConfig).
	SSD SSDConfig
	// StripeUnitPages is the RAIS stripe unit in pages (0 → 16).
	StripeUnitPages int

	// Data selects the synthetic payload model (zero value →
	// enterprise) generated with DataSeed (0 → 1).
	Data     DataProfile
	DataSeed int64
	// Cost overrides the CPU cost model (nil → calibrated default).
	Cost CostModel

	// Verify stores payloads and checks every read round-trips
	// (memory-hungry; tests and demos).
	Verify bool
	// DisableSD turns off write merging (ablation).
	DisableSD bool
	// ExactSlots disables the 25/50/75/100 % slot quantization
	// (ablation).
	ExactSlots bool
	// DisableEstimator turns off compressibility sampling (ablation).
	DisableEstimator bool
	// MaxRun caps SD merging in bytes (0 → default).
	MaxRun int64
	// FlushTimeout bounds SD buffering delay (0 → default; negative
	// disables the timer).
	FlushTimeout time.Duration

	// CPUWorkers models a multicore host: parallel compression workers
	// in virtual time (0 → 1, the paper's single-threaded prototype).
	CPUWorkers int
	// ReplayWorkers is the number of OS goroutines executing real codec
	// work concurrently with the event loop; affects wall-clock speed
	// only (0 → GOMAXPROCS).
	ReplayWorkers int
	// Shards partitions the volume into n independent pipelines
	// replayed concurrently (<= 1 keeps the single pipeline).
	Shards int

	// CacheBytes enables a host DRAM read cache (0 disables).
	CacheBytes int64
	// Offload moves (de)compression into the device controller.
	Offload bool

	// Tracer streams one TraceEvent per pipeline decision.
	Tracer Tracer
	// TimeSeriesEvery samples IOPS/codec-mix/occupancy into bins of the
	// given width (0 disables).
	TimeSeriesEvery time.Duration

	// ServeMailbox bounds each shard's serve-mode submission mailbox:
	// when a shard's event loop falls behind, submitters block on the
	// full mailbox instead of growing an unbounded queue (0 → 256).
	ServeMailbox int
	// ServeBatch caps how many submissions one serve-mode event-loop
	// wakeup drains before running the engine (0 → 64).
	ServeBatch int
	// Resplit enables serve mode's heat-balanced shard repartitioning;
	// nil (or Enabled=false) keeps the shard map fixed. Incompatible
	// with Verify, Dedup, and QoS (see WithResplit).
	Resplit *ResplitConfig
	// PacedServe keeps each serve-mode shard's virtual clock at or
	// below the highest arrival stamp it has admitted — determinism for
	// stamp-ordered submitters; see WithPacedServe. Incompatible with
	// Resplit and with the synchronous Read/Write wrappers.
	PacedServe bool

	// Maintenance enables temperature-aware background recompression
	// and slot compaction; nil (or Enabled=false) runs no maintenance
	// and the replay is bit-identical to a maintenance-free run.
	Maintenance *Maintenance

	// Dedup enables content-addressed deduplication of flushed write
	// runs; nil (or Enabled=false) keeps dedup off and the replay
	// bit-identical to a dedup-free run.
	Dedup *Dedup

	// QoS enables multi-tenant quality of service: per-tenant classes,
	// bandwidth shaping, priority admission, and (with Isolate) per-
	// tenant intensity windows for codec selection. Nil keeps QoS off;
	// untagged requests behave identically either way.
	QoS *QoSConfig

	// Faults attaches a deterministic fault plan; nil injects nothing
	// and the replay is bit-identical to a plan-free run.
	Faults *FaultPlan
	// SnapshotEvery checkpoints the mapping (snapshot + journal reset)
	// at this virtual-time interval, bounding crash-recovery replay
	// work. Zero disables periodic checkpoints; a power-cut run then
	// recovers from one journal covering the whole run.
	SnapshotEvery time.Duration
}

// DefaultConfig returns the configuration NewSystem uses before options
// apply: SchemeEDC over one default SSD with enterprise data.
func DefaultConfig() Config {
	return Config{
		Scheme:          SchemeEDC,
		GzCeiling:       core.DefaultGzCeiling,
		LzfCeiling:      core.DefaultLzfCeiling,
		Backend:         SingleSSD,
		Devices:         1,
		SSD:             ssd.DefaultConfig(),
		Data:            datagen.Enterprise(),
		DataSeed:        1,
		StripeUnitPages: 16,
	}
}

// normalize fills zero-valued fields with their documented defaults, so
// a literally-constructed Config behaves like DefaultConfig plus the
// fields the caller set.
func (c *Config) normalize() {
	if c.Scheme == "" {
		c.Scheme = SchemeEDC
	}
	if c.GzCeiling == 0 {
		c.GzCeiling = core.DefaultGzCeiling
	}
	if c.LzfCeiling == 0 {
		c.LzfCeiling = core.DefaultLzfCeiling
	}
	if c.Devices == 0 && c.Backend == SingleSSD {
		c.Devices = 1
	}
	if c.SSD == (ssd.Config{}) {
		c.SSD = ssd.DefaultConfig()
	}
	if len(c.Data.Mixture) == 0 {
		c.Data = datagen.Enterprise()
	}
	if c.DataSeed == 0 {
		c.DataSeed = 1
	}
	if c.StripeUnitPages == 0 {
		c.StripeUnitPages = 16
	}
}

// Validate checks the configuration's internal consistency without
// building anything. NewSystemFromConfig calls it; call it directly to
// vet a config before an expensive sweep.
func (c *Config) Validate() error {
	switch c.Scheme {
	case SchemeNative, SchemeLzf, SchemeLz4, SchemeGzip, SchemeBzip2, SchemeEDC, SchemeEDCPlus:
	default:
		return fmt.Errorf("%w %q", ErrUnknownScheme, c.Scheme)
	}
	switch c.Backend {
	case SingleSSD, RAIS0, RAIS5:
	default:
		return fmt.Errorf("%w %d", ErrUnknownBackend, c.Backend)
	}
	if c.Devices < 0 {
		return fmt.Errorf("edc: negative device count %d", c.Devices)
	}
	if c.GzCeiling < 0 || c.LzfCeiling < 0 || c.GzCeiling > c.LzfCeiling {
		return fmt.Errorf("edc: elastic thresholds gz=%g lzf=%g invalid (need 0 <= gz <= lzf)",
			c.GzCeiling, c.LzfCeiling)
	}
	if c.StripeUnitPages < 0 {
		return fmt.Errorf("edc: negative stripe unit %d", c.StripeUnitPages)
	}
	if c.MaxRun < 0 {
		return fmt.Errorf("edc: negative max run %d", c.MaxRun)
	}
	if c.CacheBytes < 0 {
		return fmt.Errorf("edc: negative cache size %d", c.CacheBytes)
	}
	if c.SnapshotEvery < 0 {
		return fmt.Errorf("edc: negative snapshot interval %v", c.SnapshotEvery)
	}
	if c.ServeMailbox < 0 || c.ServeBatch < 0 {
		return fmt.Errorf("edc: negative serve queue bounds mailbox=%d batch=%d",
			c.ServeMailbox, c.ServeBatch)
	}
	if c.Maintenance != nil && c.Maintenance.Enabled {
		if err := c.Maintenance.Validate(); err != nil {
			return err
		}
	}
	if c.Dedup != nil && c.Dedup.Enabled {
		if err := c.Dedup.Validate(); err != nil {
			return err
		}
	}
	if err := c.QoS.Validate(); err != nil {
		return err
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	if c.Faults != nil && c.Faults.PowerCutAt > 0 && c.Shards > 1 {
		return fmt.Errorf("edc: power-cut recovery is not supported with WithShards(%d): shards crash and recover independently of each other", c.Shards)
	}
	// Serve's own refusals (power cut, flushless SD) wait for Serve: a
	// Config does not say which way its System will be driven.
	feat := core.Options{Dedup: c.Dedup, VerifyReads: c.Verify, QoS: c.QoS}
	if err := core.Incompatible(&feat, false, c.Resplit != nil && c.Resplit.Enabled, c.PacedServe); err != nil {
		return fmt.Errorf("edc: %w", err)
	}
	return nil
}

// Option customizes a System by writing one Config field. Every Option
// has a corresponding exported field, so functional and struct
// configuration cannot drift apart.
type Option func(*Config)

// WithScheme selects the compression scheme (default SchemeEDC).
func WithScheme(s Scheme) Option { return func(c *Config) { c.Scheme = s } }

// WithElasticThresholds overrides EDC's calculated-IOPS ceilings: Gzip
// below gzMax, Lzf between gzMax and lzfMax, none above (Fig. 12 sweeps
// gzMax).
func WithElasticThresholds(gzMax, lzfMax float64) Option {
	return func(c *Config) { c.GzCeiling, c.LzfCeiling = gzMax, lzfMax }
}

// WithBackend selects the storage organization and device count.
func WithBackend(kind BackendKind, devices int) Option {
	return func(c *Config) { c.Backend, c.Devices = kind, devices }
}

// WithSSDConfig overrides the simulated device parameters.
func WithSSDConfig(cfg SSDConfig) Option { return func(c *Config) { c.SSD = cfg } }

// WithDataProfile selects the synthetic payload model and its seed.
func WithDataProfile(p DataProfile, seed int64) Option {
	return func(c *Config) { c.Data, c.DataSeed = p, seed }
}

// WithCostModel overrides the CPU cost model.
func WithCostModel(cm CostModel) Option { return func(c *Config) { c.Cost = cm } }

// WithVerify stores payloads and checks every read round-trips
// (memory-hungry; tests and demos).
func WithVerify() Option { return func(c *Config) { c.Verify = true } }

// WithoutSD disables write merging (ablation).
func WithoutSD() Option { return func(c *Config) { c.DisableSD = true } }

// WithExactSlots disables the 25/50/75/100 % slot quantization
// (ablation).
func WithExactSlots() Option { return func(c *Config) { c.ExactSlots = true } }

// WithoutEstimator disables EDC's compressibility sampling (ablation:
// compress everything the intensity ladder selects).
func WithoutEstimator() Option { return func(c *Config) { c.DisableEstimator = true } }

// WithMaxRun caps SD merging in bytes.
func WithMaxRun(bytes int64) Option { return func(c *Config) { c.MaxRun = bytes } }

// WithCPUWorkers models a multicore host: n parallel compression
// workers (default 1, the paper's single-threaded prototype).
func WithCPUWorkers(n int) Option { return func(c *Config) { c.CPUWorkers = n } }

// WithReplayWorkers sets how many OS goroutines execute real codec work
// concurrently with the virtual-time event loop (the replay pipeline).
// This changes only wall-clock replay speed: compressed output is a pure
// function of (content, codec), so results are bit-identical for any
// setting. Default runtime.GOMAXPROCS(0); n <= 1 runs sequentially
// inline.
func WithReplayWorkers(n int) Option {
	return func(c *Config) {
		if n < 1 {
			n = 1
		}
		c.ReplayWorkers = n
	}
}

// WithShards partitions the volume into n contiguous LBA ranges, each
// served by an independent pipeline instance — its own virtual-time
// engine, backend device (or array), allocator, and mapping — replayed
// concurrently on OS goroutines. All shards read the same trace-derived
// global intensity signal, so codec selection matches the paper's
// whole-device feedback loop rather than fragmenting per shard. Results
// are deterministic for a fixed n; n <= 1 keeps the stock single
// pipeline. Sharding models an array of n EDC devices front-ending
// disjoint ranges: per-shard closed-loop bounds and shard-local SD merge
// make n > 1 a different (deterministic) system, not a faster identical
// one.
func WithShards(n int) Option { return func(c *Config) { c.Shards = n } }

// WithCache enables a host DRAM read cache of the given size (the upper
// DRAM buffer in the paper's Fig. 4 architecture).
func WithCache(bytes int64) Option { return func(c *Config) { c.CacheBytes = bytes } }

// WithOffload moves compression into the device controller, as
// FTL-integrated designs do (zFTL; hardware-assisted compression): the
// host CPU is free, but every compressed operation occupies the device's
// codec engine.
func WithOffload() Option { return func(c *Config) { c.Offload = true } }

// WithFlushTimeout bounds SD buffering delay (negative disables).
func WithFlushTimeout(d time.Duration) Option { return func(c *Config) { c.FlushTimeout = d } }

// WithStripeUnit sets the RAIS stripe unit in pages (default 16).
func WithStripeUnit(pages int) Option { return func(c *Config) { c.StripeUnitPages = pages } }

// WithTracer streams one TraceEvent per pipeline decision to t
// (admission, SD merge/flush, estimator verdict, codec choice, slot
// placement, cache lookup, decompression, and — under a fault plan —
// fault/retry/degraded-read/recover decisions). Tracers are strict
// observers: results are identical with and without one attached.
// Under WithShards the per-shard streams merge deterministically by
// (virtual time, shard, sequence) after the replay, so t sees a totally
// ordered stream but only once the run completes.
func WithTracer(t Tracer) Option { return func(c *Config) { c.Tracer = t } }

// WithTimeSeries samples calculated IOPS, codec mix, and slot occupancy
// into fixed-interval bins of the given width (Results.Obs.Series).
// Sampling is passive — values are recorded at existing decision points,
// never from added timer events — so it cannot perturb the replay.
// d <= 0 selects one second.
func WithTimeSeries(d time.Duration) Option {
	return func(c *Config) {
		if d <= 0 {
			d = time.Second
		}
		c.TimeSeriesEvery = d
	}
}

// WithServeQueue bounds serve mode's per-shard submission queue: mailbox
// is the channel capacity submitters block on when full (backpressure),
// batch caps how many submissions one event-loop wakeup drains before
// running the virtual-time engine. Zero keeps the defaults (256 / 64).
func WithServeQueue(mailbox, batch int) Option {
	return func(c *Config) { c.ServeMailbox, c.ServeBatch = mailbox, batch }
}

// WithMaintenance enables temperature-aware background maintenance with
// the given policy (zero-valued fields take documented defaults; the
// Enabled flag is set for the caller). During idle windows — calculated
// IOPS at or below m.IdleIOPS — the device recompresses cold
// lzf/uncompressed extents with m.ColdCodec, demotes hot gz/bwz extents
// to m.HotCodec, and compacts fragmented slot free lists. Maintenance
// runs in virtual time on the device's own engine, so results stay
// deterministic per seed, including under WithShards.
func WithMaintenance(m Maintenance) Option {
	return func(c *Config) {
		m.Enabled = true
		c.Maintenance = &m
	}
}

// WithDedup enables content-addressed deduplication with the given
// policy (zero-valued fields take documented defaults; the Enabled flag
// is set for the caller). Every flushed write run is fingerprinted with
// a keyed 128-bit hash after SD merging and before compression; a run
// matching an already-stored extent maps to it by reference — skipping
// estimation, compression, and slot allocation — and the extent is
// released only when its last reference goes away. Dedup runs inside
// each pipeline's event loop in virtual time, so results stay
// deterministic per seed, including under WithShards (each shard
// deduplicates its own LBA range with the same key).
func WithDedup(d Dedup) Option {
	return func(c *Config) {
		d.Enabled = true
		c.Dedup = &d
	}
}

// WithResplit enables serve mode's heat-balanced shard repartitioning
// with the given policy (zero-valued fields take documented defaults;
// the Enabled flag is set for the caller). When one shard's admitted-op
// share stays above Factor times the post-split fair share for Streak
// evaluation windows, its LBA range is split at a quiesced,
// heat-balanced boundary into two shards with independent event loops —
// extents beyond the boundary move to the new shard's device, and the
// router re-routes without ever dropping or reordering a submission.
// The trigger reacts to real-time traffic imbalance, so resplit-enabled
// runs are not byte-deterministic across machines; replay mode ignores
// the setting. Incompatible with WithVerify (expected read content is
// keyed by shard-local offsets, which a move rebases), WithDedup
// (shared references may span the boundary), and WithQoS (per-shard
// rate shares assume a fixed shard count).
func WithResplit(r ResplitConfig) Option {
	return func(c *Config) {
		r.Enabled = true
		c.Resplit = &r
	}
}

// WithPacedServe makes serve mode's virtual-time results deterministic
// for stamp-ordered submitters: each shard's engine runs only up to the
// highest arrival stamp it has admitted so far (a conservative
// watermark), so completions past the newest stamp wait for a later
// arrival — or StopServe's final drain — instead of letting the clock
// race ahead of arrivals still in flight. Without pacing, an engine
// that runs dry before the next submission lands clamps that arrival
// to wherever the clock happened to be, leaking real scheduling races
// (GOMAXPROCS, mailbox batching) into virtual latencies. The contract
// requires submitters to mail operations in globally non-decreasing
// stamp order through SubmitAt/SubmitAtTag and to await completions
// concurrently (internal/bench's serve driver does both); the
// synchronous Read/Write wrappers are refused — a caller blocked on
// its own completion can never send the later arrival that would
// release it. Incompatible with WithResplit, whose quiesce protocol
// must run the engine dry past the watermark.
func WithPacedServe() Option {
	return func(c *Config) { c.PacedServe = true }
}

// WithQoS enables multi-tenant quality of service with the given tenant
// table: requests tagged with a tenant (trace records, tagged serve
// calls, or a tenant=-annotated workload spec) are shaped by that
// tenant's time-of-day bandwidth schedule, admitted by traffic class
// under saturation, and — with q.Isolate — judged against the tenant's
// own calculated-IOPS window instead of the device-global signal.
// Untagged requests are unaffected, so attaching a config leaves an
// untagged run bit-identical.
func WithQoS(q QoSConfig) Option {
	return func(c *Config) { c.QoS = &q }
}

// WithFaults attaches a deterministic fault plan: every device
// operation consults a seeded per-device injector, and the pipeline
// recovers — bounded virtual-time retry for transient errors, RAIS5
// parity reconstruction for failed member reads, re-allocation to a
// fresh slot for hard write failures, and journal-based crash recovery
// for a planned power cut. Results are deterministic for a fixed plan
// seed; with p == nil the replay is bit-identical to a plan-free run.
func WithFaults(p *FaultPlan) Option { return func(c *Config) { c.Faults = p } }

// WithSnapshotEvery checkpoints the mapping at the given virtual-time
// interval (snapshot + journal reset), bounding how much journal a
// crash recovery must replay.
func WithSnapshotEvery(d time.Duration) Option { return func(c *Config) { c.SnapshotEvery = d } }

// collector builds the obs collector a config calls for, nil when
// observability is off.
func (c *Config) collector() *obs.Collector {
	if c.Tracer == nil && c.TimeSeriesEvery <= 0 {
		return nil
	}
	return obs.New(obs.Config{Tracer: c.Tracer, SeriesInterval: c.TimeSeriesEvery})
}
