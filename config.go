package edc

import (
	"cmp"
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
// WithQoS; without one QoS stays off and untagged runs bit-identical to
// earlier releases.
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

// Dedup switches on content-addressed deduplication (see
// internal/dedup): every flushed write run is fingerprinted after SD
// merging and before compression, and a run whose fingerprint matches an
// already-stored extent maps to it by reference instead of compressing
// and allocating a new slot. It has no fields: the fingerprint key and
// the 2^20-entry index bound are fixed. Attach one with WithDedup;
// without one dedup stays off and the replay bit-identical to earlier
// releases.
type Dedup = dedup.Config

// Maintenance configures temperature-aware background maintenance (see
// internal/maint): during idle windows the device recompresses cold
// lzf/uncompressed extents with a heavier codec, demotes hot gz/bwz
// extents to a cheap codec, and compacts fragmented slot free lists.
// Zero-valued fields of its four (Interval, IdleIOPS, EpochLen,
// ColdEpochs) take documented defaults; the rest is fixed. Attach one
// with WithMaintenance; without one maintenance stays off and the
// replay bit-identical to earlier releases.
type Maintenance = maint.Config

// FaultPlan is a seeded, virtual-time fault schedule (see
// internal/fault): per-operation read/write error probabilities
// (transient and hard), latency spikes, whole-device stall windows, and
// an optional power cut. Attach one with WithFaults; parse one from JSON
// with ParseFaultPlan.
type FaultPlan = fault.Plan

// FaultStall is one whole-device outage window in a FaultPlan.
type FaultStall = fault.Stall

// ParseFaultPlan decodes and validates a JSON fault plan (the format
// edcbench -faults accepts; durations may be nanosecond numbers or Go
// duration strings like "250ms").
func ParseFaultPlan(s string) (*FaultPlan, error) { return fault.ParsePlan(s) }

// config is what the options write and what the builder reads. A value
// a Device or Server consumes as is sits directly in the core struct
// that consumes it (dev, serve, obs); the fields above them are the ones
// the builder turns into something else — a policy, a backend, a payload
// generator.
type config struct {
	scheme     Scheme
	gzCeiling  float64 // EDC's calculated-IOPS ceilings (Fig. 12)
	lzfCeiling float64
	// noEstimator strips compressibility sampling from the policy.
	noEstimator bool

	backend BackendKind
	devices int // array size; fewer than 2 selects the paper's 5 for RAIS, HDD takes at most 1
	ssd     SSDConfig

	data     DataProfile
	dataSeed int64

	// dev carries the pass-through device settings; deviceOptions adds
	// the per-device state (Policy, Data) and the QoS rate share.
	dev core.Options
	// serve carries the shard count; NewSystem adds the volume, the
	// collector and the two factories.
	serve core.ServeSetup
	obs   obs.Config
}

// fillDefaults gives every field an option left at its zero value the
// facade's default: SchemeEDC over one default SSD with enterprise data.
// Every facade default is written here; zero-valued dev/serve fields
// take internal/core's.
func (c *config) fillDefaults() {
	c.scheme = cmp.Or(c.scheme, SchemeEDC)
	c.gzCeiling = cmp.Or(c.gzCeiling, core.DefaultGzCeiling)
	c.lzfCeiling = cmp.Or(c.lzfCeiling, core.DefaultLzfCeiling)
	c.ssd = cmp.Or(c.ssd, ssd.DefaultConfig())
	if len(c.data.Mixture) == 0 {
		c.data = datagen.Enterprise()
	}
	c.dataSeed = cmp.Or(c.dataSeed, 1)
	c.serve.Shards = max(c.serve.Shards, 1)
}

// validate checks the configuration's internal consistency without
// building anything.
func (c *config) validate() error {
	switch c.scheme {
	case SchemeNative, SchemeLzf, SchemeLz4, SchemeGzip, SchemeBzip2, SchemeEDC, SchemeEDCPlus:
	default:
		return fmt.Errorf("%w %q", ErrUnknownScheme, c.scheme)
	}
	switch c.backend {
	case SingleSSD, RAIS0, RAIS5, HDD:
	default:
		return fmt.Errorf("%w %d", ErrUnknownBackend, c.backend)
	}
	if c.devices < 0 {
		return fmt.Errorf("edc: negative device count %d", c.devices)
	}
	if c.backend == HDD && c.devices > 1 {
		return fmt.Errorf("edc: the HDD backend is one disk, not %d", c.devices)
	}
	if c.gzCeiling < 0 || c.lzfCeiling < 0 || c.gzCeiling > c.lzfCeiling {
		return fmt.Errorf("edc: elastic thresholds gz=%g lzf=%g invalid (need 0 <= gz <= lzf)",
			c.gzCeiling, c.lzfCeiling)
	}
	d := &c.dev
	if d.CacheBytes < 0 {
		return fmt.Errorf("edc: negative cache size %d", d.CacheBytes)
	}
	if d.SnapshotEvery < 0 {
		return fmt.Errorf("edc: negative snapshot interval %v", d.SnapshotEvery)
	}
	if d.Maint != nil {
		if err := d.Maint.Validate(); err != nil {
			return err
		}
	}
	if err := d.QoS.Validate(); err != nil {
		return err
	}
	if err := d.Faults.Validate(); err != nil {
		return err
	}
	// Serve's own refusal (power cut) waits for Serve: the
	// options do not say which way the System will be driven.
	if err := c.serve.Incompatible(d, false); err != nil {
		return fmt.Errorf("edc: %w", err)
	}
	return nil
}

// Option customizes a System; pass any number to NewSystem or Replay.
// Later options override earlier ones, and a zero-valued argument means
// the default, as if the option were absent.
type Option func(*config)

// WithScheme selects the compression scheme (default SchemeEDC).
func WithScheme(s Scheme) Option { return func(c *config) { c.scheme = s } }

// WithElasticThresholds overrides EDC's calculated-IOPS ceilings: Gzip
// below gzMax, Lzf between gzMax and lzfMax, none above (Fig. 12 sweeps
// gzMax).
func WithElasticThresholds(gzMax, lzfMax float64) Option {
	return func(c *config) { c.gzCeiling, c.lzfCeiling = gzMax, lzfMax }
}

// WithBackend selects the storage organization and device count (RAIS
// arrays only; HDD refuses more than one).
func WithBackend(kind BackendKind, devices int) Option {
	return func(c *config) { c.backend, c.devices = kind, devices }
}

// WithSSDConfig overrides the simulated device parameters.
func WithSSDConfig(cfg SSDConfig) Option { return func(c *config) { c.ssd = cfg } }

// WithDataProfile selects the synthetic payload model and its seed.
func WithDataProfile(p DataProfile, seed int64) Option {
	return func(c *config) { c.data, c.dataSeed = p, seed }
}

// WithVerify keeps compressed payloads and checks every read of one
// round-trips (memory-hungry; tests and demos).
func WithVerify() Option { return func(c *config) { c.dev.VerifyReads = true } }

// WithoutSD disables write merging (ablation).
func WithoutSD() Option { return func(c *config) { c.dev.DisableSD = true } }

// WithExactSlots disables the 25/50/75/100 % slot quantization
// (ablation).
func WithExactSlots() Option { return func(c *config) { c.dev.ExactSlots = true } }

// WithoutEstimator disables EDC's compressibility sampling (ablation:
// compress everything the intensity ladder selects).
func WithoutEstimator() Option { return func(c *config) { c.noEstimator = true } }

// WithReplayWorkers selects where real codec work runs: any n > 1 runs
// it on the process-wide pool of GOMAXPROCS workers, concurrently with
// the virtual-time event loop (n is not a goroutine count), and n <= 1
// runs it inline. This changes only wall-clock replay speed: compressed
// output is a pure function of (content, codec), so results are
// bit-identical for any setting. Default runtime.GOMAXPROCS(0).
func WithReplayWorkers(n int) Option {
	return func(c *config) {
		if n < 1 {
			n = 1
		}
		c.dev.ReplayWorkers = n
	}
}

// WithShards partitions the volume into n contiguous LBA ranges, each
// served by an independent pipeline instance — its own virtual-time
// engine, backend device (or array), allocator, and mapping — replayed
// concurrently on OS goroutines. Under replay all shards read the same
// trace-derived global intensity signal, so codec selection matches the
// paper's whole-device feedback loop rather than fragmenting per shard.
// Serve has no trace to derive that signal from: each serve shard's own
// workload monitor measures only its slice of the traffic. Results
// are deterministic for a fixed n; n <= 1 keeps the stock single
// pipeline. Sharding models an array of n EDC devices front-ending
// disjoint ranges: per-shard closed-loop bounds and shard-local SD merge
// make n > 1 a different (deterministic) system, not a faster identical
// one.
func WithShards(n int) Option { return func(c *config) { c.serve.Shards = n } }

// WithCache enables a host DRAM read cache of the given size (the upper
// DRAM buffer in the paper's Fig. 4 architecture).
func WithCache(bytes int64) Option { return func(c *config) { c.dev.CacheBytes = bytes } }

// WithTracer streams one TraceEvent per pipeline decision to t
// (admission, SD merge/flush, estimator verdict, codec choice, slot
// placement, cache lookup, decompression, and — under a fault plan —
// fault/retry/degraded-read/recover decisions). Tracers are strict
// observers: results are identical with and without one attached.
// Under WithShards the per-shard streams merge deterministically by
// (virtual time, shard, sequence) after the replay, so t sees a totally
// ordered stream but only once the run completes.
func WithTracer(t Tracer) Option { return func(c *config) { c.obs.Tracer = t } }

// WithTimeSeries samples calculated IOPS, codec mix, and slot occupancy
// into fixed-interval bins of the given width (Results.Obs.Series).
// Sampling is passive — values are recorded at existing decision points,
// never from added timer events — so it cannot perturb the replay.
// d <= 0 selects one second.
func WithTimeSeries(d time.Duration) Option {
	return func(c *config) {
		if d <= 0 {
			d = time.Second
		}
		c.obs.SeriesInterval = d
	}
}

// WithMaintenance enables temperature-aware background maintenance with
// the given policy (zero-valued fields take documented defaults). During
// idle windows — calculated IOPS at or below m.IdleIOPS — the device
// recompresses cold lzf/uncompressed extents with gz, demotes hot gz/bwz
// extents to lzf, and compacts fragmented slot free lists, starting at
// most 8 relocations per tick. Maintenance runs in virtual time on the
// device's own engine, so results stay deterministic per seed, including
// under WithShards.
func WithMaintenance(m Maintenance) Option { return func(c *config) { c.dev.Maint = &m } }

// WithDedup enables content-addressed deduplication (d is Dedup{}, which
// has no fields). Every flushed write run is fingerprinted with a keyed
// 128-bit hash after SD merging and before compression; a run matching
// an already-stored extent maps to it by reference — skipping
// estimation, compression, and slot allocation — and the extent is
// released only when its last reference goes away. Dedup runs inside
// each pipeline's event loop in virtual time, so results stay
// deterministic per seed, including under WithShards (each shard
// deduplicates its own LBA range with the same fixed key).
func WithDedup(d Dedup) Option { return func(c *config) { c.dev.Dedup = &d } }

// WithPacedServe does nothing: every serve shard runs paced, up to the
// highest arrival stamp it has admitted (see System.Serve).
//
// Deprecated: pacing is how serve mode always runs.
func WithPacedServe() Option { return func(*config) {} }

// WithQoS enables multi-tenant quality of service with the given tenant
// table: requests tagged with a tenant (trace records, tagged serve
// calls, or a tenant=-annotated workload spec) are shaped by that
// tenant's time-of-day bandwidth schedule, admitted by traffic class
// under saturation, and — with q.Isolate — judged against the tenant's
// own calculated-IOPS window instead of the device-global signal.
// Untagged requests are unaffected, so attaching a config leaves an
// untagged run bit-identical.
func WithQoS(q QoSConfig) Option {
	return func(c *config) { c.dev.QoS = &q }
}

// WithFaults attaches a deterministic fault plan: every device
// operation consults a seeded per-device injector, and the pipeline
// recovers — bounded virtual-time retry for transient errors, RAIS5
// parity reconstruction for failed member reads, re-allocation to a
// fresh slot for hard write failures, and journal-based crash recovery
// for a planned power cut. Results are deterministic for a fixed plan
// seed; with p == nil the replay is bit-identical to a plan-free run.
func WithFaults(p *FaultPlan) Option { return func(c *config) { c.dev.Faults = p } }

// WithSnapshotEvery checkpoints the mapping at the given virtual-time
// interval (snapshot + journal reset), bounding how much journal a
// crash recovery must replay.
func WithSnapshotEvery(d time.Duration) Option { return func(c *config) { c.dev.SnapshotEvery = d } }

// collector builds the obs collector a config calls for, nil when
// observability is off.
func (c *config) collector() *obs.Collector {
	if c.obs.Tracer == nil && c.obs.SeriesInterval <= 0 {
		return nil
	}
	return obs.New(c.obs)
}
