// Package edc is an open reimplementation of Elastic Data Compression
// (EDC) for flash-based storage systems (Mao, Jiang, Wu, Yang, Xi —
// IPDPS 2017), together with everything needed to reproduce the paper's
// evaluation: four from-scratch block codecs (LZF-, LZ4-, Gzip- and
// Bzip2-class), an event-driven SSD/FTL simulator with garbage
// collection, RAIS0/RAIS5 arrays, SPC and MSR trace parsers, synthetic
// bursty workload generators, and an SDGen-style content generator with
// controlled compressibility.
//
// EDC adapts the compression algorithm per write to the measured I/O
// intensity (4 KB-normalized "calculated IOPS") and to the data's
// estimated compressibility: heavier codecs during idle periods, light
// or no compression during bursts, and write-through for incompressible
// blocks. This package exposes the system behind a small facade:
//
//	wl, _ := edc.WorkloadByName("fin1", 256<<20)
//	tr, _ := wl.GenerateN(20000, 1)
//	res, _ := edc.Replay(tr, 256<<20, edc.WithScheme(edc.SchemeEDC))
//	fmt.Println(res.MeanResponse(), res.TrafficRatio())
//
// Configuration is by functional options (the With* family) passed to
// NewSystem or Replay; NewSystem validates their combination and builds
// nothing — Play and Serve stamp the configured pipelines out when
// called. Failures surface as typed errors (ErrUnknownScheme,
// ErrUnknownWorkload, ErrReplayed, FaultError) for errors.Is/As.
//
// All simulation happens in virtual time: multi-hour traces replay in
// seconds and results are bit-for-bit reproducible for a given seed —
// including runs with an injected fault plan (WithFaults), whose
// decisions derive deterministically from the plan seed.
package edc

import (
	"fmt"
	"io"
	"strings"
	"time"

	"edc/internal/compress"
	_ "edc/internal/compress/bwz"
	_ "edc/internal/compress/gz"
	_ "edc/internal/compress/lz4x"
	_ "edc/internal/compress/lzf"
	"edc/internal/core"
	"edc/internal/datagen"
	"edc/internal/hdd"
	"edc/internal/obs"
	"edc/internal/rais"
	"edc/internal/sim"
	"edc/internal/ssd"
	"edc/internal/trace"
	"edc/internal/workload"
)

// Re-exported building blocks. The aliases make internal types usable by
// importers of this package.
type (
	// Trace is an ordered block-level I/O trace.
	Trace = trace.Trace
	// Request is one trace record.
	Request = trace.Request
	// Results carries everything a replay measured.
	Results = core.RunStats
	// Policy selects compression per write run.
	Policy = core.Policy
	// DataProfile describes synthetic payload compressibility.
	DataProfile = datagen.Profile
	// WorkloadProfile describes a synthetic arrival/size/mix model.
	WorkloadProfile = workload.Profile
	// SSDConfig parameterizes the simulated device.
	SSDConfig = ssd.Config
	// Report is the machine-readable (JSON) form of Results.
	Report = core.Report
	// Tracer consumes one TraceEvent per pipeline decision (WithTracer).
	Tracer = obs.Tracer
	// TracerFunc adapts a function to the Tracer interface.
	TracerFunc = obs.TracerFunc
	// TraceEvent is one pipeline decision record (see OBSERVABILITY.md
	// for the JSONL schema).
	TraceEvent = obs.Event
	// TraceEventType names a pipeline decision point.
	TraceEventType = obs.EventType
	// JSONLTracer writes one JSON object per decision, one per line.
	JSONLTracer = obs.JSONLTracer
	// ObsReport is the observability snapshot embedded in Results.Obs:
	// decision counters (with a Prometheus-style text exposition) plus
	// the optional WithTimeSeries samples.
	ObsReport = obs.Report
)

// The traced decision points, re-exported for Tracer implementations
// filtering on TraceEvent.Type.
const (
	// EvAdmit: the frontend admitted one host request.
	EvAdmit = obs.EvAdmit
	// EvDefer: the closed-loop bound parked one request.
	EvDefer = obs.EvDefer
	// EvSDMerge: a contiguous write joined the pending run.
	EvSDMerge = obs.EvSDMerge
	// EvSDFlush: the pending run was flushed (Reason says why).
	EvSDFlush = obs.EvSDFlush
	// EvEstimate: the sampling estimator ruled on a run.
	EvEstimate = obs.EvEstimate
	// EvPolicy: the policy chose a codec at the current calculated IOPS.
	EvPolicy = obs.EvPolicy
	// EvSlot: codec output was placed into a quantized slot.
	EvSlot = obs.EvSlot
	// EvSlotFree: a dead extent's slot returned to the allocator.
	EvSlotFree = obs.EvSlotFree
	// EvCacheHit: the host DRAM cache served a read.
	EvCacheHit = obs.EvCacheHit
	// EvCacheMiss: the host DRAM cache missed a read.
	EvCacheMiss = obs.EvCacheMiss
	// EvDecompress: a read had to decompress a compressed extent.
	EvDecompress = obs.EvDecompress
	// EvFault: an injected device fault hit an operation.
	EvFault = obs.EvFault
	// EvRetry: a path re-issued an operation after a transient fault.
	EvRetry = obs.EvRetry
	// EvDegradedRead: a RAIS5 read reconstructed from parity.
	EvDegradedRead = obs.EvDegradedRead
	// EvRecover: a recovery decision (re-allocation, abandoned read, or
	// crash recovery).
	EvRecover = obs.EvRecover
	// EvRecompress: background maintenance relocated one extent to a new
	// codec (Reason: "cold" or "hot").
	EvRecompress = obs.EvRecompress
	// EvCompact: background maintenance coalesced fragmented free slots.
	EvCompact = obs.EvCompact
	// EvDedupHit: a flushed run matched a stored extent's fingerprint
	// and mapped to it by reference.
	EvDedupHit = obs.EvDedupHit
	// EvDedupMiss: a flushed run's fingerprint was unseen; the run took
	// the normal compression pipeline.
	EvDedupMiss = obs.EvDedupMiss
	// EvUnref: a dedup-shared extent lost its last reference and its
	// slot was released.
	EvUnref = obs.EvUnref
	// EvShape: a tenant's bandwidth schedule delayed one request.
	EvShape = obs.EvShape
	// EvAdmitReject: admission control refused one request (tenant
	// queue-depth bound).
	EvAdmitReject = obs.EvAdmitReject
)

// NewJSONLTracer returns a Tracer writing one JSON event per line to w
// (buffered; call Flush when the replay completes).
func NewJSONLTracer(w io.Writer) *JSONLTracer { return obs.NewJSONLTracer(w) }

// Scheme names the paper's five evaluated schemes.
type Scheme string

// The evaluated schemes (paper Sec. IV-A).
const (
	SchemeNative Scheme = "Native"
	SchemeLzf    Scheme = "Lzf"
	SchemeLz4    Scheme = "Lz4"
	SchemeGzip   Scheme = "Gzip"
	SchemeBzip2  Scheme = "Bzip2"
	SchemeEDC    Scheme = "EDC"
	// SchemeEDCPlus is EDC with the content-aware upgrade (paper future
	// work #1): highly compressible runs get Bzip2-class compression in
	// idle periods.
	SchemeEDCPlus Scheme = "EDC+"
)

// Schemes returns the five schemes in the paper's presentation order.
func Schemes() []Scheme {
	return []Scheme{SchemeNative, SchemeLzf, SchemeGzip, SchemeBzip2, SchemeEDC}
}

// BackendKind selects the storage organization under EDC.
type BackendKind int

// Supported backends.
const (
	SingleSSD BackendKind = iota // one device (Figs. 8-10)
	RAIS0                        // striped array
	RAIS5                        // rotating-parity array (Fig. 11)
	HDD                          // one 7200 RPM disk (paper future work #2)
)

// System is one configured EDC stack — virtual-time engine, backend
// devices, and the EDC block layer, or with WithShards(n>1) a router
// over n such stacks — waiting to be driven: Play replays one trace
// through it, Serve runs it live. Either consumes the System; a second
// Play returns ErrReplayed.
type System struct {
	// cfg is the validated configuration; cfg.serve stamps out the
	// pipelines for whichever way the System is driven.
	cfg    config
	srv    *core.Server
	played bool
}

// DataProfiles maps the named payload models usable with
// WithDataProfile: "enterprise" (default), "linux-src", "firefox-bin",
// "media".
func DataProfiles() map[string]DataProfile {
	return map[string]DataProfile{
		"enterprise":  datagen.Enterprise(),
		"linux-src":   datagen.LinuxSrc(),
		"firefox-bin": datagen.FirefoxBin(),
		"media":       datagen.Media(),
	}
}

// WorkloadNames returns the recognized workload names in presentation
// order (the paper's Table II traces).
func WorkloadNames() []string {
	return []string{"fin1", "fin2", "usr0", "prxy0"}
}

// WorkloadByName returns a named synthetic workload profile over a
// volume: "fin1", "fin2", "usr0", "prxy0" (case-insensitive; "usr_0"
// and "prxy_0" are accepted aliases). Unknown names return an error
// wrapping ErrUnknownWorkload and listing the valid choices.
func WorkloadByName(name string, volumeBytes int64) (WorkloadProfile, error) {
	switch strings.ToLower(name) {
	case "fin1":
		return workload.Fin1(volumeBytes), nil
	case "fin2":
		return workload.Fin2(volumeBytes), nil
	case "usr0", "usr_0":
		return workload.Usr0(volumeBytes), nil
	case "prxy0", "prxy_0":
		return workload.Prxy0(volumeBytes), nil
	default:
		return WorkloadProfile{}, fmt.Errorf("%w %q (valid: %s)",
			ErrUnknownWorkload, name, strings.Join(WorkloadNames(), ", "))
	}
}

// StandardWorkloads returns the paper's four evaluation profiles.
func StandardWorkloads(volumeBytes int64) []WorkloadProfile {
	return workload.Standard(volumeBytes)
}

// policyFor builds the core policy for a scheme.
func policyFor(c *config) (core.Policy, error) {
	reg := compress.Default()
	switch c.scheme {
	case SchemeNative:
		return core.Native(), nil
	case SchemeLzf:
		cod, err := reg.ByName("lzf")
		if err != nil {
			return nil, err
		}
		return core.Fixed("Lzf", cod), nil
	case SchemeLz4:
		cod, err := reg.ByName("lz4")
		if err != nil {
			return nil, err
		}
		return core.Fixed("Lz4", cod), nil
	case SchemeGzip:
		cod, err := reg.ByName("gz")
		if err != nil {
			return nil, err
		}
		return core.Fixed("Gzip", cod), nil
	case SchemeBzip2:
		cod, err := reg.ByName("bwz")
		if err != nil {
			return nil, err
		}
		return core.Fixed("Bzip2", cod), nil
	case SchemeEDC, SchemeEDCPlus:
		gz, err := reg.ByName("gz")
		if err != nil {
			return nil, err
		}
		lzf, err := reg.ByName("lzf")
		if err != nil {
			return nil, err
		}
		elastic, err := core.NewElastic("EDC", []core.Level{
			{MaxIOPS: c.gzCeiling, Codec: gz},
			{MaxIOPS: c.lzfCeiling, Codec: lzf},
		})
		if err != nil || c.scheme == SchemeEDC {
			return elastic, err
		}
		bwz, err := reg.ByName("bwz")
		if err != nil {
			return nil, err
		}
		return core.NewContentAware(elastic, bwz, 2.5)
	default:
		return nil, fmt.Errorf("%w %q", ErrUnknownScheme, c.scheme)
	}
}

// stripeUnitPages is the RAIS stripe unit: the pages a stripe puts on
// one member before it moves to the next.
const stripeUnitPages = 16

// buildBackend constructs one backend instance on eng per the configured
// organization: every pipeline a System runs gets a private one.
func buildBackend(c *config, eng *sim.Engine) (*core.Backend, error) {
	switch c.backend {
	case SingleSSD:
		d, err := ssd.New(c.ssd)
		if err != nil {
			return nil, err
		}
		return core.NewSSDBackend(eng, d), nil
	case HDD:
		d, err := hdd.New(hdd.DefaultConfig())
		if err != nil {
			return nil, err
		}
		return core.NewDiskBackend(eng, d), nil
	case RAIS0, RAIS5:
		n := c.devices
		if n < 2 {
			n = 5 // the paper's array size
		}
		devs := make([]*ssd.SSD, n)
		for i := range devs {
			d, err := ssd.New(c.ssd)
			if err != nil {
				return nil, err
			}
			devs[i] = d
		}
		level := rais.RAIS0
		if c.backend == RAIS5 {
			level = rais.RAIS5
		}
		arr, err := rais.New(level, devs, stripeUnitPages)
		if err != nil {
			return nil, err
		}
		return core.NewArrayBackend(eng, arr), nil
	default:
		return nil, fmt.Errorf("%w %d", ErrUnknownBackend, c.backend)
	}
}

// deviceOptions completes c.dev for one pipeline. Policy and Data carry
// mutable state, so every pipeline gets private instances.
func deviceOptions(c *config) (core.Options, error) {
	pol, err := policyFor(c)
	if err != nil {
		return core.Options{}, err
	}
	if c.noEstimator {
		pol = core.WithoutEstimator(pol)
	}
	o := c.dev
	o.Policy = pol
	o.Data = datagen.New(c.data, c.dataSeed)
	return o, nil
}

// NewSystem configures a System exposing volumeBytes of logical space.
// It validates the options and their combination and builds nothing:
// Play or Serve stamps the pipelines out, so an error only building one
// can find (say, a volume larger than the backend) comes from them.
func NewSystem(volumeBytes int64, opts ...Option) (*System, error) {
	s := &System{}
	c := &s.cfg
	for _, opt := range opts {
		opt(c)
	}
	c.fillDefaults()
	if err := c.validate(); err != nil {
		return nil, err
	}
	// Codec futures of every shard go to the one process-wide pool, so no
	// per-shard worker budget is carved out of GOMAXPROCS: an idle core
	// helps whichever shard is hot.
	c.serve.VolumeBytes = volumeBytes
	c.serve.Backend = func(eng *sim.Engine) (*core.Backend, error) { return buildBackend(c, eng) }
	c.serve.Options = func(int) (core.Options, error) { return deviceOptions(c) }
	c.serve.Obs = c.collector()
	if _, err := core.NewSharded(c.serve.ShardSetup); err != nil {
		return nil, err
	}
	return s, nil
}

// device stamps out the stock single pipeline of an unsharded replay: it
// reports to the collector directly (a tracer streams), keeps its own
// workload monitor, and returns errors unprefixed. A non-nil cs builds
// it as recovered from that crash.
func (s *System) device(cs *core.CrashState) (*core.Device, error) {
	setup := &s.cfg.serve.ShardSetup
	opts, err := setup.Options(0)
	if err != nil {
		return nil, err
	}
	return setup.BuildDevice(setup.VolumeBytes, opts, setup.Obs, cs)
}

// Play replays t and returns the measured results. A System is
// single-use: a second call returns ErrReplayed.
func (s *System) Play(t *Trace) (*Results, error) {
	if s.played {
		return nil, ErrReplayed
	}
	s.played = true
	if s.cfg.serve.Shards > 1 {
		sharded, err := core.NewSharded(s.cfg.serve.ShardSetup)
		if err != nil {
			return nil, err
		}
		return sharded.Play(t)
	}
	dev, err := s.device(nil)
	if err != nil {
		return nil, err
	}
	if f := s.cfg.dev.Faults; f != nil && f.PowerCutAt > 0 {
		return s.playWithPowerCut(dev, t, f.PowerCutAt)
	}
	return dev.Play(t)
}

// playWithPowerCut runs the planned crash: replay until the cut, lose
// whatever was in flight, rebuild a recovered device from the persisted
// snapshot + journal, and resume with the remainder of the trace. The
// returned Results merge both phases (the lost requests appear in
// CrashLost, not in the response histograms). The recovered device's
// fault injectors restart their decision streams from the plan seed, so
// the whole crash-and-recover run is deterministic.
func (s *System) playWithPowerCut(dev *core.Device, t *Trace, cut time.Duration) (*Results, error) {
	before, cs, err := dev.PlayUntil(t, cut)
	if err != nil {
		return before, err
	}
	// One collector spans both phases.
	if dev, err = s.device(cs); err != nil {
		return nil, err
	}
	// The restarted host re-issues only requests that arrive strictly
	// after the cut; arrivals at or before it were admitted by the
	// pre-cut engine (RunUntil fires events with time <= cut) and either
	// completed or were swallowed by the crash (CrashLost).
	rest := &Trace{Name: t.Name}
	for _, r := range t.Requests {
		if r.Arrival > cut {
			rest.Requests = append(rest.Requests, r)
		}
	}
	after, err := dev.Play(rest)
	if err != nil {
		return after, err
	}
	merged := core.MergeRunStats([]*core.RunStats{before, after})
	// The shared collector accumulated across both phases; the second
	// phase's snapshot is the complete one.
	merged.Obs = after.Obs
	return merged, nil
}

// Replay is the one-shot form: build a System, play the trace.
func Replay(t *Trace, volumeBytes int64, opts ...Option) (*Results, error) {
	s, err := NewSystem(volumeBytes, opts...)
	if err != nil {
		return nil, err
	}
	return s.Play(t)
}

// DefaultSSDConfig returns the X25-E-class device model used throughout
// the evaluation.
func DefaultSSDConfig() SSDConfig { return ssd.DefaultConfig() }
