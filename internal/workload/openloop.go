package workload

// Open-loop serving workloads: where the MMPP Profile above synthesizes
// whole traces for deterministic replay, the Spec/Stream machinery below
// generates operations on the fly for serve mode — each client worker
// owns a seeded Stream producing (intended arrival, offset, size,
// direction) tuples at its share of the offered rate, so the aggregate
// arrival process hits the configured QPS regardless of how fast the
// system under test completes operations (the defining property of an
// open-loop benchmark).

import (
	"fmt"
	"math/rand"
	"time"

	"edc/internal/qos"
)

// ArrivalKind selects a step's interarrival process.
type ArrivalKind int

// Arrival processes: Poisson (exponential interarrivals, the memoryless
// default matching classic open-loop load generators) and uniform
// (deterministic equal spacing, workers phase-staggered so the aggregate
// stays smooth).
const (
	ArrivalPoisson ArrivalKind = iota
	ArrivalUniform
)

// String names the arrival kind as the spec DSL spells it.
func (a ArrivalKind) String() string {
	if a == ArrivalUniform {
		return "uniform"
	}
	return "poisson"
}

// KeyKind selects a step's key-pick distribution.
type KeyKind int

// Key distributions: uniform over the volume's blocks, or YCSB-style
// bounded zipfian with skew theta in (0, 1).
const (
	KeyUniform KeyKind = iota
	KeyZipfian
)

// KeyChoice is one direction's key distribution: the kind plus the
// zipfian skew (ignored for uniform).
type KeyChoice struct {
	Kind  KeyKind
	Theta float64
}

// String names the key choice as the spec DSL spells it.
func (k KeyChoice) String() string {
	if k.Kind == KeyZipfian {
		return fmt.Sprintf("zipfian-%g", k.Theta)
	}
	return "uniform"
}

// Step is one phase of an open-loop workload: for D of virtual time,
// offer QPS operations per second with read fraction RW, arrivals drawn
// from AD, read offsets from RKD, write offsets from WKD, each operation
// BS bytes.
type Step struct {
	D   time.Duration // step duration in virtual time
	QPS float64       // aggregate offered arrival rate (ops/sec)
	RW  float64       // fraction of operations that are reads, in [0, 1]
	AD  ArrivalKind   // interarrival process
	RKD KeyChoice     // read key distribution
	WKD KeyChoice     // write key distribution
	BS  int64         // operation size in bytes

	// Dup / DupUniverse set the payload generator's content-duplication
	// knobs (datagen.Profile.WithDup): a Dup fraction of content regions
	// are clones drawn from a pool of DupUniverse distinct payloads.
	// Payload content is a property of the serving device, not of a
	// phase, so the knob is spec-global: the first step's values apply
	// to the whole run and Validate rejects a mid-spec change.
	Dup         float64
	DupUniverse int

	// Tenant names the tenant submitting this step's operations for
	// multi-tenant QoS; empty means untagged (the pre-tenant behavior).
	// Class ("standard", "latency", "bulk") and BW (an rclone-style
	// time-of-day bandwidth schedule, '+'-separated in the DSL) describe
	// the tenant's QoS treatment; both require Tenant and must not
	// change between a tenant's steps. The json tags keep untagged
	// specs' serialized form identical to the pre-tenant encoding.
	Tenant string `json:"Tenant,omitempty"`
	Class  string `json:"Class,omitempty"`
	BW     string `json:"BW,omitempty"`
}

// Spec is a multi-step open-loop workload, executed in order.
type Spec []Step

// Duration sums the steps' virtual durations.
func (s Spec) Duration() time.Duration {
	var d time.Duration
	for _, st := range s {
		d += st.D
	}
	return d
}

// Validate checks every step for usability against a volume size.
func (s Spec) Validate(volumeBytes int64) error {
	if len(s) == 0 {
		return fmt.Errorf("workload: empty spec")
	}
	for i, st := range s {
		switch {
		case st.D <= 0:
			return fmt.Errorf("workload: step %d: duration %v must be positive", i+1, st.D)
		case st.QPS <= 0:
			return fmt.Errorf("workload: step %d: qps %g must be positive", i+1, st.QPS)
		case st.RW < 0 || st.RW > 1:
			return fmt.Errorf("workload: step %d: rw %g out of [0,1]", i+1, st.RW)
		case st.BS <= 0:
			return fmt.Errorf("workload: step %d: block size %d must be positive", i+1, st.BS)
		case volumeBytes > 0 && st.BS > volumeBytes:
			return fmt.Errorf("workload: step %d: block size %d exceeds volume %d", i+1, st.BS, volumeBytes)
		}
		for _, kc := range []KeyChoice{st.RKD, st.WKD} {
			if kc.Kind == KeyZipfian && (kc.Theta <= 0 || kc.Theta >= 1) {
				return fmt.Errorf("workload: step %d: zipfian theta %g out of (0,1)", i+1, kc.Theta)
			}
		}
		if st.Dup < 0 || st.Dup > 1 {
			return fmt.Errorf("workload: step %d: dup %g out of [0,1]", i+1, st.Dup)
		}
		if st.DupUniverse < 0 {
			return fmt.Errorf("workload: step %d: dup universe %d must be non-negative", i+1, st.DupUniverse)
		}
		if i > 0 && (st.Dup != s[0].Dup || st.DupUniverse != s[0].DupUniverse) {
			return fmt.Errorf("workload: step %d: dup knobs cannot change mid-spec (payload content is a device property, not a phase property)", i+1)
		}
		if st.Tenant == "" && (st.Class != "" || st.BW != "") {
			return fmt.Errorf("workload: step %d: class/bw require tenant", i+1)
		}
		if _, err := qos.ParseClass(st.Class); err != nil {
			return fmt.Errorf("workload: step %d: %v", i+1, err)
		}
		if st.BW != "" {
			if _, err := qos.ParseTimetable(st.BW); err != nil {
				return fmt.Errorf("workload: step %d: %v", i+1, err)
			}
		}
	}
	// A tenant's QoS treatment is a tenant property, not a phase
	// property: class/bw must agree across all of a tenant's steps.
	seen := map[string]Step{}
	for i, st := range s {
		if st.Tenant == "" {
			continue
		}
		if prev, ok := seen[st.Tenant]; ok {
			if prev.Class != st.Class || prev.BW != st.BW {
				return fmt.Errorf("workload: step %d: tenant %q changes class/bw mid-spec", i+1, st.Tenant)
			}
		} else {
			seen[st.Tenant] = st
		}
	}
	return nil
}

// TenantSteps is one tenant's slice of a multi-tenant Spec: the steps
// in spec order, each step's index in the original spec, and the
// tenant's own virtual timeline (each tenant's first step starts at
// t=0 — tenants run concurrently, not sequentially).
type TenantSteps struct {
	// Tenant is the tenant name ("" for the untagged stream).
	Tenant string
	// Steps is the tenant's sub-spec, timeline starting at zero.
	Steps Spec
	// Index maps each sub-spec step back to its index in the original.
	Index []int
}

// ByTenant splits the spec into per-tenant sub-specs in order of first
// appearance. A single-tenant (or untagged) spec returns one entry
// containing the whole spec, so callers can treat every spec uniformly.
func (s Spec) ByTenant() []TenantSteps {
	var out []TenantSteps
	at := map[string]int{}
	for i, st := range s {
		j, ok := at[st.Tenant]
		if !ok {
			j = len(out)
			at[st.Tenant] = j
			out = append(out, TenantSteps{Tenant: st.Tenant})
		}
		out[j].Steps = append(out[j].Steps, st)
		out[j].Index = append(out[j].Index, i)
	}
	return out
}

// QoSConfig derives a qos.Config from the spec's tenant annotations:
// one tenant entry per tagged tenant, carrying its class= and bw=
// values. Specs without annotations (or with only bare tenant= tags)
// return nil — nothing to configure. The spec must have passed
// Validate.
func (s Spec) QoSConfig() *qos.Config {
	tenants := map[string]qos.Tenant{}
	any := false
	for _, st := range s {
		if st.Tenant == "" {
			continue
		}
		if _, ok := tenants[st.Tenant]; ok {
			continue
		}
		cls, _ := qos.ParseClass(st.Class)
		tenants[st.Tenant] = qos.Tenant{Class: cls, Bandwidth: st.BW}
		if st.Class != "" || st.BW != "" {
			any = true
		}
	}
	if !any {
		return nil
	}
	return &qos.Config{Tenants: tenants}
}

// Op is one generated open-loop operation.
type Op struct {
	At     time.Duration // intended virtual arrival (from serve start)
	Off    int64         // volume byte offset
	Size   int64         // length in bytes
	Write  bool
	Step   int    // index of the producing spec step
	Tenant string // submitting tenant ("" untagged)
}

// splitmix64 is the SplitMix64 finalizer: a cheap high-quality bijection
// used to derive per-worker seeds and to scramble zipfian ranks into
// scattered block addresses (YCSB's scrambled-zipfian construction).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// keyPicker draws block indices in [0, n).
type keyPicker interface {
	pick(rng *rand.Rand) int64
}

// uniformKeys draws uniformly over the n blocks.
type uniformKeys struct{ n int64 }

func (u uniformKeys) pick(rng *rand.Rand) int64 { return rng.Int63n(u.n) }

// pickerKey names a key picker: its distribution (theta zero for
// uniform, which ignores it) and block count.
type pickerKey struct {
	kc KeyChoice
	n  int64
}

// picker returns the stream's picker for one direction of one step,
// built on first use: a zipfian picker costs n math.Pow calls and its
// rank lookup, and is a pure function of its key, so a step's two
// directions and consecutive steps that agree share one.
func (s *Stream) picker(kc KeyChoice, nBlocks int64) keyPicker {
	if kc.Kind != KeyZipfian {
		kc.Theta = 0
	}
	key := pickerKey{kc, nBlocks}
	if p, ok := s.pickers[key]; ok {
		return p
	}
	var p keyPicker = uniformKeys{n: nBlocks}
	if kc.Kind == KeyZipfian {
		p = newZipfKeys(nBlocks, kc.Theta)
	}
	s.pickers[key] = p
	return p
}

// Stream generates one worker's share of an open-loop Spec: worker w of
// W offers QPS/W operations per second, with all randomness drawn from a
// private generator seeded by (seed, worker) — the produced operation
// sequence is a pure function of those inputs, independent of goroutine
// scheduling or how fast the served system completes work.
type Stream struct {
	spec    Spec
	vol     int64
	rng     *rand.Rand
	worker  int
	workers int

	step  int           // current step index
	cur   *Step         // &spec[step]
	rate  float64       // this worker's arrivals per second in the step
	base  time.Duration // virtual start of the current step
	at    time.Duration // last arrival within the current step
	reads keyPicker
	wris  keyPicker

	pickers map[pickerKey]keyPicker // every picker built so far
}

// NewStream validates the spec and builds worker w of W (0 <= w < W).
func NewStream(spec Spec, volumeBytes int64, seed int64, worker, workers int) (*Stream, error) {
	if err := spec.Validate(volumeBytes); err != nil {
		return nil, err
	}
	if volumeBytes <= 0 {
		return nil, fmt.Errorf("workload: volume %d must be positive", volumeBytes)
	}
	if workers < 1 || worker < 0 || worker >= workers {
		return nil, fmt.Errorf("workload: worker %d of %d out of range", worker, workers)
	}
	s := &Stream{
		spec:    spec,
		vol:     volumeBytes,
		rng:     rand.New(rand.NewSource(int64(splitmix64(uint64(seed)) ^ splitmix64(uint64(worker)+0x51ed2701)))),
		worker:  worker,
		workers: workers,
		step:    -1,
		pickers: make(map[pickerKey]keyPicker),
	}
	s.enter(0)
	return s, nil
}

// enter positions the stream at the start of step i.
func (s *Stream) enter(i int) {
	st := &s.spec[i]
	if s.step >= 0 {
		s.base += s.cur.D
	}
	s.step, s.cur = i, st
	s.rate = st.QPS / float64(s.workers)
	s.at = 0
	nBlocks := s.vol / st.BS
	if nBlocks < 1 {
		nBlocks = 1
	}
	s.reads = s.picker(st.RKD, nBlocks)
	s.wris = s.picker(st.WKD, nBlocks)
	if st.AD == ArrivalUniform {
		// Phase-stagger the workers so W uniform trains interleave into
		// one smooth aggregate instead of W-wide arrival spikes. at sits
		// one spacing before the first arrival, so Next's unconditional
		// advance lands worker w's train at phase w/W of the spacing.
		spacing := time.Duration(float64(s.workers) / st.QPS * float64(time.Second))
		phase := spacing * time.Duration(s.worker) / time.Duration(s.workers)
		s.at = phase - spacing
	}
}

// Next returns the next operation, or ok=false when the spec is
// exhausted.
func (s *Stream) Next() (op Op, ok bool) {
	for {
		st := s.cur
		var dt time.Duration
		if st.AD == ArrivalUniform {
			dt = time.Duration(1 / s.rate * float64(time.Second))
		} else {
			dt = time.Duration(s.rng.ExpFloat64() / s.rate * float64(time.Second))
		}
		s.at += dt
		if s.at >= st.D {
			if s.step+1 >= len(s.spec) {
				return Op{}, false
			}
			s.enter(s.step + 1)
			continue
		}
		write := s.rng.Float64() >= st.RW
		var blk int64
		if write {
			blk = s.wris.pick(s.rng)
		} else {
			blk = s.reads.pick(s.rng)
		}
		off := blk * st.BS
		if off+st.BS > s.vol {
			off = s.vol - st.BS
		}
		return Op{
			At:     s.base + s.at,
			Off:    off,
			Size:   st.BS,
			Write:  write,
			Step:   s.step,
			Tenant: st.Tenant,
		}, true
	}
}
