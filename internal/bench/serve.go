package bench

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"edc"
	"edc/internal/metrics"
	"edc/internal/parallel"
	"edc/internal/workload"
)

// ServeParams sizes one open-loop serve run: Clients goroutines each
// drive a seeded workload.Stream against a live System, so the offered
// rate is the spec's QPS regardless of how fast the simulated device
// completes work. Params supplies the shared knobs (volume, seed,
// shards, workers, faults); Requests is ignored — the spec's durations
// bound the run.
type ServeParams struct {
	Params
	// Spec is the multi-step open-loop workload to offer.
	Spec workload.Spec
	// Clients is the number of submitting goroutines (default 8).
	Clients int
	// Scheme is the compression scheme (default EDC).
	Scheme string
	// QoS overrides the QoS configuration attached to the System. Nil
	// derives one from the spec's class/bw annotations
	// (workload.Spec.QoSConfig); specs without annotations attach none.
	QoS *edc.QoSConfig
	// NoQoS suppresses even the spec-derived QoS config: operations
	// still carry their tenant tags (so per-tenant accounting works)
	// but no shaping, isolation, or priority applies — the
	// interference baseline the qos experiment compares against.
	NoQoS bool

	// extra options go on top of the ones the fields above render.
	extra []edc.Option
}

func (p ServeParams) clients() int {
	if p.Clients <= 0 {
		return 8
	}
	return p.Clients
}

func (p ServeParams) scheme() string {
	if p.Scheme == "" {
		return string(edc.SchemeEDC)
	}
	return p.Scheme
}

// StepStats reports one spec step's open-loop outcome: offered vs
// achieved throughput plus the virtual-latency distribution. Achieved
// QPS is ops divided by the virtual span from the step's start to its
// last completion — under overload it falls below OfferedQPS while the
// percentiles grow with queueing delay, the open-loop saturation
// signature.
type StepStats struct {
	// Index is the zero-based step number.
	Index int `json:"index"`
	// Step echoes the generating spec step; the JSON leaves it out,
	// since line Index of ServeResult.SpecText renders it.
	Step workload.Step `json:"-"`
	// Ops, Reads, and Writes count completed operations.
	Ops    int64 `json:"ops"`
	Reads  int64 `json:"reads"`
	Writes int64 `json:"writes"`
	// OfferedQPS is the spec's configured arrival rate.
	OfferedQPS float64 `json:"offered_qps"`
	// AchievedQPS is completions per second of virtual time.
	AchievedQPS float64 `json:"achieved_qps"`
	// Mean, P50, P99, and P999 summarize open-loop virtual latency.
	Mean time.Duration `json:"mean_ns"`
	P50  time.Duration `json:"p50_ns"`
	P99  time.Duration `json:"p99_ns"`
	P999 time.Duration `json:"p999_ns"`
}

// ServeResult is one serve run's full outcome: per-step open-loop
// stats, the merged pipeline Results, and the wall-clock throughput of
// the harness itself (the core-scaling metric — virtual-time results
// are scheduling-independent, wall time is what extra cores buy).
type ServeResult struct {
	// Clients and Shards echo the run shape.
	Clients int `json:"clients"`
	Shards  int `json:"shards"`
	// SpecText is the spec rendered one step per line (FormatSpec).
	SpecText string `json:"spec"`
	// Steps holds one entry per spec step: Steps[i] is line i of
	// SpecText.
	Steps []StepStats `json:"steps"`
	// Stalls counts submissions that blocked on a full mailbox.
	Stalls int64 `json:"stalls"`
	// Rejected counts operations refused admission by per-tenant queue
	// bounds (zero, and omitted, without QoS).
	Rejected int64 `json:"rejected,omitempty"`
	// WallTime is the harness wall-clock duration (generation through
	// StopServe); OpsPerSecWall is total completions divided by it.
	WallTime      time.Duration `json:"wall_ns"`
	OpsPerSecWall float64       `json:"ops_per_sec_wall"`
	// Pool is the shared codec pool's activity during the
	// run (nil when the run never touched the pool — replay workers <= 1
	// keep codec work inline on the event loops).
	Pool *PoolActivity `json:"pool,omitempty"`
	// Result is the merged pipeline Results, as a replay would return;
	// its JSON is the run's Report.
	Result *edc.Results `json:"result"`
}

// PoolActivity is the delta of the process-wide codec pool's counters
// over one serve run: how much codec work the shards put on the pool's
// channel, how much of that a shard event loop ran itself while joining
// a future, and how much ran inline on a submitting event loop because
// the channel was full (backpressure). The counters are process-global,
// so concurrent runs would blend — the bench harness runs one at a time.
type PoolActivity struct {
	// Workers is the pool's worker count (GOMAXPROCS at first use).
	Workers int `json:"workers"`
	// Submitted counts jobs put on the pool's channel.
	Submitted int64 `json:"submitted"`
	// Stolen counts submitted jobs an event loop ran while it waited on a
	// future instead of a worker: its own still-queued job, or another
	// queued job while its own ran elsewhere.
	Stolen int64 `json:"stolen"`
	// Inline counts jobs the submitter ran itself on a full channel.
	Inline int64 `json:"inline"`
	// Cancelled counts submitted jobs their owner claimed before any
	// goroutine ran them (speculative work found unneeded).
	Cancelled int64 `json:"cancelled"`
	// Refused counts speculative submissions turned away by a full
	// channel (never submitted, so in none of the counts above).
	Refused int64 `json:"refused"`
}

// stepAccum accumulates one step's completions across all clients.
type stepAccum struct {
	lat     *metrics.StripedLatency
	ops     atomic.Int64
	reads   atomic.Int64
	writes  atomic.Int64
	lastEnd atomic.Int64 // max virtual completion (ns), CAS-maxed
}

// noteEnd CAS-maxes the step's last virtual completion stamp.
func (a *stepAccum) noteEnd(ns int64) {
	for {
		cur := a.lastEnd.Load()
		if ns <= cur || a.lastEnd.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// RunServe builds a System from p, switches it into serve mode, and
// drives it with p.Clients() open-loop generator goroutines until the
// spec is exhausted. The driver submits in global stamp order and
// awaits concurrently, so the virtual-time results (counts, latencies,
// achieved QPS) are a pure function of (spec, seed, clients, shards),
// independent of GOMAXPROCS and mailbox races (see edc.System.Serve) —
// the corescale gate asserts they are byte-identical across GOMAXPROCS;
// WallTime and Stalls vary with the machine.
func RunServe(p ServeParams) (*ServeResult, error) {
	vol := p.volume()
	if err := p.Spec.Validate(vol); err != nil {
		return nil, err
	}
	clients := p.clients()
	// The dup knob is spec-global (Validate enforces it): the -dup-ratio
	// flag wins, otherwise the spec's first step supplies it.
	if p.DupRatio == 0 {
		p.DupRatio, p.DupUniverse = p.Spec[0].Dup, p.Spec[0].DupUniverse
	}
	opts := p.options(edc.Scheme(p.scheme()), edc.SingleSSD, 1)
	qcfg := p.QoS
	if qcfg == nil && !p.NoQoS {
		qcfg = p.Spec.QoSConfig()
	}
	if qcfg != nil {
		opts = append(opts, edc.WithQoS(*qcfg))
	}
	opts = append(opts, p.extra...)
	sys, err := edc.NewSystem(vol, opts...)
	if err != nil {
		return nil, err
	}
	if err := sys.Serve(); err != nil {
		return nil, err
	}

	accums := make([]*stepAccum, len(p.Spec))
	for i := range accums {
		accums[i] = &stepAccum{lat: metrics.NewStripedLatency(clients)}
	}

	poolBefore := parallel.Shared().Stats()
	start := time.Now()
	ctx := context.Background()

	// Each client goroutine generates its seeded stream into a bounded
	// channel; the sequencer merges the streams by arrival stamp and
	// submits in global stamp order (so no shard's virtual clock ever
	// runs ahead of an arrival still to come — the latency clamp then
	// measures genuine queueing, not cross-client submission skew).
	// Completions are awaited concurrently: submission never blocks on
	// earlier operations finishing, which keeps the load open-loop.
	//
	// A multi-tenant spec splits into per-tenant sub-specs (each
	// tenant's timeline starting at t=0, so tenants run concurrently)
	// and every tenant gets its own set of client streams with a
	// tenant-offset seed; a single-tenant or untagged spec reduces to
	// exactly the pre-tenant feed layout and seeds.
	type workerOp struct {
		op workload.Op
		ok bool
	}
	parts := p.Spec.ByTenant()
	var (
		feeds   []chan workerOp
		feedIdx [][]int // per feed: sub-spec step -> original spec index
		feedCli []int   // per feed: client number within its tenant
	)
	for ti, part := range parts {
		for w := 0; w < clients; w++ {
			stream, err := workload.NewStream(part.Steps, vol, 2000+p.Seed+7919*int64(ti), w, clients)
			if err != nil {
				sys.StopServe()
				return nil, err
			}
			ch := make(chan workerOp, 64)
			feeds = append(feeds, ch)
			feedIdx = append(feedIdx, part.Index)
			feedCli = append(feedCli, w)
			go func(stream *workload.Stream, ch chan workerOp) {
				for {
					op, ok := stream.Next()
					ch <- workerOp{op, ok}
					if !ok {
						return
					}
				}
			}(stream, ch)
		}
	}
	heads := make([]workerOp, len(feeds))
	for w, ch := range feeds {
		heads[w] = <-ch
	}
	var (
		wg       sync.WaitGroup
		failed   atomic.Bool
		errOnce  sync.Mutex
		runErr   error
		rejected atomic.Int64
	)
	fail := func(err error) {
		errOnce.Lock()
		if runErr == nil {
			runErr = err
		}
		errOnce.Unlock()
		failed.Store(true)
	}
	for !failed.Load() {
		// Pop the earliest unsubmitted arrival (ties to the lowest worker,
		// keeping the merge deterministic for a fixed seed).
		w := -1
		for i, h := range heads {
			if h.ok && (w < 0 || h.op.At < heads[w].op.At) {
				w = i
			}
		}
		if w < 0 {
			break
		}
		op := heads[w].op
		heads[w] = <-feeds[w]
		cli, gi := feedCli[w], feedIdx[w][op.Step]
		await, err := sys.SubmitAtTag(ctx, op.At, op.Off, op.Size, op.Write, op.Tenant)
		if err != nil {
			fail(fmt.Errorf("client %d: %w", cli, err))
			break
		}
		wg.Add(1)
		go func(cli, gi int, op workload.Op, await edc.Await) {
			defer wg.Done()
			lat, err := await(ctx)
			if err != nil {
				// A per-tenant queue bound refusing one operation is the
				// shaper doing its job, not a harness failure.
				if errors.Is(err, edc.ErrAdmissionRejected) {
					rejected.Add(1)
					return
				}
				fail(fmt.Errorf("client %d: %w", cli, err))
				return
			}
			a := accums[gi]
			a.lat.Observe(cli, lat)
			a.ops.Add(1)
			if op.Write {
				a.writes.Add(1)
			} else {
				a.reads.Add(1)
			}
			a.noteEnd(int64(op.At + lat))
		}(cli, gi, op, await)
	}
	for w, h := range heads {
		// Drain abandoned generators so their goroutines exit.
		for h.ok {
			h = <-feeds[w]
		}
	}
	// Stop before waiting on the awaits: a shaped operation whose
	// bandwidth deadline lies past the last real arrival parks in its
	// shard until the stop-drain runs the engine dry, so waiting first
	// would deadlock.
	stalls := sys.ServeStalls()
	res, err := sys.StopServe()
	wg.Wait()
	if runErr != nil {
		return nil, runErr
	}
	if err != nil {
		return nil, err
	}
	wall := time.Since(start)
	poolAfter := parallel.Shared().Stats()

	shards := p.Shards
	if shards < 1 {
		shards = 1
	}
	var pool *PoolActivity
	if poolAfter.Submitted+poolAfter.Inline > poolBefore.Submitted+poolBefore.Inline {
		pool = &PoolActivity{
			Workers:   poolAfter.Workers,
			Submitted: poolAfter.Submitted - poolBefore.Submitted,
			Stolen:    poolAfter.Stolen - poolBefore.Stolen,
			Inline:    poolAfter.Inline - poolBefore.Inline,
			Cancelled: poolAfter.Cancelled - poolBefore.Cancelled,
			Refused:   poolAfter.Refused - poolBefore.Refused,
		}
	}
	out := &ServeResult{
		Clients:  clients,
		Shards:   shards,
		SpecText: FormatSpec(p.Spec),
		Stalls:   stalls,
		Pool:     pool,
		Rejected: rejected.Load(),
		WallTime: wall,
		Result:   res,
	}
	// Each step's virtual start is its offset within its own tenant's
	// timeline (tenants run concurrently, each from t=0); for a
	// single-tenant spec this is the plain running sum of durations.
	bases := make([]time.Duration, len(p.Spec))
	for _, part := range parts {
		var b time.Duration
		for k, gi := range part.Index {
			bases[gi] = b
			b += part.Steps[k].D
		}
	}
	var total int64
	for i, st := range p.Spec {
		a := accums[i]
		h := a.lat.Merge()
		ss := StepStats{
			Index:      i,
			Step:       st,
			Ops:        a.ops.Load(),
			Reads:      a.reads.Load(),
			Writes:     a.writes.Load(),
			OfferedQPS: st.QPS,
			Mean:       h.Mean(),
			P50:        h.Percentile(50),
			P99:        h.Percentile(99),
			P999:       h.Percentile(99.9),
		}
		if span := time.Duration(a.lastEnd.Load()) - bases[i]; span > 0 && ss.Ops > 0 {
			ss.AchievedQPS = float64(ss.Ops) / span.Seconds()
		}
		total += ss.Ops
		out.Steps = append(out.Steps, ss)
	}
	if wall > 0 {
		out.OpsPerSecWall = float64(total) / wall.Seconds()
	}
	return out, nil
}

// FormatSpec renders a Spec back into the DSL, one step per line, so
// that workload.ParseSpec reads the same Spec back. The dup knobs
// appear only when set and tenant annotations only on tagged steps, so
// a spec without them renders exactly as it did before they existed.
func FormatSpec(s workload.Spec) string {
	var b []byte
	for i, st := range s {
		if i > 0 {
			b = append(b, '\n')
		}
		b = fmt.Appendf(b, "d=%v rw=%g qps=%g ad=%s rkd=%s wkd=%s bs=%d",
			st.D, st.RW, st.QPS, st.AD, st.RKD, st.WKD, st.BS)
		if st.Dup != 0 {
			b = fmt.Appendf(b, " dup=%g", st.Dup)
		}
		if st.DupUniverse != 0 {
			b = fmt.Appendf(b, " dupu=%d", st.DupUniverse)
		}
		if st.Tenant != "" {
			b = fmt.Appendf(b, " tenant=%s", st.Tenant)
			if st.Class != "" {
				b = fmt.Appendf(b, " class=%s", st.Class)
			}
			if st.BW != "" {
				b = fmt.Appendf(b, " bw=%s", strings.ReplaceAll(st.BW, " ", "+"))
			}
		}
	}
	return string(b)
}

// ServeTable renders a ServeResult as the standard table shape so the
// CLI shares the text/CSV/JSON writers with the experiment suite. A
// tenant column appears only when the spec names two or more distinct
// tenants, so single-tenant and untagged runs render exactly the
// pre-QoS table.
func ServeTable(sr *ServeResult) *Table {
	tenants := map[string]bool{}
	for _, ss := range sr.Steps {
		tenants[ss.Step.Tenant] = true
	}
	multi := len(tenants) > 1
	t := &Table{
		ID: "serve",
		Title: fmt.Sprintf("open-loop serve: %d clients, %d shard(s), scheme %s",
			sr.Clients, sr.Shards, sr.Result.Scheme),
		Header: []string{"step", "dur", "offered qps", "achieved qps", "ops", "read%", "mean", "p50", "p99", "p999"},
	}
	if multi {
		t.Header = append([]string{"step", "tenant"}, t.Header[1:]...)
	}
	for _, ss := range sr.Steps {
		readPct := 0.0
		if ss.Ops > 0 {
			readPct = 100 * float64(ss.Reads) / float64(ss.Ops)
		}
		row := []string{fmt.Sprintf("%d", ss.Index+1)}
		if multi {
			name := ss.Step.Tenant
			if name == "" {
				name = "-"
			}
			row = append(row, name)
		}
		row = append(row,
			ss.Step.D.String(),
			f1(ss.OfferedQPS),
			f1(ss.AchievedQPS),
			fmt.Sprintf("%d", ss.Ops),
			f1(readPct),
			ss.Mean.Round(time.Microsecond).String(),
			ss.P50.Round(time.Microsecond).String(),
			ss.P99.Round(time.Microsecond).String(),
			ss.P999.Round(time.Microsecond).String(),
		)
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("wall %v, %s ops/sec wall, %d submit stall(s); latency is open-loop virtual time",
			sr.WallTime.Round(time.Millisecond), f1(sr.OpsPerSecWall), sr.Stalls))
	if sr.Rejected > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("%d operation(s) refused admission by per-tenant queue bounds", sr.Rejected))
	}
	return t
}
