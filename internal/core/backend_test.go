package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"edc/internal/fault"
	"edc/internal/hdd"
	"edc/internal/obs"
	"edc/internal/rais"
	"edc/internal/sim"
	"edc/internal/ssd"
)

// smallSSDConfig is a 16 MiB-raw device: small enough that a transfer
// past its capacity stays cheap to simulate.
func smallSSDConfig() ssd.Config {
	cfg := ssd.DefaultConfig()
	cfg.Blocks = 64
	return cfg
}

func mustSSD(t testing.TB, cfg ssd.Config) *ssd.SSD {
	t.Helper()
	d, err := ssd.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// mustArray builds an array of small members with a 16-page stripe
// unit. Each member keeps 15 pages past its last whole stripe: a
// partial-stripe RAIS5 write's parity run can reach up to a unit less a
// page beyond its stripe unit (rais.Array.MapWrite sizes it by the
// write, not by the unit), which past the last stripe would leave the
// device.
func mustArray(t testing.TB, level rais.Level, n int) *rais.Array {
	t.Helper()
	cfg := smallSSDConfig()
	cfg.OverProvision = 0.0665 // 3823 logical pages: 238 units and 15
	devs := make([]*ssd.SSD, n)
	for i := range devs {
		devs[i] = mustSSD(t, cfg)
	}
	arr, err := rais.New(level, devs, 16)
	if err != nil {
		t.Fatal(err)
	}
	return arr
}

func mustDisk(t testing.TB) *hdd.HDD {
	t.Helper()
	cfg := hdd.DefaultConfig()
	cfg.CapacityBytes = 16 << 20
	d, err := hdd.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// backendKinds builds, per organisation, the merged backend and the
// reference it replaced over fresh, identical devices.
var backendKinds = []struct {
	name  string
	build func(t testing.TB, eng, refEng *sim.Engine) (*Backend, refBackend)
}{
	{"ssd", func(t testing.TB, eng, refEng *sim.Engine) (*Backend, refBackend) {
		return NewSSDBackend(eng, mustSSD(t, smallSSDConfig())), newRefSingleSSD(refEng, mustSSD(t, smallSSDConfig()))
	}},
	{"rais0", func(t testing.TB, eng, refEng *sim.Engine) (*Backend, refBackend) {
		return NewArrayBackend(eng, mustArray(t, rais.RAIS0, 3)), newRefRAISBackend(refEng, mustArray(t, rais.RAIS0, 3))
	}},
	{"rais5", func(t testing.TB, eng, refEng *sim.Engine) (*Backend, refBackend) {
		return NewArrayBackend(eng, mustArray(t, rais.RAIS5, 4)), newRefRAISBackend(refEng, mustArray(t, rais.RAIS5, 4))
	}},
	{"hdd", func(t testing.TB, eng, refEng *sim.Engine) (*Backend, refBackend) {
		return NewDiskBackend(eng, mustDisk(t)), newRefHDDBackend(refEng, mustDisk(t))
	}},
}

// backendOp is one scheduled backend call.
type backendOp struct {
	at         time.Duration
	kind       int // 0 read, 1 write, 2 trim
	off, bytes int64
}

// randomOps draws n operations with offsets up to a tenth past the end
// and sizes from zero past the whole capacity, a few apart in time so
// the member queues fill and drain.
func randomOps(seed int64, n int, capacity int64) []backendOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]backendOp, n)
	var at time.Duration
	for i := range ops {
		at += time.Duration(rng.Int63n(int64(2 * time.Millisecond)))
		var bytes int64
		switch r := rng.Intn(20); {
		case r == 0:
			bytes = 0
		case r == 1:
			bytes = capacity + rng.Int63n(capacity/4) // past capacity
		case r < 5:
			bytes = rng.Int63n(capacity / 8)
		default:
			bytes = 1 + rng.Int63n(128<<10)
		}
		ops[i] = backendOp{
			at: at, kind: rng.Intn(3), off: rng.Int63n(capacity + capacity/10), bytes: bytes,
		}
	}
	return ops
}

// opResult is what a caller sees of one operation.
type opResult struct {
	done bool
	at   time.Duration
	err  error
}

// backendRun is everything observable of a run over one backend.
type backendRun struct {
	results    []opResult
	faults     int64
	degraded   int64
	degradedT  time.Duration
	events     []obs.Event
	counters   map[string]int64
	devices    []ssd.Stats
	queues     []sim.Stats
	describe   string
	capacity   int64
	pageSize   int
	finishedAt time.Duration
}

// drive replays ops against be on eng; inject attaches the fault plan.
func drive(eng *sim.Engine, be refBackend, ops []backendOp, inject func(*obs.Collector, *RunStats)) backendRun {
	var events []obs.Event
	col := obs.New(obs.Config{Tracer: obs.TracerFunc(func(e *obs.Event) { events = append(events, *e) })})
	st := newRunStats("", "", "")
	inject(col, st)
	res := make([]opResult, len(ops))
	for i, o := range ops {
		eng.Schedule(o.at, func() {
			done := func(err error) { res[i] = opResult{done: true, at: eng.Now(), err: err} }
			switch o.kind {
			case 0:
				be.Read(o.off, o.bytes, done)
			case 1:
				be.Write(o.off, o.bytes, done)
			default:
				be.Trim(o.off, o.bytes)
				done(nil)
			}
		})
	}
	eng.Run()
	return backendRun{
		results: res, faults: st.Faults, degraded: st.DegradedReads, degradedT: st.DegradedReadTime,
		events: events, counters: col.Counters(),
		devices: be.DeviceStats(), queues: be.QueueStats(), describe: be.Describe(),
		capacity: be.LogicalBytes(), pageSize: be.PageSize(), finishedAt: eng.Now(),
	}
}

// diffPlan fails a tenth of reads for good — a degraded read on RAIS5,
// an error elsewhere — some transiently, some writes, spikes latency
// and stalls two members.
var diffPlan = &fault.Plan{
	Seed: 3, ReadTransient: 0.05, ReadHard: 0.1, WriteTransient: 0.05, WriteHard: 0.03,
	SpikeRate: 0.1, SpikeLatency: 2 * time.Millisecond,
	Stalls: []fault.Stall{{Dev: 0, At: 40 * time.Millisecond, For: 15 * time.Millisecond},
		{Dev: 1, At: 120 * time.Millisecond, For: 30 * time.Millisecond}},
}

// TestBackendMatchesReference holds the merged backend to the three it
// replaced: seeded random reads, writes and trims on each organisation,
// with and without a fault plan, must complete at the same virtual
// times with the same errors, and leave the same fault accounting,
// observability events, device and queue statistics and description.
func TestBackendMatchesReference(t *testing.T) {
	for _, kind := range backendKinds {
		for _, plan := range []*fault.Plan{nil, diffPlan} {
			for seed := int64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("%s/faults=%v/seed=%d", kind.name, plan != nil, seed)
				t.Run(name, func(t *testing.T) {
					eng, refEng := sim.NewEngine(), sim.NewEngine()
					be, ref := kind.build(t, eng, refEng)
					ops := randomOps(seed, 400, be.LogicalBytes())
					got := drive(eng, be, ops, func(col *obs.Collector, st *RunStats) {
						if plan != nil {
							be.injectFaults(plan, col, st)
						}
					})
					want := drive(refEng, ref, ops, func(col *obs.Collector, st *RunStats) {
						if plan != nil {
							ref.(refFaultInjectable).InjectFaults(plan, col, st)
						}
					})
					for i := range ops {
						if !reflect.DeepEqual(got.results[i], want.results[i]) {
							t.Fatalf("op %d %+v: got %+v, want %+v", i, ops[i], got.results[i], want.results[i])
						}
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("run differs:\n got %+v\nwant %+v", got, want)
					}
					if plan != nil && (got.faults == 0 || len(got.events) == 0 || kind.name == "rais5" && got.degraded == 0) {
						t.Fatalf("the plan injected %d faults, %d events, %d degraded reads", got.faults, len(got.events), got.degraded)
					}
				})
			}
		}
	}
}

func TestHDDBackendClamp(t *testing.T) {
	eng := sim.NewEngine()
	be := NewDiskBackend(eng, mustDisk(t))
	done := 0
	eng.Schedule(0, func() {
		be.Read(be.LogicalBytes()-1024, 1<<20, func(error) { done++ }) // clamped
		be.Write(-5, 4096, func(error) { done++ })                     // clamped
		be.Read(0, 0, func(error) { done++ })                          // zero bytes
	})
	eng.Run()
	if done != 3 {
		t.Fatalf("done = %d", done)
	}
	if be.PageSize() != hdd.DefaultConfig().BlockSize {
		t.Fatalf("page size = %d", be.PageSize())
	}
	if be.Describe() == "" {
		t.Fatal("empty description")
	}
}

// TestSingleSSDAllocs guards the hot path: a single-SSD read or write
// allocates no more than the backend it replaced did.
func TestSingleSSDAllocs(t *testing.T) {
	eng, refEng := sim.NewEngine(), sim.NewEngine()
	be, ref := backendKinds[0].build(t, eng, refEng)
	done := func(error) {}
	for _, write := range []bool{false, true} {
		measure := func(eng *sim.Engine, be refBackend) float64 {
			off := int64(0)
			return testing.AllocsPerRun(200, func() {
				if write {
					be.Write(off, 6000, done)
				} else {
					be.Read(off, 6000, done)
				}
				eng.Run()
				off = (off + 1<<20) % be.LogicalBytes()
			})
		}
		if got, want := measure(eng, be), measure(refEng, ref); got > want {
			t.Errorf("write=%v: %.1f allocations per operation, the replaced backend made %.1f", write, got, want)
		}
	}
}

// BenchmarkBackend times one operation through the backend, the member
// queue included: single SSD and RAIS5, reads, writes, and writes under
// a fault plan.
func BenchmarkBackend(b *testing.B) {
	plan := &fault.Plan{Seed: 1, WriteTransient: 0.01, SpikeRate: 0.05, SpikeLatency: time.Millisecond}
	for _, kind := range []struct {
		name  string
		build func(eng *sim.Engine) *Backend
	}{
		{"ssd", func(eng *sim.Engine) *Backend { return NewSSDBackend(eng, mustSSD(b, smallSSDConfig())) }},
		{"rais5", func(eng *sim.Engine) *Backend { return NewArrayBackend(eng, mustArray(b, rais.RAIS5, 5)) }},
	} {
		for _, mode := range []string{"read", "write", "write-faults"} {
			b.Run(kind.name+"/"+mode, func(b *testing.B) {
				eng := sim.NewEngine()
				be := kind.build(eng)
				if mode == "write-faults" {
					be.injectFaults(plan, nil, newRunStats("", "", ""))
				}
				done := func(error) {}
				off := int64(0)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if mode == "read" {
						be.Read(off, 6000, done)
					} else {
						be.Write(off, 6000, done)
					}
					eng.Run()
					off = (off + 40960) % be.LogicalBytes()
				}
			})
		}
	}
}
