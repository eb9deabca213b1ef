package edc

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"edc/internal/race"
)

// TestReplayWorkersDeterminism checks the pipeline's core contract: the
// replay-worker count changes only wall-clock speed, never results.
// Compressed output is a pure function of (content, codec) and the event
// loop joins every future before using it, so RunStats must match
// field-by-field between sequential (workers=1) and pipelined replays.
// With workers > 1 the codec futures run on the process-wide pool (each
// replay submits through its own queue handle onto one bounded channel;
// any idle pool worker may execute any job), so matching at both 2 and 8
// workers also pins down that which worker ran a job cannot reorder
// results. Run under -race this exercises the pool's handoff of
// content/payload buffers between the event loop and the workers; there
// only EDC at workers 1 and 2 runs, on both backends, and the whole
// scheme × workers matrix runs without the race detector.
func TestReplayWorkersDeterminism(t *testing.T) {
	tr := smallTrace(t, 1500)
	schemes, workerSet := []Scheme{SchemeEDC, SchemeEDCPlus}, []int{2, 8}
	if race.Enabled {
		schemes, workerSet = schemes[:1], workerSet[:1]
	}
	backends := []struct {
		name string
		opts []Option
	}{
		{"single-ssd", []Option{WithSSDConfig(smallSSD())}},
		{"rais5", []Option{WithBackend(RAIS5, 5), WithSSDConfig(smallSSD())}},
	}
	for _, s := range schemes {
		for _, be := range backends {
			s, be := s, be
			t.Run(string(s)+"/"+be.name, func(t *testing.T) {
				runWith := func(workers int) *Results {
					opts := append([]Option{
						WithScheme(s),
						WithReplayWorkers(workers),
					}, be.opts...)
					res, err := Replay(tr, testVolume, opts...)
					if err != nil {
						t.Fatalf("workers=%d: %v", workers, err)
					}
					return res
				}
				seq := runWith(1)
				for _, workers := range workerSet {
					par := runWith(workers)
					if !reflect.DeepEqual(seq, par) {
						report := func(r *Results) []interface{} {
							return []interface{}{
								r.OrigBytes, r.CompBytes, r.StoredBytes,
								r.Resp.Count(), r.MeanResponse(), r.RunsByTag,
							}
						}
						t.Fatalf("results differ between workers=1 and workers=%d:\nseq: %v\npar: %v",
							workers, report(seq), report(par))
					}
				}
			})
		}
	}
}

// stormTrace is a trace built to defeat a predictor of write runs:
// contiguous writes spaced just inside and just outside the flush
// timeout, sequential stretches long enough to hit the run cap, reads
// between writes, and phases whose arrival rate swings the calculated
// IOPS across the gz and lzf ceilings, with bursts dense enough to
// defer admission behind the outstanding-request bound.
func stormTrace(n int) *Trace {
	rng := rand.New(rand.NewSource(33))
	gaps := [][]time.Duration{
		{0, 0, time.Microsecond, 20 * time.Microsecond},                          // burst: deferral
		{299 * time.Microsecond, 300 * time.Microsecond, 301 * time.Microsecond}, // at the flush timeout
		{time.Millisecond, 2 * time.Millisecond},                                 // lzf band
		{15 * time.Millisecond, 40 * time.Millisecond},                           // gz band
	}
	tr := &Trace{Name: "storm"}
	var at time.Duration
	var next int64 // end of the last write
	for i := 0; i < n; i++ {
		phase := gaps[(i/120)%len(gaps)]
		at += phase[rng.Intn(len(phase))]
		size := int64(1+rng.Intn(8)) * 4096
		r := Request{Arrival: at, Size: size, Write: rng.Intn(5) > 0}
		switch {
		case !r.Write:
			r.Offset = rng.Int63n(testVolume/4096-8) * 4096
		case rng.Intn(3) > 0:
			r.Offset = next
		default:
			r.Offset = rng.Int63n(testVolume/4096-64) * 4096
		}
		if r.Write {
			next = (r.Offset + size) % (testVolume - 64<<10)
		}
		tr.Requests = append(tr.Requests, r)
	}
	return tr
}

// TestReplayMispredictStorm holds the write path's trace lookahead to
// the same contract: whatever it guessed about the runs to come, a
// replay at workers > 1 must return the sequential replay's results —
// under a trace built to make its guesses wrong (stormTrace), a codec
// ladder whose ceilings the trace keeps crossing, and a fault plan that
// fails the run part way through. The same trace at a 12 KiB run cap is
// internal/core's TestLookaheadRingFollowsPool/storm-small-cap.
func TestReplayMispredictStorm(t *testing.T) {
	tr := stormTrace(1500)
	cases := []struct {
		name string
		opts []Option
	}{
		{"default", nil},
		{"ceilings", []Option{WithElasticThresholds(2000, 4000)}},
		{"fails", []Option{WithFaults(&FaultPlan{Seed: 5, WriteHard: 0.2})}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			type outcome struct {
				res *Results
				err string
			}
			runWith := func(workers int) outcome {
				opts := append([]Option{WithSSDConfig(smallSSD()), WithVerify(), WithReplayWorkers(workers)}, tc.opts...)
				res, err := Replay(tr, testVolume, opts...)
				o := outcome{res: res}
				if err != nil {
					o.err = err.Error()
				}
				return o
			}
			seq := runWith(1)
			if (seq.err != "") != (tc.name == "fails") {
				t.Fatalf("sequential replay: error %q", seq.err)
			}
			for _, workers := range []int{2, 4} {
				if par := runWith(workers); !reflect.DeepEqual(seq, par) {
					t.Fatalf("results differ between workers=1 and workers=%d:\nseq: %v %+v\npar: %v %+v",
						workers, seq.err, seq.res, par.err, par.res)
				}
			}
		})
	}
}

// TestReadPathWorkersDeterminism checks the same contract on the read
// side with verification enabled: every read decompresses its extent's
// payload snapshot and compares it with the regenerated original, and
// with workers > 1 that whole check runs on pool goroutines between the
// read's submission and completion events. Results must still match the
// sequential replay field-by-field — alone, combined with LBA sharding
// (where every shard's queue feeds the same shared pool),
// and under an active fault plan (whose retries reorder nothing). Run
// under -race this exercises the event loop handing freelist buffers
// and payload snapshots to the verify workers.
func TestReadPathWorkersDeterminism(t *testing.T) {
	tr := smallTrace(t, 1500)
	cases := []struct {
		name string
		opts []Option
	}{
		{"plain", nil},
		{"sharded", []Option{WithShards(4)}},
		{"faults", []Option{WithFaults(&FaultPlan{
			Seed: 77, ReadTransient: 0.02, SpikeRate: 0.01, SpikeLatency: 2 * time.Millisecond,
		})}},
		{"sharded-faults", []Option{WithShards(4), WithFaults(&FaultPlan{
			Seed: 77, ReadTransient: 0.02, SpikeRate: 0.01, SpikeLatency: 2 * time.Millisecond,
		})}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			runWith := func(workers int) *Results {
				opts := append([]Option{
					WithScheme(SchemeEDC),
					WithSSDConfig(smallSSD()),
					WithVerify(),
					WithReplayWorkers(workers),
				}, tc.opts...)
				res, err := Replay(tr, testVolume, opts...)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				return res
			}
			seq := runWith(1)
			for _, workers := range []int{2, 4} {
				par := runWith(workers)
				if !reflect.DeepEqual(seq, par) {
					t.Fatalf("verify-mode results differ between workers=1 and workers=%d:\nseq: %+v\npar: %+v",
						workers, seq, par)
				}
			}
		})
	}
}
