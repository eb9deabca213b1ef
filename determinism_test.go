package edc

import (
	"reflect"
	"testing"
	"time"
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
// content/payload buffers between the event loop and the workers.
func TestReplayWorkersDeterminism(t *testing.T) {
	tr := smallTrace(t, 1500)
	backends := []struct {
		name string
		opts []Option
	}{
		{"single-ssd", []Option{WithSSDConfig(smallSSD())}},
		{"rais5", []Option{WithBackend(RAIS5, 5), WithSSDConfig(smallSSD())}},
	}
	for _, s := range []Scheme{SchemeEDC, SchemeEDCPlus} {
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
				for _, workers := range []int{2, 8} {
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
