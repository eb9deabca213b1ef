package edc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestServeFacade drives a sharded System live from concurrent
// goroutines and checks the merged Results account for every operation.
func TestServeFacade(t *testing.T) {
	s, err := NewSystem(testVolume,
		WithSSDConfig(smallSSD()), WithShards(2), WithVerify())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Serve(); err != nil {
		t.Fatal(err)
	}
	const clients, perC = 4, 30
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perC; i++ {
				// Block-aligned single-block ops inside the volume keep the
				// request count exact.
				off := int64((c*perC+i)*7919%(testVolume/4096)) * 4096
				at := time.Duration(i) * 100 * time.Microsecond
				var err error
				if i%3 == 0 {
					_, err = s.ReadAt(ctx, at, off, 4096)
				} else {
					_, err = s.WriteAt(ctx, at, off, 4096)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	res, err := s.StopServe()
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != clients*perC {
		t.Fatalf("requests=%d, want %d", res.Requests, clients*perC)
	}
	if res.Resp.Count() != clients*perC {
		t.Fatalf("latency observations=%d, want %d", res.Resp.Count(), clients*perC)
	}
	if res.Scheme != string(SchemeEDC) {
		t.Fatalf("scheme=%q", res.Scheme)
	}
}

// TestBlockingCallsReturn checks each of the six blocking calls returns
// its own operation's latency with no later arrival to release it past
// the shard's watermark: with and without WithPacedServe, at one and two
// shards — the stamped calls straddle the two-shard boundary — and
// untagged or under a QoS table whose bandwidth schedule parks the
// tagged calls' arrivals.
func TestBlockingCallsReturn(t *testing.T) {
	const mid = testVolume / 2 // the two-shard boundary
	for _, paced := range []bool{false, true} {
		for _, shards := range []int{1, 2} {
			for _, tenant := range []string{"", "web"} {
				t.Run(fmt.Sprintf("paced=%v/shards=%d/tenant=%q", paced, shards, tenant), func(t *testing.T) {
					opts := []Option{WithSSDConfig(smallSSD()), WithShards(shards)}
					if paced {
						opts = append(opts, WithPacedServe())
					}
					if tenant != "" {
						opts = append(opts, WithQoS(QoSConfig{Tenants: map[string]QoSTenant{tenant: {Bandwidth: "4k"}}}))
					}
					s, err := NewSystem(testVolume, opts...)
					if err != nil {
						t.Fatal(err)
					}
					if err := s.Serve(); err != nil {
						t.Fatal(err)
					}
					ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
					defer cancel()
					for _, c := range []struct {
						name string
						call func() (time.Duration, error)
					}{
						{"Write", func() (time.Duration, error) { return s.Write(ctx, 0, 4096) }},
						{"Read", func() (time.Duration, error) { return s.Read(ctx, 0, 4096) }},
						{"WriteAt", func() (time.Duration, error) { return s.WriteAt(ctx, time.Millisecond, mid-4096, 8192) }},
						{"ReadAt", func() (time.Duration, error) { return s.ReadAt(ctx, 2*time.Millisecond, mid-4096, 8192) }},
						{"WriteAtTag", func() (time.Duration, error) { return s.WriteAtTag(ctx, 3*time.Millisecond, 8192, 4096, tenant) }},
						{"ReadAtTag", func() (time.Duration, error) { return s.ReadAtTag(ctx, 4*time.Millisecond, 8192, 4096, tenant) }},
					} {
						if lat, err := c.call(); err != nil || lat <= 0 {
							t.Errorf("%s: latency %v, err %v", c.name, lat, err)
						}
					}
					res, err := s.StopServe()
					if err != nil {
						t.Fatal(err)
					}
					if tenant != "" && res.Tenants[tenant].Shaped == 0 {
						t.Fatal("the bandwidth schedule parked no tagged call")
					}
				})
			}
		}
	}
}

// TestServeFacadeErrors covers the serve-mode state machine: calls
// before Serve, Play after Serve, submissions after StopServe.
func TestServeFacadeErrors(t *testing.T) {
	s, err := NewSystem(testVolume, WithSSDConfig(smallSSD()))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := s.Read(ctx, 0, 4096); !errors.Is(err, ErrNotServing) {
		t.Fatalf("Read before Serve: %v, want ErrNotServing", err)
	}
	if _, err := s.StopServe(); !errors.Is(err, ErrNotServing) {
		t.Fatalf("StopServe before Serve: %v, want ErrNotServing", err)
	}
	if err := s.Serve(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Play(smallTrace(t, 10)); !errors.Is(err, ErrReplayed) {
		t.Fatalf("Play after Serve: %v, want ErrReplayed", err)
	}
	if err := s.Serve(); !errors.Is(err, ErrReplayed) {
		t.Fatalf("second Serve: %v, want ErrReplayed", err)
	}
	if _, err := s.Write(ctx, 0, 4096); err != nil {
		t.Fatal(err)
	}
	if _, err := s.StopServe(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write(ctx, 0, 4096); !errors.Is(err, ErrServeStopped) {
		t.Fatalf("Write after StopServe: %v, want ErrServeStopped", err)
	}
	if _, err := s.StopServe(); !errors.Is(err, ErrServeStopped) {
		t.Fatalf("second StopServe: %v, want ErrServeStopped", err)
	}
}

// TestServeObs checks the observability layer rides along in serve
// mode: decision counters and the time series come back on the merged
// Results exactly as they do for a replay.
func TestServeObs(t *testing.T) {
	s, err := NewSystem(testVolume, WithSSDConfig(smallSSD()), WithShards(2),
		WithTracer(TracerFunc(func(*TraceEvent) {})),
		WithTimeSeries(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Serve(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 40; i++ {
		at := time.Duration(i) * 500 * time.Microsecond
		if _, err := s.WriteAt(ctx, at, int64(i)*4096, 4096); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.StopServe()
	if err != nil {
		t.Fatal(err)
	}
	if res.Obs == nil {
		t.Fatal("serve Results carry no obs report")
	}
	if got := res.Obs.Counters[`edc_admitted_total{op="write"}`]; got != 40 {
		t.Fatalf("admitted counter=%d, want 40", got)
	}
	if res.Obs.Series == nil || len(res.Obs.Series.CodecRuns) == 0 {
		t.Fatal("serve Results carry no time series bins")
	}
}

// TestServeRejectsPowerCut checks serve mode refuses crash-orchestration
// fault plans (there is no trace timeline to cut).
func TestServeRejectsPowerCut(t *testing.T) {
	s, err := NewSystem(testVolume, WithSSDConfig(smallSSD()),
		WithFaults(&FaultPlan{Seed: 1, PowerCutAt: time.Second}))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Serve(); err == nil {
		t.Fatal("Serve accepted a power-cut fault plan")
	}
}
