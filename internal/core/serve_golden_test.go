package core

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"edc/internal/maint"
	"edc/internal/sim"
	"edc/internal/ssd"
)

// testdata/serve_reports.golden was written by the commit before the paced
// loop became the only serve loop, from exactly the runs below: the
// blocking run under its unpaced loop, the stamp-ordered SubmitAt run
// under its paced one. No -update flag exists on purpose — a serve
// result that moves is a behaviour change to declare, not an image to
// regenerate.

const goldenServeVol = 2 << 20 // 512 blocks; two shards meet at 1 MiB

// goldenServer builds a verify-mode server with every background feature
// a live shard runs: the read cache, maintenance and checkpoints.
func goldenServer(t *testing.T, shards int) *Server {
	t.Helper()
	opts := verifyOptions()
	opts.VerifyReads = true
	opts.CacheBytes = 64 << 10
	opts.SnapshotEvery = 2 * time.Millisecond
	opts.Maint = &maint.Config{Interval: time.Millisecond, IdleIOPS: 1e6,
		EpochLen: 4 * time.Millisecond, ColdEpochs: 1}
	sv, err := NewServer(ServeSetup{
		ShardSetup: ShardSetup{
			Shards:      shards,
			VolumeBytes: goldenServeVol,
			Backend: func(eng *sim.Engine) (*Backend, error) {
				cfg := ssd.DefaultConfig()
				cfg.Blocks = 512
				d, err := ssd.New(cfg)
				if err != nil {
					return nil, err
				}
				return NewSSDBackend(eng, d), nil
			},
			Options: func(int) (Options, error) { return opts, nil },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sv
}

// goldenOp is operation i of the golden sequences: 1-4 blocks, one in
// fifty straddling the two-shard boundary, stamps 60 µs apart with a
// 30 ms idle gap halfway for maintenance to work in.
func goldenOp(i int) (at time.Duration, off, size int64) {
	at = time.Duration(i) * 60 * time.Microsecond
	if i >= 200 {
		at += 30 * time.Millisecond
	}
	size = int64(1+i%4) * BlockSize
	off = int64(i*37%512) * BlockSize
	if i%50 == 0 {
		off, size = goldenServeVol/2-BlockSize, 2*BlockSize
	}
	if off+size > goldenServeVol {
		off = goldenServeVol - size
	}
	return at, off, size
}

// goldenReport renders a stopped server's Report without SubmitStalls,
// the one wall-clock field.
func goldenReport(t *testing.T, sv *Server) []byte {
	t.Helper()
	st, err := sv.Stop()
	if err != nil {
		t.Fatal(err)
	}
	st.SubmitStalls = 0
	out, err := json.MarshalIndent(st.Report(), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// blockingRun is one client calling the blocking entry sequentially:
// writes first, then every form — as-soon-as-possible and stamped,
// reads and writes — in turn.
func blockingRun(t *testing.T, shards int) []byte {
	sv := goldenServer(t, shards)
	ctx := context.Background()
	for i := 0; i < 400; i++ {
		at, off, size := goldenOp(i)
		if i%4 < 2 {
			at = 0 // Read/Write: arrive as soon as possible
		}
		write := i < 64 || i%2 == 0
		if lat, err := sv.Do(ctx, at, off, size, write, ""); err != nil || lat <= 0 {
			t.Fatalf("shards=%d op %d: lat=%v err=%v", shards, i, lat, err)
		}
	}
	return goldenReport(t, sv)
}

// submitAtRun mails the same sequence in stamp order through SubmitAt,
// awaiting concurrently, and stops before draining the awaits.
func submitAtRun(t *testing.T, shards int) []byte {
	sv := goldenServer(t, shards)
	ctx := context.Background()
	const ops = 400
	errs := make(chan error, ops)
	for i := 0; i < ops; i++ {
		at, off, size := goldenOp(i)
		aw, err := sv.SubmitAt(ctx, at, off, size, i < 64 || i%2 == 0)
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			_, err := aw(ctx)
			errs <- err
		}()
	}
	out := goldenReport(t, sv)
	for i := 0; i < ops; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestServeReportGolden holds both serve client shapes to the results the
// two-loop server produced, at one and two shards.
func TestServeReportGolden(t *testing.T) {
	var img []byte
	for _, shards := range []int{1, 2} {
		img = fmt.Appendf(img, "== blocking shards=%d\n%s\n", shards, blockingRun(t, shards))
		img = fmt.Appendf(img, "== submitat shards=%d\n%s\n", shards, submitAtRun(t, shards))
	}
	checkGolden(t, "serve_reports.golden", img)
}
